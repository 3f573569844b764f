#include "ppd/net/protocol.hpp"

#include <string>

#include "ppd/util/strings.hpp"

namespace ppd::net {

std::string ok_reply(const std::string& detail) {
  return detail.empty() ? "OK" : "OK " + detail;
}

std::string err_reply(const std::string& message) {
  // Replies are one line by contract: flatten embedded newlines (multi-line
  // lint summaries, exception messages with context) instead of corrupting
  // the framing.
  std::string flat = message;
  for (char& c : flat)
    if (c == '\n' || c == '\r') c = ' ';
  return "ERR " + flat;
}

bool is_ok(std::string_view reply) {
  return reply == "OK" || util::starts_with(reply, "OK ");
}

}  // namespace ppd::net
