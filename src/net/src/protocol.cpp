#include "ppd/net/protocol.hpp"

#include <string>

#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"
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

std::uint16_t parse_port(const std::string& key, const std::string& value) {
  const std::size_t port = util::parse_count(key, value);
  if (port > 65535)
    throw ParseError("option --" + key +
                     " expects a port in [0, 65535], got: " + value);
  return static_cast<std::uint16_t>(port);
}

double parse_seconds(const std::string& key, const std::string& value) {
  const double seconds = util::parse_finite(key, value);
  if (seconds < 0.0)
    throw ParseError("option --" + key +
                     " expects a non-negative number of seconds, got: " +
                     value);
  return seconds;
}

}  // namespace ppd::net
