#include "ppd/net/client.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ppd/net/protocol.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::net {

namespace {

/// Second word of "OK ppdd <ver> session <token>"-style replies.
std::string word_at(const std::string& line, std::size_t index) {
  const auto words = util::split_ws(line);
  if (index >= words.size())
    throw ServiceError("malformed server reply: " + line);
  return words[index];
}

}  // namespace

Client Client::connect(std::uint16_t port) { return connect_impl(port, {}); }

Client Client::resume(std::uint16_t port, const std::string& token) {
  return connect_impl(port, token);
}

Client Client::connect_impl(std::uint16_t port,
                            const std::string& resume_token) {
  Client client;
  client.control_ = TcpStream::connect_loopback(port);
  client.control_.write_all("CONTROL\n");
  const auto hello = client.control_.read_line();
  if (!hello) throw ServiceError("server closed the control channel");
  if (!is_ok(*hello)) throw ServiceError(*hello);
  // "OK ppdd <ver> session <token>"
  client.session_ = word_at(*hello, 4);

  if (!resume_token.empty()) {
    // "OK resume <token> next <N> acked <id,...|->"
    const std::string reply = client.command("RESUME " + resume_token);
    client.session_ = word_at(reply, 2);
    if (util::split_ws(reply).size() >= 7) {
      const std::string acked = word_at(reply, 6);
      if (acked != "-")
        for (const auto& id : util::split(acked, ','))
          client.acked_ids_.push_back(
              std::strtoull(id.c_str(), nullptr, 10));
    }
  }

  client.data_ = TcpStream::connect_loopback(port);
  client.data_.write_all("DATA " + client.session_ + "\n");
  const auto stream_ok = client.data_.read_line();
  if (!stream_ok) throw ServiceError("server closed the data channel");
  if (!is_ok(*stream_ok)) throw ServiceError(*stream_ok);
  // First data event is the hello; consume it so wait() only sees results.
  const auto hello_event = client.data_.read_line();
  if (!hello_event) throw ServiceError("data channel closed before hello");
  return client;
}

std::string Client::command(const std::string& line) {
  control_.write_all(line + "\n");
  const auto reply = control_.read_line();
  if (!reply) throw ServiceError("server closed the control channel");
  if (!is_ok(*reply) && reply->rfind("BUSY", 0) != 0)
    throw ServiceError(*reply);
  return *reply;
}

void Client::set(const std::string& key, const std::string& value) {
  command("SET " + key + " " + value);
}

void Client::upload(const std::string& name, const std::string& text) {
  control_.write_all("UPLOAD " + name + " " + std::to_string(text.size()) +
                     "\n");
  control_.write_all(text);
  const auto reply = control_.read_line();
  if (!reply) throw ServiceError("server closed the control channel");
  if (!is_ok(*reply)) throw ServiceError(*reply);
}

Client::Submitted Client::submit(const std::string& kind,
                                 const std::string& arg) {
  return submit(kind, arg, SubmitOptions{});
}

Client::Submitted Client::submit(const std::string& kind,
                                 const std::string& arg,
                                 const SubmitOptions& opts) {
  std::string line = "QUERY " + kind;
  if (!arg.empty()) line += " " + arg;
  if (opts.deadline_ms != 0)
    line += " deadline_ms=" + std::to_string(opts.deadline_ms);
  if (opts.id != 0) line += " id=" + std::to_string(opts.id);
  const std::string reply = command(line);
  Submitted out;
  out.reply = reply;
  if (reply.rfind("BUSY", 0) == 0) {
    out.busy = true;
    return out;
  }
  // "OK <id>" | "OK <id> cached" (acked re-issue, event redelivered) |
  // "OK <id> dup" (already in flight, one result will arrive).
  out.id = std::strtoull(word_at(reply, 1).c_str(), nullptr, 10);
  const auto words = util::split_ws(reply);
  if (words.size() >= 3) {
    out.cached = words[2] == "cached";
    out.duplicate = words[2] == "dup";
  }
  return out;
}

Client::Result Client::wait(std::uint64_t id) {
  const auto buffered = pending_.find(id);
  if (buffered != pending_.end()) {
    Result result = std::move(buffered->second);
    pending_.erase(buffered);
    return result;
  }
  for (;;) {
    const auto line = data_.read_line();
    if (!line)
      throw ServiceError("data channel closed while waiting for query " +
                         std::to_string(id));
    // A waiting client skips metrics events (large nested documents)
    // without parsing them.
    if (line->rfind("{\"event\":\"metrics\"", 0) == 0) continue;
    const util::json::Value ev = util::json::parse(*line);
    // Member text, or "" when absent.
    const auto get = [&ev](std::string_view key) {
      const util::json::Value* v = ev.find(key);
      return v == nullptr ? std::string() : v->scalar;
    };
    const std::string event = get("event");
    if (event == "drain") {
      drained_ = true;
      continue;
    }
    if (event != "result") continue;

    Result result;
    result.raw = *line;
    result.id = std::strtoull(get("id").c_str(), nullptr, 10);
    result.qid = std::strtoull(get("qid").c_str(), nullptr, 10);
    result.kind = get("kind");
    result.status = get("status");
    result.exit_code = std::atoi(get("exit_code").c_str());
    result.elapsed_s = std::strtod(get("elapsed_s").c_str(), nullptr);
    result.queue_s = std::strtod(get("queue_s").c_str(), nullptr);
    result.execute_s = std::strtod(get("execute_s").c_str(), nullptr);
    result.serialize_s = std::strtod(get("serialize_s").c_str(), nullptr);
    result.body = get("body");
    result.error = get("error");
    if (result.id == id) return result;
    pending_.emplace(result.id, std::move(result));
  }
}

Client::Result Client::run(const std::string& kind, const std::string& arg) {
  const Submitted submitted = submit(kind, arg);
  if (submitted.busy)
    throw ServiceError("server replied BUSY (session queue full)");
  return wait(submitted.id);
}

std::string Client::stats() {
  control_.write_all("STATS\n");
  const auto reply = control_.read_line();
  if (!reply) throw ServiceError("server closed the control channel");
  if (reply->rfind("ERR", 0) == 0) throw ServiceError(*reply);
  return *reply;
}

void Client::subscribe(double period_s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", period_s);
  command(std::string("SUBSCRIBE ") + buf);
}

std::optional<std::string> Client::next_event() {
  const auto line = data_.read_line();
  if (!line) return std::nullopt;
  if (line->rfind("{\"event\":\"drain\"", 0) == 0) drained_ = true;
  return line;
}

std::string Client::trace_dump() {
  control_.write_all("TRACE\n");
  const auto reply = control_.read_line();
  if (!reply) throw ServiceError("server closed the control channel");
  if (!is_ok(*reply)) throw ServiceError(*reply);
  // "OK trace <nbytes>" then the raw payload on the same stream.
  const auto n = std::strtoull(word_at(*reply, 2).c_str(), nullptr, 10);
  std::string payload;
  if (!control_.read_exact(payload, static_cast<std::size_t>(n)))
    throw ServiceError("control channel closed mid trace dump");
  return payload;
}

std::string Client::ping() { return command("PING"); }

void Client::quit() {
  try {
    command("QUIT");
  } catch (const NetError&) {
    // Already gone — quit is best-effort by design.
  } catch (const ServiceError&) {
  }
  control_.close();
  data_.close();
}

}  // namespace ppd::net
