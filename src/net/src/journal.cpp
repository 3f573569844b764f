#include "ppd/net/journal.hpp"

#include <cstdio>
#include <sstream>

#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"

namespace ppd::net {

namespace json = util::json;

namespace {

/// FNV-1a over the upload body — a cheap content digest recorded next to
/// the text so an operator can eyeball which blob a journal entry holds
/// without dumping it.
std::string fnv64_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t parse_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

SessionJournal::SessionJournal(std::string path, std::size_t rotate_bytes,
                               State seed)
    : path_(std::move(path)), rotate_bytes_(rotate_bytes),
      live_(std::move(seed)) {
  for (auto it = live_.begin(); it != live_.end();)
    it = it->second.closed ? live_.erase(it) : std::next(it);
  if (!live_.empty()) {
    // Seeded from --recover: compact immediately so the new journal starts
    // from a clean snapshot instead of replaying history onto history.
    std::lock_guard<std::mutex> lock(mutex_);
    rotate_locked();  // opens out_ on the fresh snapshot
    --rotations_;  // the seeding compaction is not a size-triggered rotation
  } else {
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_)
      throw ParseError("cannot open journal " + path_ + " for appending");
    out_.seekp(0, std::ios::end);
    bytes_ = static_cast<std::size_t>(std::streamoff(out_.tellp()));
  }
}

void SessionJournal::append_locked(const std::string& line) {
  out_ << line << '\n';
  out_.flush();
  bytes_ += line.size() + 1;
  if (rotate_bytes_ > 0 && bytes_ > rotate_bytes_) rotate_locked();
}

void SessionJournal::write_state(std::ostream& os, const State& state) {
  for (const auto& [token, s] : state) {
    if (s.closed) continue;
    const std::string tok = json::quote(token);
    os << "{\"j\":\"open\",\"token\":" << tok << "}\n";
    for (const auto& [key, value] : s.config)
      os << "{\"j\":\"set\",\"token\":" << tok
         << ",\"key\":" << json::quote(key)
         << ",\"value\":" << json::quote(value) << "}\n";
    for (const auto& [name, text] : s.uploads)
      os << "{\"j\":\"upload\",\"token\":" << tok
         << ",\"name\":" << json::quote(name)
         << ",\"fnv\":" << json::quote(fnv64_hex(text))
         << ",\"text\":" << json::quote(text) << "}\n";
    os << "{\"j\":\"next\",\"token\":" << tok << ",\"id\":" << s.next_id
       << "}\n";
    for (const auto& [id, kindarg] : s.accepted)
      os << "{\"j\":\"accept\",\"token\":" << tok << ",\"id\":" << id
         << ",\"kind\":" << json::quote(kindarg.substr(0, kindarg.find(' ')))
         << ",\"arg\":"
         << json::quote(kindarg.find(' ') == std::string::npos
                            ? std::string()
                            : kindarg.substr(kindarg.find(' ') + 1))
         << "}\n";
    for (const auto& [id, event] : s.acked)
      os << "{\"j\":\"ack\",\"token\":" << tok << ",\"id\":" << id
         << ",\"event\":" << json::quote(event) << "}\n";
  }
}

void SessionJournal::rotate_locked() {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw ParseError("cannot open " + tmp + " for journal rotation");
    write_state(os, live_);
    os.flush();
    if (!os) throw ParseError("short write rotating journal to " + tmp);
  }
  if (out_.is_open()) out_.close();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0)
    throw ParseError("cannot rename " + tmp + " over " + path_);
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) throw ParseError("cannot reopen journal " + path_);
  out_.seekp(0, std::ios::end);
  bytes_ = static_cast<std::size_t>(std::streamoff(out_.tellp()));
  ++rotations_;
}

void SessionJournal::record_open(const std::string& token) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_[token];  // default-constructed entry
  append_locked("{\"j\":\"open\",\"token\":" + json::quote(token) + "}");
}

void SessionJournal::record_set(const std::string& token,
                                const std::string& key,
                                const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_[token].config[key] = value;
  append_locked("{\"j\":\"set\",\"token\":" + json::quote(token) +
                ",\"key\":" + json::quote(key) +
                ",\"value\":" + json::quote(value) + "}");
}

void SessionJournal::record_upload(const std::string& token,
                                   const std::string& name,
                                   const std::string& text) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_[token].uploads[name] = text;
  append_locked("{\"j\":\"upload\",\"token\":" + json::quote(token) +
                ",\"name\":" + json::quote(name) +
                ",\"fnv\":" + json::quote(fnv64_hex(text)) +
                ",\"text\":" + json::quote(text) + "}");
}

void SessionJournal::record_accept(const std::string& token, std::uint64_t id,
                                   const std::string& kind,
                                   const std::string& arg) {
  std::lock_guard<std::mutex> lock(mutex_);
  RecoveredSession& s = live_[token];
  s.accepted[id] = kind + " " + arg;
  s.next_id = std::max(s.next_id, id);
  append_locked("{\"j\":\"accept\",\"token\":" + json::quote(token) +
                ",\"id\":" + std::to_string(id) +
                ",\"kind\":" + json::quote(kind) +
                ",\"arg\":" + json::quote(arg) + "}");
}

void SessionJournal::record_ack(const std::string& token, std::uint64_t id,
                                const std::string& event_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A delivery can race the session's close (the worker's ack hook fires
  // after the socket write, the client may QUIT in between): an ack for a
  // closed session must not resurrect it.
  const auto it = live_.find(token);
  if (it == live_.end()) return;
  RecoveredSession& s = it->second;
  s.accepted.erase(id);
  s.acked[id] = event_line;
  s.next_id = std::max(s.next_id, id);
  append_locked("{\"j\":\"ack\",\"token\":" + json::quote(token) +
                ",\"id\":" + std::to_string(id) +
                ",\"event\":" + json::quote(event_line) + "}");
}

void SessionJournal::record_close(const std::string& token) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.erase(token);
  append_locked("{\"j\":\"close\",\"token\":" + json::quote(token) + "}");
}

SessionJournal::State SessionJournal::replay(const std::string& path) {
  State state;
  std::ifstream is(path, std::ios::binary);
  if (!is) return state;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value rec;
    try {
      rec = json::parse(line);
    } catch (const std::exception&) {
      // A torn final append (crash mid-write) is expected; a torn middle
      // line is not, but recovery favours salvaging what parses.
      continue;
    }
    // Member text, or "" when absent.
    const auto field = [&rec](std::string_view key) {
      const json::Value* v = rec.find(key);
      return v == nullptr ? std::string() : v->scalar;
    };
    const std::string kind = field("j");
    const std::string token = field("token");
    if (token.empty()) continue;
    if (kind == "open") {
      state[token];
    } else if (kind == "set") {
      state[token].config[field("key")] = field("value");
    } else if (kind == "upload") {
      state[token].uploads[field("name")] = field("text");
    } else if (kind == "next") {
      RecoveredSession& s = state[token];
      s.next_id = std::max(s.next_id, parse_u64(field("id")));
    } else if (kind == "accept") {
      RecoveredSession& s = state[token];
      const std::uint64_t id = parse_u64(field("id"));
      s.accepted[id] = field("kind") + " " + field("arg");
      s.next_id = std::max(s.next_id, id);
    } else if (kind == "ack") {
      RecoveredSession& s = state[token];
      const std::uint64_t id = parse_u64(field("id"));
      s.accepted.erase(id);
      s.acked[id] = field("event");
      s.next_id = std::max(s.next_id, id);
    } else if (kind == "close") {
      state[token].closed = true;
    }
  }
  for (auto it = state.begin(); it != state.end();)
    it = it->second.closed ? state.erase(it) : std::next(it);
  return state;
}

std::uint64_t SessionJournal::rotations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rotations_;
}

std::size_t SessionJournal::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace ppd::net
