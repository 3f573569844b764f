#include "ppd/resil/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"

namespace ppd::resil {

Checkpoint::Checkpoint(Checkpoint&& other) noexcept {
  const std::lock_guard<std::mutex> lock(other.mutex_);
  seed_ = other.seed_;
  items_ = other.items_;
  context_ = std::move(other.context_);
  bound_ = other.bound_;
  payloads_ = std::move(other.payloads_);
  quarantine_ = std::move(other.quarantine_);
}

Checkpoint& Checkpoint::operator=(Checkpoint&& other) noexcept {
  if (this == &other) return *this;
  const std::scoped_lock lock(mutex_, other.mutex_);
  seed_ = other.seed_;
  items_ = other.items_;
  context_ = std::move(other.context_);
  bound_ = other.bound_;
  payloads_ = std::move(other.payloads_);
  quarantine_ = std::move(other.quarantine_);
  return *this;
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw ParseError("cannot open checkpoint file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::json::Value doc = util::json::parse(buffer.str());
  const util::json::Value* version = doc.find("resil_checkpoint");
  if (version == nullptr || version->as_uint() != 1)
    throw ParseError(path + ": not a ppd::resil checkpoint (version 1)");

  Checkpoint ck;
  ck.seed_ = doc.at("seed").as_uint();
  ck.items_ = static_cast<std::size_t>(doc.at("items").as_uint());
  ck.context_ = doc.at("context").as_string();
  ck.bound_ = true;
  const util::json::Value& completed = doc.at("completed");
  if (completed.kind != util::json::Value::Kind::kArray)
    throw ParseError(path + ": 'completed' must be an array");
  for (const util::json::Value& entry : completed.items) {
    const auto item = static_cast<std::size_t>(entry.at("item").as_uint());
    if (item >= ck.items_)
      throw ParseError(path + ": completed item out of range");
    ck.payloads_[item] = entry.at("payload").as_string();
  }
  if (const util::json::Value* quarantine = doc.find("quarantine")) {
    if (quarantine->kind != util::json::Value::Kind::kArray)
      throw ParseError(path + ": 'quarantine' must be an array");
    for (const util::json::Value& entry : quarantine->items) {
      QuarantineEntry q;
      q.item = static_cast<std::size_t>(entry.at("item").as_uint());
      q.seed = entry.at("seed").as_uint();
      q.rung = entry.at("rung").as_string();
      q.error = entry.at("error").as_string();
      ck.quarantine_.push_back(std::move(q));
    }
  }
  return ck;
}

void Checkpoint::bind(std::uint64_t seed, std::size_t items,
                      const std::string& context) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (bound_) {
    if (seed_ != seed || items_ != items || context_ != context)
      throw ParseError(
          "checkpoint does not match this sweep (stored seed " +
          std::to_string(seed_) + ", " + std::to_string(items_) + " items, '" +
          context_ + "'; sweep has seed " + std::to_string(seed) + ", " +
          std::to_string(items) + " items, '" + context + "')");
    return;
  }
  seed_ = seed;
  items_ = items;
  context_ = context;
  bound_ = true;
}

bool Checkpoint::has(std::size_t item) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return payloads_.count(item) != 0;
}

std::string Checkpoint::payload(std::size_t item) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = payloads_.find(item);
  PPD_REQUIRE(it != payloads_.end(), "checkpoint has no payload for this item");
  return it->second;
}

void Checkpoint::record(std::size_t item, std::string payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  payloads_[item] = std::move(payload);
}

void Checkpoint::record_quarantine(QuarantineEntry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  quarantine_.push_back(std::move(entry));
}

void Checkpoint::clear_quarantine() {
  const std::lock_guard<std::mutex> lock(mutex_);
  quarantine_.clear();
}

std::size_t Checkpoint::completed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return payloads_.size();
}

std::vector<QuarantineEntry> Checkpoint::quarantine() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return quarantine_;
}

void Checkpoint::save(const std::string& path) const {
  std::ostringstream os;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"resil_checkpoint\": 1,\n  \"seed\": " << seed_
       << ",\n  \"items\": " << items_
       << ",\n  \"context\": " << util::json::quote(context_) << ",\n";
    // Contiguous completed ranges [lo, hi), a jq-friendly summary of
    // progress (the payload list below is authoritative).
    os << "  \"ranges\": [";
    bool first_range = true;
    for (auto it = payloads_.begin(); it != payloads_.end();) {
      const std::size_t lo = it->first;
      std::size_t hi = lo + 1;
      ++it;
      while (it != payloads_.end() && it->first == hi) {
        ++hi;
        ++it;
      }
      os << (first_range ? "" : ", ") << "[" << lo << ", " << hi << "]";
      first_range = false;
    }
    os << "],\n  \"completed\": [";
    bool first = true;
    for (const auto& [item, payload] : payloads_) {
      os << (first ? "\n" : ",\n") << "    {\"item\": " << item
         << ", \"payload\": " << util::json::quote(payload) << "}";
      first = false;
    }
    os << (payloads_.empty() ? "]" : "\n  ]") << ",\n  \"quarantine\": [";
    first = true;
    for (const QuarantineEntry& q : quarantine_) {
      os << (first ? "\n" : ",\n") << "    {\"item\": " << q.item
         << ", \"seed\": " << q.seed
         << ", \"rung\": " << util::json::quote(q.rung)
         << ", \"error\": " << util::json::quote(q.error) << "}";
      first = false;
    }
    os << (quarantine_.empty() ? "]" : "\n  ]") << "\n}\n";
  }
  // Atomic publish: never leave a torn checkpoint behind a crash.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    PPD_REQUIRE(static_cast<bool>(out), "cannot write checkpoint: " + tmp);
    out << os.str();
    out.flush();
    PPD_REQUIRE(static_cast<bool>(out), "short write on checkpoint: " + tmp);
  }
  PPD_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot publish checkpoint: " + path);
}

}  // namespace ppd::resil
