#include "ppd/net/session.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/util/error.hpp"

namespace ppd::net {

namespace {

bool known_key(const std::string& key) {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> keys;
    for (const QueryKind kind :
         {QueryKind::kTransfer, QueryKind::kCalibrate, QueryKind::kCoverage,
          QueryKind::kRmin, QueryKind::kLint, QueryKind::kSta}) {
      const auto& k = query_keys(kind);
      keys.insert(keys.end(), k.begin(), k.end());
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }();
  return std::binary_search(all.begin(), all.end(), key);
}

/// The one bypass decision: false when the solve cache is off, or when the
/// body can depend on something outside the replay key. A deadline clamps
/// the run's budgets.
bool replayable(QueryKind kind, const QueryParams& p,
                std::uint64_t deadline_ms) {
  if (!cache::cache_enabled() || deadline_ms != 0) return false;
  if (p.solve_budget > 0.0 || p.sweep_budget > 0.0) return false;
  // A resume names its checkpoint file in `checkpoint` too.
  if (!p.checkpoint.empty() || !p.quarantine_json.empty()) return false;
  if (!p.fault_plan.empty()) return false;
  const char* env_plan = std::getenv("PPD_FAULT_PLAN");
  if (env_plan != nullptr && env_plan[0] != '\0') return false;
  return !(kind == QueryKind::kSta && p.bench_text.empty() && !p.bench.empty());
}

// Both digests of a key read the same material from differently tagged
// starting states, so they are two different hash functions of it.
constexpr const char* kKeyDomain = "ppd.net.replay.key";
constexpr const char* kCheckDomain = "ppd.net.replay.check";

/// Both digests of an upload's bytes, taken once when it arrives, so a
/// query over it hashes two words instead of the whole blob.
ReplayKey upload_digest(const std::string& text) {
  const auto digest = [&text](const char* domain) {
    cache::Hasher h;
    h.str(domain);
    h.str(text);
    return h.value();
  };
  return {digest(kKeyDomain), digest(kCheckDomain)};
}

/// `upload_name` is empty (and `upload` zero) when the query names none;
/// upload names are never empty.
ReplayKey replay_key(QueryKind kind,
                     const std::map<std::string, std::string>& config,
                     const std::string& upload_name, const ReplayKey& upload) {
  const auto digest = [&](const char* domain, std::uint64_t upload_bytes) {
    cache::Hasher h;
    h.str(domain);
    h.u8(static_cast<std::uint8_t>(kind));
    for (const std::string& key : query_keys(kind)) {
      const auto it = config.find(key);
      h.boolean(it != config.end());
      if (it != config.end()) h.str(it->second);
    }
    h.str(upload_name);
    h.u64(upload_bytes);
    return h.value();
  };
  return {digest(kKeyDomain, upload.key), digest(kCheckDomain, upload.check)};
}

/// Replay entry layout, one 64-bit word per double: check digest, exit
/// code, body size, then the body bytes packed eight to a word.
constexpr std::size_t kReplayHeaderWords = 3;

}  // namespace

std::optional<QueryResult> find_replay(const ReplayKey& key) {
  const auto entry = cache::solve_cache().get(key.key);
  if (!entry || entry->size() < kReplayHeaderWords ||
      std::bit_cast<std::uint64_t>((*entry)[0]) != key.check)
    return std::nullopt;
  const auto size = std::bit_cast<std::uint64_t>((*entry)[2]);
  if (size > (entry->size() - kReplayHeaderWords) * sizeof(double))
    return std::nullopt;
  QueryResult result;
  result.exit_code = static_cast<int>(std::bit_cast<std::int64_t>((*entry)[1]));
  result.body.assign(
      reinterpret_cast<const char*>(entry->data() + kReplayHeaderWords), size);
  return result;
}

void store_replay(const ReplayKey& key, const QueryResult& result) {
  if (!cache::cache_enabled()) return;
  std::vector<double> entry(
      kReplayHeaderWords + (result.body.size() + sizeof(double) - 1) /
                               sizeof(double),
      0.0);
  entry[0] = std::bit_cast<double>(key.check);
  entry[1] = std::bit_cast<double>(static_cast<std::int64_t>(result.exit_code));
  entry[2] = std::bit_cast<double>(
      static_cast<std::uint64_t>(result.body.size()));
  std::memcpy(entry.data() + kReplayHeaderWords, result.body.data(),
              result.body.size());
  cache::solve_cache().put(key.key, std::move(entry));
}

void Session::set(const std::string& key, const std::string& value) {
  if (!known_key(key))
    throw ParseError("unknown config key: " + key);
  std::lock_guard<std::mutex> lock(mutex_);
  config_[key] = value;
}

void Session::upload(const std::string& name, std::string text) {
  if (name.empty() || name.find_first_of(" \t") != std::string::npos)
    throw ParseError("upload name must be one non-empty word");
  // Upload names are session-local labels, never paths — reject separator
  // characters outright so no later layer can be talked into treating one
  // as a filesystem location.
  if (name.find_first_of("/\\") != std::string::npos ||
      name.find("..") != std::string::npos)
    throw QuotaError("name", "upload name must not contain path separators: " +
                                 name);
  if (name.size() > 128)
    throw QuotaError("name", "upload name longer than 128 bytes");
  // Hashed before the lock: a 4 MiB blob must not stall the session's
  // result delivery.
  const ReplayKey digest = upload_digest(text);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = uploads_.find(name);
  const std::size_t replaced =
      it == uploads_.end() ? 0 : it->second.text.size();
  if (it == uploads_.end() && uploads_.size() >= limits_.max_uploads)
    throw QuotaError("uploads", "upload limit reached (" +
                                    std::to_string(limits_.max_uploads) +
                                    " blobs)");
  if (upload_bytes_ - replaced + text.size() > limits_.max_upload_bytes)
    throw QuotaError("upload_bytes",
                     "upload budget exceeded (" +
                         std::to_string(limits_.max_upload_bytes) + " bytes)");
  upload_bytes_ = upload_bytes_ - replaced + text.size();
  uploads_[name] = Upload{std::move(text), digest};
}

QueryParams Session::make_params(QueryKind kind, const std::string& arg,
                                 std::uint64_t deadline_ms,
                                 std::optional<ReplayKey>& replay) const {
  std::map<std::string, std::string> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = config_;
  }
  QueryParams params = params_from_lookup(
      kind, [&snapshot](const std::string& key) -> std::optional<std::string> {
        const auto it = snapshot.find(key);
        if (it == snapshot.end()) return std::nullopt;
        return it->second;
      });
  ReplayKey upload;  // digests of the upload `arg` names, if any
  if (kind == QueryKind::kLint) {
    if (arg.empty())
      throw ParseError("lint query needs an upload name: QUERY lint <name>");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = uploads_.find(arg);
    if (it == uploads_.end())
      throw ParseError("no upload named '" + arg + "' in this session");
    params.lint_name = arg;
    params.lint_text = it->second.text;
    upload = it->second.digest;
  } else if (kind == QueryKind::kSta && !arg.empty()) {
    // `QUERY sta [<upload>]`: the upload is optional — without one the
    // query falls back to the `bench` config path or the bundled
    // benchmark, exactly like ppdtool.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = uploads_.find(arg);
    if (it == uploads_.end())
      throw ParseError("no upload named '" + arg + "' in this session");
    params.bench_name = arg;
    params.bench_text = it->second.text;
    upload = it->second.digest;
  } else if (!arg.empty()) {
    throw ParseError(std::string("query ") + query_kind_name(kind) +
                     " takes no argument");
  }
  replay.reset();
  if (replayable(kind, params, deadline_ms))
    replay = replay_key(kind, snapshot, arg, upload);
  return params;
}

std::uint64_t Session::admit(bool* backlog_full) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (backlog_full != nullptr) *backlog_full = false;
  if (ready_.size() >= limits_.max_backlog) {
    if (backlog_full != nullptr) *backlog_full = true;
    return 0;
  }
  if (in_flight_ >= limits_.max_queue) return 0;
  ++in_flight_;
  return ++next_id_;
}

bool Session::write_event_locked(const std::string& line) {
  if (!data_) return false;
  try {
    data_->write_all(line);
    data_->write_all("\n");
    return true;
  } catch (const NetError&) {
    // The data channel died mid-write (EPIPE / ECONNRESET): drop the
    // channel, keep the event. Buffered + future results wait for a
    // reattach; admission keeps counting them; the drain summary reports
    // them as undelivered.
    obs::counter("net.data.write_failed").add();
    data_.reset();
    return false;
  }
}

void Session::deliver(std::string event_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (write_event_locked(event_line)) {
    if (in_flight_ > 0) --in_flight_;
    return;
  }
  ready_.push_back(std::move(event_line));
}

void Session::attach_data(std::shared_ptr<TcpStream> stream,
                          const std::string& preamble) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_ = std::move(stream);
  if (!preamble.empty() && !write_event_locked(preamble)) return;
  while (!ready_.empty()) {
    if (!write_event_locked(ready_.front())) break;
    ready_.pop_front();
    if (in_flight_ > 0) --in_flight_;
  }
}

void Session::detach_data() {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.reset();
}

void Session::notify(const std::string& event_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_event_locked(event_line);
}

void Session::shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (data_) data_->shutdown_both();
}

std::size_t Session::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::size_t Session::undelivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ready_.size();
}

std::uint64_t Session::queries_accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_;
}

void Session::set_subscribe_period(double period_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  subscribe_period_s_ = period_s > 0.0 ? period_s : 0.0;
}

double Session::subscribe_period() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subscribe_period_s_;
}

}  // namespace ppd::net
