// One client's state on the ppdd service: the config written by SET
// commands, uploaded netlist blobs, and the bounded in-flight window that
// implements backpressure.
//
// Admission control counts every query from acceptance until its result
// event has been written to the session's data channel (or until the
// session dies). A client that submits without draining its data channel
// therefore hits BUSY after `max_queue` queries — the queue cannot grow
// without bound no matter how the client behaves. Results completed before
// a data channel attaches are buffered (inside the same window) and
// flushed on attach, so CONTROL-then-DATA connection order is not racy.
//
// Hardening (PR 9): every per-session resource is capped (SessionLimits),
// violations throw the typed QuotaError (rendered as "ERR quota.<leaf>"
// on the wire, counted as net.quota.<leaf>), and the session carries the
// crash-recovery state — delivered ("acked") result events kept for
// idempotent re-issue, an in-flight id set for duplicate suppression, and
// attach/detach bookkeeping so a journal-backed session survives its
// control connection and can be RESUMEd.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "ppd/net/query.hpp"
#include "ppd/net/socket.hpp"
#include "ppd/util/error.hpp"

namespace ppd::net {

struct SessionLimits {
  std::size_t max_queue = 8;           ///< in-flight window per session
  std::size_t max_upload_bytes = 4u << 20;
  std::size_t max_uploads = 64;
  std::size_t max_line_bytes = 64u << 10;  ///< CONTROL line length cap
  /// Completed-but-undelivered result events buffered per session before
  /// admission refuses new queries (BUSY backlog). Bounds the ready queue
  /// for a client that submits but never drains its data channel.
  std::size_t max_backlog = 8;
};

/// A per-session resource cap was hit. `leaf()` names the quota — the
/// server replies "ERR quota.<leaf>: ..." and bumps "net.quota.<leaf>".
class QuotaError : public ParseError {
 public:
  QuotaError(const std::string& leaf, const std::string& detail)
      : ParseError("quota." + leaf + ": " + detail), leaf_(leaf) {}
  [[nodiscard]] const std::string& leaf() const { return leaf_; }

 private:
  std::string leaf_;
};

/// Content key of one served query, built by Session::make_params from the
/// session snapshot: two independent 64-bit digests of the kind, each key of
/// query_keys(kind) with its value or its absence, and the name and bytes of
/// the upload the query names. `key` addresses a SolveCache entry; `check`
/// is stored inside it, so two queries whose `key`s collide miss instead of
/// serving each other's body.
struct ReplayKey {
  std::uint64_t key = 0;
  std::uint64_t check = 0;
};

/// The (exit_code, body) stored under `key`, or nullopt (no entry, a
/// `check` mismatch, or the solve cache disabled). Replay entries are
/// ordinary SolveCache::global() entries: same byte budget, LRU, PPD_CACHE=0
/// kill switch and clear().
[[nodiscard]] std::optional<QueryResult> find_replay(const ReplayKey& key);
/// Store a successfully computed result under `key`.
void store_replay(const ReplayKey& key, const QueryResult& result);

class Session {
 public:
  Session(std::string token, SessionLimits limits)
      : token_(std::move(token)), limits_(limits) {}

  [[nodiscard]] const std::string& token() const { return token_; }
  [[nodiscard]] const SessionLimits& limits() const { return limits_; }

  /// SET: validate the key against every query kind's key table (plus the
  /// lint upload selector) and remember the value. Throws ppd::ParseError
  /// on unknown keys so typos fail at SET time, not at query time.
  void set(const std::string& key, const std::string& value);

  /// Store an uploaded blob. Throws QuotaError over the limits and
  /// ParseError for malformed names (whitespace, path separators).
  void upload(const std::string& name, std::string text);

  /// Build the params for one query from the current config snapshot;
  /// `arg` is the upload name for lint (and optionally sta) queries.
  /// `replay` receives the query's content key, or nullopt when the query
  /// cannot replay: the solve cache is off, or the body can depend on
  /// something outside the key (a `deadline_ms`, a solve/sweep budget, a
  /// checkpoint or resume file, a quarantine side file, a fault plan (key
  /// or PPD_FAULT_PLAN), or an sta netlist read from a local path). No key
  /// is computed for a query that cannot replay.
  [[nodiscard]] QueryParams make_params(QueryKind kind, const std::string& arg,
                                        std::uint64_t deadline_ms,
                                        std::optional<ReplayKey>& replay) const;

  /// Try to admit one query into the in-flight window: returns the new
  /// query id, or 0 when the window or the undelivered backlog is full
  /// (reply BUSY). `backlog_full` (optional) distinguishes the two.
  [[nodiscard]] std::uint64_t admit(bool* backlog_full = nullptr);

  /// Re-issue admission for an explicit id (RESUME recovery path): admits
  /// the id unless it is already running or the window is full. Advances
  /// next_id_ past `id` so fresh admissions never collide.
  enum class Admit { kAdmitted, kDuplicate, kBusy };
  [[nodiscard]] Admit admit_with_id(std::uint64_t id);

  /// Deliver query `id`'s event line: writes it to the data channel when
  /// one is attached (releasing its admission slot and recording the ack),
  /// otherwise buffers it until attach. Never throws — a dead data channel
  /// detaches (counted as net.data.write_failed).
  void deliver(std::uint64_t id, std::string event_line);

  /// Push an already-acked event again (idempotent re-issue of an acked
  /// id). Consumes no admission slot. False when the backlog is full.
  [[nodiscard]] bool redeliver(std::uint64_t id);

  /// The journaled/delivered event for `id`, or nullptr when never acked
  /// (or already aged out of the bounded ack window).
  [[nodiscard]] const std::string* acked_event(std::uint64_t id) const;
  /// Ids with retained acked events, ascending (the RESUME reply).
  [[nodiscard]] std::vector<std::uint64_t> acked_ids() const;

  /// Restore journal-recovered state (server --recover). Bypasses quota
  /// re-checks for acks; config/uploads go through set()/upload() instead.
  void restore(std::uint64_t next_id,
               std::map<std::uint64_t, std::string> acked);

  /// Invoked (under the session lock) each time a result event is actually
  /// written to the data channel — the journal's ack hook.
  void set_ack_hook(
      std::function<void(std::uint64_t id, const std::string& event)> hook);

  /// Attach the data channel and flush everything buffered. The session
  /// keeps a shared handle so delivery can outlive the reader thread.
  /// `preamble` (the hello event, one line, no newline) is written first,
  /// in the same critical section — once a client has seen the hello, no
  /// concurrent notify()/deliver() can slip into the unattached gap.
  void attach_data(std::shared_ptr<TcpStream> stream,
                   const std::string& preamble = {});
  void detach_data();

  /// Control-connection bookkeeping: a journal-backed session outlives its
  /// control connection (detached => RESUMEable). `seq` orders detachments
  /// so the server can evict the oldest when too many linger.
  void set_control_attached(bool attached, std::uint64_t seq = 0);
  [[nodiscard]] bool control_attached() const;
  [[nodiscard]] std::uint64_t detached_seq() const;

  /// Push a non-result event (hello / drain) to an attached data channel.
  void notify(const std::string& event_line);

  /// Shut both channels down (server stop): wakes blocked readers.
  void shutdown();

  [[nodiscard]] std::size_t in_flight() const;
  /// Completed events still buffered, waiting for a data channel.
  [[nodiscard]] std::size_t undelivered() const;
  /// Total queries ever admitted on this session.
  [[nodiscard]] std::uint64_t queries_accepted() const;

  /// SUBSCRIBE state: period between pushed metrics events, in seconds
  /// (0 = not subscribed). Read by the server's push loop.
  void set_subscribe_period(double period_s);
  [[nodiscard]] double subscribe_period() const;

 private:
  struct Ready {
    std::uint64_t id = 0;
    std::string line;
    bool holds_slot = true;  ///< false for redelivered (already-acked) events
  };

  /// False when no channel is attached or the write failed (channel dropped).
  bool write_event_locked(const std::string& line);
  void record_ack_locked(std::uint64_t id, const std::string& line);

  const std::string token_;
  const SessionLimits limits_;

  mutable std::mutex mutex_;
  std::map<std::string, std::string> config_;
  struct Upload {
    std::string text;
    ReplayKey digest;  ///< both replay digests of `text`, taken at UPLOAD
  };
  std::map<std::string, Upload> uploads_;
  std::size_t upload_bytes_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t in_flight_ = 0;          ///< admitted, result not yet delivered
  double subscribe_period_s_ = 0.0;    ///< 0 = no metrics subscription
  std::deque<Ready> ready_;            ///< completed events awaiting a channel
  std::shared_ptr<TcpStream> data_;
  std::set<std::uint64_t> inflight_ids_;
  std::map<std::uint64_t, std::string> acked_;  ///< bounded (kMaxAckedKept)
  std::function<void(std::uint64_t, const std::string&)> ack_hook_;
  bool control_attached_ = true;
  std::uint64_t detached_seq_ = 0;
};

}  // namespace ppd::net
