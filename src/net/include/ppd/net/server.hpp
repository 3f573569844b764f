// The ppdd service core: a long-lived TCP server answering pulse-test
// queries for many concurrent clients against one shared backend.
//
// Architecture (PandABlocks-server control/data split):
//  - an accept thread hands each connection to its own reader thread;
//  - the first line selects the channel: CONTROL creates a session, DATA
//    attaches the streaming result channel of an existing session;
//  - control commands mutate session state synchronously; QUERY snapshots
//    the session config into a QueryParams and submits one job to the
//    process-wide ppd::exec pool — queries from every client batch onto
//    the same workers, and nested sweep parallelism degrades to serial on
//    a worker, so throughput scales with concurrent queries;
//  - results are pushed to the session's data channel as JSON events, with
//    bodies byte-identical to single-shot ppdtool output (ppd::net::query);
//  - one process-wide cache::SolveCache means concurrent clients amortize
//    each other's Newton warm-starts and memoized measurements.
//
// Backpressure and overload control are layered:
//  - per-session window (Session::admit; full window/backlog => BUSY);
//  - a process-wide in-flight ceiling (max_inflight_total => BUSY server);
//  - above shed_watermark in-flight jobs the server load-sheds, refusing
//    low-priority kinds (coverage/rmin first, then calibrate) with a BUSY
//    shed reply — deterministic given the same arrival order;
//  - a QUERY may carry deadline_ms: if the deadline passes while the query
//    is still queued it is never executed and its result event reports
//    status "expired"; otherwise the remaining time clamps the query's
//    resil solve/sweep budgets (the SimSettings::budget_seconds path).
//
// Quotas: every per-session resource (upload bytes/count, control line
// length, result backlog) is capped; violations answer "ERR quota.<leaf>"
// and bump net.quota.<leaf> — never a crash or an unbounded allocation.
//
// Crash recovery: with a journal attached, session state (SET / UPLOAD /
// accepted qids / delivered result events) is persisted append-only; a
// restarted server with recover=true rebuilds the sessions detached, and a
// reconnecting client RESUMEs its token, learns which qids were already
// acked, and re-issues the rest idempotently ("QUERY <kind> id=<qid>").
//
// Graceful drain: stop accepting, notify data channels, let in-flight
// queries finish, then — past the grace budget — fire their CancelTokens
// (sweeps with a session-configured checkpoint persist it via ppd::resil
// before the cancellation escapes) and close everything.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ppd/net/journal.hpp"
#include "ppd/net/session.hpp"
#include "ppd/net/socket.hpp"
#include "ppd/obs/metrics.hpp"

namespace ppd::net {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())
  SessionLimits limits;
  /// How long drain() waits for in-flight queries before cancelling them.
  double drain_grace_seconds = 30.0;
  /// Queries whose queue + execute time exceeds this emit a rate-limited
  /// slow-query warning with the query id; <= 0 disables the log.
  double slow_query_seconds = 1.0;
  /// Process-wide cap on in-flight queries across every session; at the
  /// ceiling every QUERY answers "BUSY server". 0 = unlimited.
  std::size_t max_inflight_total = 64;
  /// In-flight jobs at or above this enter load-shedding (low-priority
  /// kinds refused first). 0 = half the ceiling.
  std::size_t shed_watermark = 0;
  /// Crash-safe session journal ("" = off) and its compaction threshold.
  std::string journal_path;
  std::size_t journal_rotate_bytes = 4u << 20;
  /// Replay journal_path on start() and rebuild its sessions (detached,
  /// RESUMEable) instead of starting empty.
  bool recover = false;
  /// Journal-backed sessions that outlive their control connection; the
  /// oldest detached session is evicted beyond this.
  std::size_t max_detached_sessions = 16;
  /// Test hook: sleep this long at worker pickup before the deadline
  /// check, simulating queue delay deterministically. 0 in production.
  double debug_pickup_delay_seconds = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the loopback listener and start the accept thread. With
  /// options.recover, replay the journal first and rebuild its sessions.
  void start();

  /// The bound control port (valid after start()).
  [[nodiscard]] std::uint16_t port() const;

  /// Graceful drain: refuse new connections and queries, push a drain
  /// event to every data channel, wait drain_grace_seconds for in-flight
  /// queries, cancel stragglers, then close all connections. Idempotent;
  /// blocks until the server is fully stopped.
  void drain();

  /// drain() with a zero grace budget (in-flight queries are cancelled
  /// immediately). The destructor calls this.
  void stop();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t queries_accepted = 0;
    std::uint64_t queries_busy = 0;
    std::uint64_t queries_ok = 0;
    std::uint64_t queries_error = 0;
    std::uint64_t queries_cancelled = 0;
    std::uint64_t queries_expired = 0;  ///< deadline passed while queued/run
    std::uint64_t queries_shed = 0;     ///< refused by load-shedding
    std::uint64_t quota_violations = 0;
    std::size_t sessions_active = 0;
    std::size_t jobs_in_flight = 0;
  };
  [[nodiscard]] Stats stats() const;
  /// The STATS reply: one nested JSON object — server totals (including
  /// overload/quota counters and the shed-mode flag), solve-cache totals,
  /// per-query-kind counters plus queue/execute latency histograms (from
  /// this server's own registry, so totals are exact per instance), and a
  /// per-session listing. One line (no embedded newlines).
  [[nodiscard]] std::string stats_json() const;

 private:
  struct Conn {
    std::thread thread;
    std::shared_ptr<TcpStream> stream;
    std::atomic<bool> done{false};
  };

  /// Parsed tail of a QUERY line: positional arg + key=value options.
  struct QuerySpec {
    std::string arg;
    std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
    std::uint64_t reissue_id = 0;   ///< 0 = fresh admission
  };

  void accept_loop();
  void handle_connection(const std::shared_ptr<TcpStream>& stream);
  void handle_control(const std::shared_ptr<TcpStream>& stream);
  void handle_data(const std::shared_ptr<TcpStream>& stream,
                   const std::string& token);
  /// QUERY: validate, admit (quota/overload checks), submit to the exec
  /// pool. Returns the reply.
  std::string submit_query(const std::shared_ptr<Session>& session,
                           const std::string& kind_word,
                           const QuerySpec& spec);
  /// RESUME <token>: rebind this control connection to a detached session.
  std::string resume_session(std::shared_ptr<Session>& session,
                             std::string& token,
                             const std::string& want_token);
  /// Loop-exit bookkeeping: keep a journal-backed session detached (up to
  /// max_detached_sessions) or erase it.
  void release_session(const std::shared_ptr<Session>& session,
                       const std::string& token, bool clean_quit);
  void drain_with_grace(double grace_seconds);
  void reap_finished_connections_locked();
  /// Dedicated thread pushing "metrics" events to subscribed sessions.
  void metrics_push_loop();

  /// Cached handles into kind_registry_, one row per QueryKind. The
  /// registry is server-local (not the process-global one) so STATS totals
  /// count exactly this instance's queries — fresh per Server, exact under
  /// any thread count (the shard-merge contract).
  struct KindMetrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* error = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* busy = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* replayed = nullptr;  ///< answered from a stored result
    obs::Histogram* queue_s = nullptr;
    obs::Histogram* execute_s = nullptr;
  };

  ServerOptions options_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<SessionJournal> journal_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex lifecycle_mutex_;  ///< serializes drain()/stop()

  std::mutex conns_mutex_;
  std::list<std::unique_ptr<Conn>> conns_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_ = 0;
  std::uint64_t next_detach_seq_ = 0;

  // In-flight jobs: counted for drain and the admission ceiling, tokens
  // registered for cancellation.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::size_t jobs_in_flight_ = 0;
  std::map<std::uint64_t, exec::CancelToken> job_tokens_;
  std::uint64_t next_job_ = 0;

  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> queries_accepted_{0};
  std::atomic<std::uint64_t> queries_busy_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_error_{0};
  std::atomic<std::uint64_t> queries_cancelled_{0};
  std::atomic<std::uint64_t> queries_expired_{0};
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> quota_violations_{0};

  obs::Registry kind_registry_;
  std::array<KindMetrics, kQueryKindCount> kind_metrics_;
  obs::Histogram* serialize_hist_ = nullptr;
  std::chrono::steady_clock::time_point started_at_{};

  // Metrics pusher: woken by SUBSCRIBE and by drain/stop.
  std::thread push_thread_;
  std::mutex push_mutex_;
  std::condition_variable push_cv_;
  bool push_stop_ = false;
};

}  // namespace ppd::net
