#include "ppd/net/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/exec/thread_pool.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/obs/log.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::net {

namespace json = util::json;

namespace {

obs::Counter& queries_counter(const char* leaf) {
  return obs::counter(std::string("net.queries.") + leaf);
}

obs::Counter& quota_counter(const std::string& leaf) {
  return obs::counter("net.quota." + leaf);
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Latency spec shared by the queue/execute/serialize histograms: 1 µs to
/// 1000 s, 36 log bins (~6 bins per decade).
constexpr obs::HistogramSpec kLatencySpec{1e-6, 1e3, 36};

/// SUBSCRIBE periods are clamped up to this so a client cannot turn the
/// pusher into a busy loop.
constexpr double kMinSubscribePeriod = 0.05;
/// SUBSCRIBE periods above this (one day) are refused: the pusher turns
/// the period into a steady_clock duration, which a far larger value
/// overflows.
constexpr double kMaxSubscribePeriod = 86400.0;

/// Shed priority: the cheapest interactive kinds are refused last, the
/// heavy sweep kinds first. Deterministic per kind, so the shed decision
/// depends only on the in-flight count at arrival.
int kind_priority(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCoverage:
    case QueryKind::kRmin:
      return 0;  // heavy MC sweeps: shed first
    case QueryKind::kCalibrate:
      return 1;
    default:
      return 2;  // transfer / lint / sta: cheap, keep serving
  }
}

/// Build the result event line. The serialize cost (JSON-escaping the body
/// is the expensive part) is measured first and embedded in the same
/// event, so the head is formatted after the tail.
std::string result_event(std::uint64_t id, std::uint64_t qid, const char* kind,
                         const char* status, int exit_code, double queue_s,
                         double execute_s, const std::string& body,
                         const std::string& error, double* serialize_s_out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string tail;
  if (!body.empty()) {
    tail += ",\"body\":";
    json::append_quoted(tail, body);
  }
  if (!error.empty()) {
    tail += ",\"error\":";
    json::append_quoted(tail, error);
  }
  const double serialize_s =
      seconds_between(t0, std::chrono::steady_clock::now());
  if (serialize_s_out != nullptr) *serialize_s_out = serialize_s;
  // elapsed_s repeats execute_s: pre-breakdown consumers keyed on it.
  char head[288];
  std::snprintf(head, sizeof(head),
                "{\"event\":\"result\",\"id\":%llu,\"qid\":%llu,"
                "\"kind\":\"%s\",\"status\":\"%s\",\"exit_code\":%d,"
                "\"elapsed_s\":%.6f,\"queue_s\":%.6f,\"execute_s\":%.6f,"
                "\"serialize_s\":%.6f",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(qid), kind, status, exit_code,
                execute_s, queue_s, execute_s, serialize_s);
  std::string out = head;
  out += tail;
  out += "}";
  return out;
}

const obs::HistogramSnapshot* find_histogram(const obs::MetricsSnapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t find_counter(const obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

/// Strict non-negative integer parse for protocol option values: rejects
/// empty strings, signs, garbage tails and values that overflow — the
/// hostile-client hardening for every "<key>=<number>" the server accepts.
bool parse_wire_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

Server::Server(ServerOptions options) : options_(options) {
  for (std::size_t k = 0; k < kind_metrics_.size(); ++k) {
    const std::string name = query_kind_name(static_cast<QueryKind>(k));
    KindMetrics& m = kind_metrics_[k];
    m.accepted = &kind_registry_.counter(name + ".accepted");
    m.ok = &kind_registry_.counter(name + ".ok");
    m.error = &kind_registry_.counter(name + ".error");
    m.cancelled = &kind_registry_.counter(name + ".cancelled");
    m.busy = &kind_registry_.counter(name + ".busy");
    m.expired = &kind_registry_.counter(name + ".expired");
    m.shed = &kind_registry_.counter(name + ".shed");
    m.replayed = &kind_registry_.counter(name + ".replayed");
    m.queue_s = &kind_registry_.histogram(name + ".queue_s", kLatencySpec);
    m.execute_s = &kind_registry_.histogram(name + ".execute_s", kLatencySpec);
  }
  serialize_hist_ = &kind_registry_.histogram("serialize_s", kLatencySpec);
}

Server::~Server() { stop(); }

void Server::start() {
  PPD_REQUIRE(!started_.load(), "Server::start called twice");

  listener_ = std::make_unique<TcpListener>(options_.port);
  started_at_ = std::chrono::steady_clock::now();
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  push_thread_ = std::thread([this] { metrics_push_loop(); });
  obs::log_info("net", "ppdd listening",
                {{"port", std::to_string(listener_->port())}});
}

std::uint16_t Server::port() const {
  PPD_REQUIRE(listener_ != nullptr, "Server::port before start()");
  return listener_->port();
}

void Server::accept_loop() {
  for (;;) {
    auto accepted = listener_->accept();
    if (!accepted) return;  // listener closed: drain/stop
    auto stream = std::make_shared<TcpStream>(std::move(*accepted));
    // Every inbound line is length-capped from the first byte: an endless
    // line from a hostile client costs O(limit) memory, not O(sent bytes).
    stream->set_line_limit(options_.limits.max_line_bytes);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    reap_finished_connections_locked();
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    raw->stream = stream;
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw, stream] {
      handle_connection(stream);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void Server::reap_finished_connections_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::handle_connection(const std::shared_ptr<TcpStream>& stream) {
  try {
    const auto first = stream->read_line();
    if (!first) return;
    if (stream->last_line_truncated()) {
      quota_counter("line").add();
      quota_violations_.fetch_add(1, std::memory_order_relaxed);
      stream->write_all(err_reply("quota.line: handshake line too long") +
                        "\n");
      return;
    }
    const auto words = util::split_ws(*first);
    if (words.empty()) {
      stream->write_all(err_reply("empty handshake") + "\n");
      return;
    }
    if (draining_.load()) {
      stream->write_all(err_reply("draining") + "\n");
      return;
    }
    if (util::iequals(words[0], "CONTROL") && words.size() == 1) {
      handle_control(stream);
    } else if (util::iequals(words[0], "DATA") && words.size() == 2) {
      handle_data(stream, words[1]);
    } else {
      stream->write_all(
          err_reply("handshake must be CONTROL or DATA <token>") + "\n");
    }
  } catch (const NetError&) {
    // Peer vanished mid-command; nothing to clean up beyond the stream.
  } catch (const std::exception& e) {
    obs::log_error("net", "connection handler failed", {{"error", e.what()}});
  }
  // The Conn entry keeps the stream alive until the next reap (drain needs
  // the handle to kick stuck peers) — shut it down now so a deliberately
  // dropped client sees EOF immediately, not at the next accept.
  stream->shutdown_both();
}

void Server::handle_control(const std::shared_ptr<TcpStream>& stream) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    const std::string token = "s" + std::to_string(++next_session_);
    session = std::make_shared<Session>(token, options_.limits);
    sessions_[token] = session;
  }
  // The session dies with its control connection, however the loop below
  // ends: QUIT, EOF, or a socket error thrown by a reply write to a peer
  // that vanished. Forget it and wake its data reader; in-flight jobs keep
  // their shared_ptr and finish into the orphaned session.
  struct EndSession {
    Server& server;
    const std::shared_ptr<Session>& session;
    ~EndSession() {
      {
        std::lock_guard<std::mutex> lock(server.sessions_mutex_);
        server.sessions_.erase(session->token());
      }
      session->shutdown();
    }
  } end_session{*this, session};
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("net.sessions.opened").add();
  stream->write_all(ok_reply("ppdd " + std::to_string(kProtocolVersion) +
                             " session " + session->token()) +
                    "\n");

  for (;;) {
    const auto line = stream->read_line();
    if (!line) break;
    if (stream->last_line_truncated()) {
      quota_counter("line").add();
      quota_violations_.fetch_add(1, std::memory_order_relaxed);
      stream->write_all(
          err_reply("quota.line: line exceeds " +
                    std::to_string(session->limits().max_line_bytes) +
                    " bytes") +
          "\n");
      continue;
    }
    if (util::trim(*line).empty()) continue;
    const auto words = util::split_ws(*line);
    std::string reply;
    try {
      const std::string& cmd = words[0];
      if (util::iequals(cmd, "PING")) {
        reply = ok_reply("pong");
      } else if (util::iequals(cmd, "SET")) {
        if (words.size() < 3)
          throw ParseError("usage: SET <key> <value>");
        // The value is everything after the key, so future list-valued
        // settings with spaces stay representable. Search for the key
        // *after* the command word — a key that happens to be a substring
        // of "SET" must not anchor the split inside the command.
        const auto cmd_end = line->find(words[0]) + words[0].size();
        const auto key_pos = line->find(words[1], cmd_end);
        const std::string value(
            util::trim(line->substr(key_pos + words[1].size())));
        session->set(words[1], value);
        reply = ok_reply();
      } else if (util::iequals(cmd, "UPLOAD")) {
        if (words.size() != 3)
          throw ParseError("usage: UPLOAD <name> <nbytes>");
        std::uint64_t n = 0;
        if (!parse_wire_u64(words[2], &n)) {
          // Unparseable/negative/overflowing size: there is no way to know
          // how many payload bytes follow, so the stream cannot be
          // resynced — answer and drop the connection.
          quota_counter("size").add();
          quota_violations_.fetch_add(1, std::memory_order_relaxed);
          stream->write_all(
              err_reply("quota.size: UPLOAD size must be a non-negative "
                        "byte count, got '" +
                        words[2] + "'") +
              "\n");
          break;
        }
        if (n > session->limits().max_upload_bytes) {
          // Over-quota but well-formed: drain the announced payload in
          // bounded chunks (never allocating it) so the control stream
          // stays in sync and the session survives the violation.
          quota_counter("upload_bytes").add();
          quota_violations_.fetch_add(1, std::memory_order_relaxed);
          if (!stream->discard_exact(static_cast<std::size_t>(n))) break;
          reply = err_reply(
              "quota.upload_bytes: upload of " + words[2] +
              " bytes exceeds the session budget (" +
              std::to_string(session->limits().max_upload_bytes) + ")");
        } else {
          std::string payload;
          if (!stream->read_exact(payload, static_cast<std::size_t>(n)))
            break;  // EOF mid-upload: drop the connection
          session->upload(words[1], std::move(payload));
          reply = ok_reply("upload " + words[1] + " " + words[2]);
        }
      } else if (util::iequals(cmd, "QUERY")) {
        if (words.size() < 2)
          throw ParseError("usage: QUERY <kind> [<arg>] [deadline_ms=<N>]");
        QuerySpec spec;
        for (std::size_t w = 2; w < words.size(); ++w) {
          const std::string& word = words[w];
          if (util::starts_with(word, "deadline_ms=")) {
            const std::string v = word.substr(12);
            if (!parse_wire_u64(v, &spec.deadline_ms) || spec.deadline_ms == 0)
              throw ParseError("deadline_ms needs a positive integer, got '" +
                               v + "'");
          } else if (spec.arg.empty() && word.find('=') == std::string::npos) {
            spec.arg = word;
          } else {
            throw ParseError("usage: QUERY <kind> [<arg>] [deadline_ms=<N>]");
          }
        }
        reply = submit_query(session, words[1], spec);
      } else if (util::iequals(cmd, "STATS")) {
        reply = stats_json();
      } else if (util::iequals(cmd, "SUBSCRIBE")) {
        if (words.size() > 2)
          throw ParseError("usage: SUBSCRIBE [<period_s>]");
        double period = 1.0;
        if (words.size() == 2) {
          period = util::parse_finite("period", words[1]);
          if (period > kMaxSubscribePeriod)
            throw ParseError("SUBSCRIBE period must be at most 86400 s, got: " +
                             words[1]);
        }
        if (period > 0.0) {
          period = std::max(period, kMinSubscribePeriod);
          session->set_subscribe_period(period);
          push_cv_.notify_all();  // first snapshot goes out immediately
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%g", period);
          reply = ok_reply(std::string("subscribe ") + buf);
        } else {
          session->set_subscribe_period(0.0);
          reply = ok_reply("subscribe off");
        }
      } else if (util::iequals(cmd, "TRACE")) {
        std::ostringstream dump;
        obs::TraceSession::global().write_chrome_trace(dump);
        const std::string payload = dump.str();
        stream->write_all(ok_reply("trace " + std::to_string(payload.size())) +
                          "\n");
        stream->write_all(payload);
        continue;  // reply already written (header + raw payload)
      } else if (util::iequals(cmd, "QUIT")) {
        stream->write_all(ok_reply("bye") + "\n");
        break;
      } else {
        throw ParseError("unknown command: " + cmd);
      }
    } catch (const NetError&) {
      throw;  // socket-level failure: drop the connection, not the server
    } catch (const QuotaError& e) {
      quota_counter(e.leaf()).add();
      quota_violations_.fetch_add(1, std::memory_order_relaxed);
      reply = err_reply(e.what());
    } catch (const std::exception& e) {
      // ParseError from SET/QUERY validation, but also anything unexpected:
      // a bad command must never take the control loop down.
      reply = err_reply(e.what());
    }
    stream->write_all(reply + "\n");
  }
}

void Server::handle_data(const std::shared_ptr<TcpStream>& stream,
                         const std::string& token) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    const auto it = sessions_.find(token);
    if (it != sessions_.end()) session = it->second;
  }
  if (!session) {
    stream->write_all(err_reply("unknown session token") + "\n");
    return;
  }
  stream->write_all(ok_reply("stream") + "\n");
  // The hello is written inside attach_data's critical section so it
  // precedes any buffered result events AND no concurrent notify()/deliver()
  // can fire after the client sees the hello but before the channel is
  // attached (a metrics frame dropped in that gap would skip a seq).
  session->attach_data(
      stream, "{\"event\":\"hello\",\"session\":" + json::quote(token) + "}");
  // Server-push channel: the client never sends; block until it hangs up
  // (or drain shuts the socket down under us).
  while (stream->read_line()) {
  }
  session->detach_data();
}

std::string Server::submit_query(const std::shared_ptr<Session>& session,
                                 const std::string& kind_word,
                                 const QuerySpec& spec) {
  if (draining_.load()) return err_reply("draining");
  const QueryKind kind = query_kind_from_string(kind_word);
  KindMetrics& km = kind_metrics_[static_cast<std::size_t>(kind)];

  std::optional<ReplayKey> replay;
  QueryParams params =
      session->make_params(kind, spec.arg, spec.deadline_ms, replay);  // throws

  // Process-wide admission: ceiling, then the load-shedding watermark.
  // Reserving the job slot inside the same critical section keeps the
  // ceiling exact under concurrent submits.
  std::uint64_t job_key = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const std::size_t ceiling = options_.max_inflight_total;
    if (ceiling > 0) {
      std::size_t watermark = options_.shed_watermark > 0
                                  ? options_.shed_watermark
                                  : ceiling / 2;
      watermark = std::min(watermark, ceiling);
      // Graduated shedding: low priority refused from the watermark,
      // medium priority from halfway between watermark and ceiling.
      const std::size_t high = watermark + (ceiling - watermark + 1) / 2;
      const int priority = kind_priority(kind);
      if (jobs_in_flight_ >= ceiling) {
        queries_busy_.fetch_add(1, std::memory_order_relaxed);
        queries_counter("busy").add();
        quota_counter("inflight").add();
        quota_violations_.fetch_add(1, std::memory_order_relaxed);
        km.busy->add();
        return "BUSY server (in-flight ceiling " + std::to_string(ceiling) +
               ")";
      }
      if ((priority == 0 && jobs_in_flight_ >= watermark) ||
          (priority <= 1 && jobs_in_flight_ >= high)) {
        queries_shed_.fetch_add(1, std::memory_order_relaxed);
        queries_counter("shed").add();
        km.shed->add();
        return "BUSY shed (overload: " + std::to_string(jobs_in_flight_) +
               " in flight >= watermark " + std::to_string(watermark) + ")";
      }
    }
    job_key = ++next_job_;
    job_tokens_[job_key] = params.cancel;
    ++jobs_in_flight_;
  }

  const auto release_job = [this, job_key] {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job_tokens_.erase(job_key);
    --jobs_in_flight_;
    jobs_cv_.notify_all();
  };

  // Per-session admission (window + backlog quota).
  bool backlog_full = false;
  const std::uint64_t id = session->admit(&backlog_full);
  if (id == 0 && backlog_full) {
    release_job();
    quota_counter("backlog").add();
    quota_violations_.fetch_add(1, std::memory_order_relaxed);
    queries_busy_.fetch_add(1, std::memory_order_relaxed);
    queries_counter("busy").add();
    km.busy->add();
    return "BUSY backlog (" + std::to_string(session->limits().max_backlog) +
           " undelivered results; attach/drain the data channel)";
  }
  if (id == 0) {
    release_job();
    queries_busy_.fetch_add(1, std::memory_order_relaxed);
    queries_counter("busy").add();
    km.busy->add();
    return "BUSY";
  }
  queries_accepted_.fetch_add(1, std::memory_order_relaxed);
  queries_counter("accepted").add();
  km.accepted->add();

  // job_key doubles as the query id (qid): process-unique, echoed in the
  // result event, bound as the obs query context so every span/metric the
  // query triggers — including pool fan-out — is attributable to it.
  const auto admitted = std::chrono::steady_clock::now();
  const std::uint64_t deadline_ms = spec.deadline_ms;
  exec::ThreadPool::global().submit([this, session, params, replay, kind, id,
                                     job_key, admitted, deadline_ms, &km] {
    const char* kind_name = query_kind_name(kind);
    if (options_.debug_pickup_delay_seconds > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.debug_pickup_delay_seconds));
    const auto start = std::chrono::steady_clock::now();
    const double queue_s = seconds_between(admitted, start);
    const char* status = "ok";
    int exit_code = 0;
    std::string body;
    std::string error;
    // deadline_ms counts from admission: expired while queued => the query
    // is shed at pickup (status "expired", no execution); otherwise the
    // remaining time clamps the resil budgets, which flow into
    // SimSettings::budget_seconds via run_query.
    const double remaining_s =
        deadline_ms == 0
            ? 0.0
            : static_cast<double>(deadline_ms) * 1e-3 - queue_s;
    if (deadline_ms != 0 && remaining_s <= 0.0) {
      status = "expired";
      exit_code = 1;
      error = "deadline of " + std::to_string(deadline_ms) +
              " ms expired after " + json::number(queue_s) + " s in queue";
      queries_expired_.fetch_add(1, std::memory_order_relaxed);
      queries_counter("expired").add();
      km.expired->add();
    } else {
      QueryParams p = params;
      if (deadline_ms != 0) {
        p.solve_budget = p.solve_budget > 0.0
                             ? std::min(p.solve_budget, remaining_s)
                             : remaining_s;
        p.sweep_budget = p.sweep_budget > 0.0
                             ? std::min(p.sweep_budget, remaining_s)
                             : remaining_s;
      }
      const obs::ScopedQueryContext qctx(job_key);
      try {
        const obs::Span span(std::string("net.query.") + kind_name);
        // A repeated query is answered with the exact bytes its first
        // successful run produced; errors are never stored.
        std::optional<QueryResult> hit;
        if (replay) hit = find_replay(*replay);
        if (hit) {
          queries_counter("replayed").add();
          km.replayed->add();
        }
        QueryResult result = hit ? std::move(*hit) : run_query(kind, p);
        if (replay && !hit) store_replay(*replay, result);
        exit_code = result.exit_code;
        body = std::move(result.body);
        queries_ok_.fetch_add(1, std::memory_order_relaxed);
        queries_counter("ok").add();
        km.ok->add();
      } catch (const exec::CancelledError& e) {
        status = "cancelled";
        exit_code = 1;
        error = e.what();
        queries_cancelled_.fetch_add(1, std::memory_order_relaxed);
        queries_counter("cancelled").add();
        km.cancelled->add();
      } catch (const TimeoutError& e) {
        // With a deadline attached, a budget expiry mid-run is the deadline
        // firing — report it as expired, distinct from a numerical error.
        status = deadline_ms != 0 ? "expired" : "error";
        exit_code = 1;
        error = e.what();
        if (deadline_ms != 0) {
          queries_expired_.fetch_add(1, std::memory_order_relaxed);
          queries_counter("expired").add();
          km.expired->add();
        } else {
          queries_error_.fetch_add(1, std::memory_order_relaxed);
          queries_counter("error").add();
          km.error->add();
        }
      } catch (const std::exception& e) {
        status = "error";
        exit_code = 1;
        error = e.what();
        queries_error_.fetch_add(1, std::memory_order_relaxed);
        queries_counter("error").add();
        km.error->add();
      }
    }
    const double execute_s =
        seconds_between(start, std::chrono::steady_clock::now());
    obs::histogram("net.query.wall_s").record(execute_s);
    km.queue_s->record(queue_s);
    km.execute_s->record(execute_s);
    if (options_.slow_query_seconds > 0.0 &&
        queue_s + execute_s >= options_.slow_query_seconds) {
      static obs::RateLimit slow_rl(5, 1.0);
      if (slow_rl.allow())
        obs::log_warn("net", "slow query",
                      {{"qid", std::to_string(job_key)},
                       {"session", session->token()},
                       {"id", std::to_string(id)},
                       {"kind", kind_name},
                       {"status", status},
                       {"queue_s", json::number(queue_s)},
                       {"execute_s", json::number(execute_s)}});
    }
    double serialize_s = 0.0;
    std::string event = result_event(id, job_key, kind_name, status, exit_code,
                                     queue_s, execute_s, body, error,
                                     &serialize_s);
    serialize_hist_->record(serialize_s);
    session->deliver(std::move(event));
    {
      // Notify while holding the mutex: the drain waiter cannot return (and
      // the Server cannot be destroyed under this cv) until this worker has
      // fully left both the notify and the lock.
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      job_tokens_.erase(job_key);
      --jobs_in_flight_;
      jobs_cv_.notify_all();
    }
  });
  return ok_reply(std::to_string(id));
}

void Server::drain() { drain_with_grace(options_.drain_grace_seconds); }

void Server::stop() { drain_with_grace(0.0); }

void Server::drain_with_grace(double grace_seconds) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!started_.load() || stopped_.load()) return;
  draining_.store(true);

  // 0. Stop the metrics pusher first so no events race the teardown.
  {
    std::lock_guard<std::mutex> lock(push_mutex_);
    push_stop_ = true;
  }
  push_cv_.notify_all();
  if (push_thread_.joinable()) push_thread_.join();

  // 1. No new connections; the accept loop unblocks and exits.
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Tell every attached data channel the server is going away, so
  // clients stop submitting and wait for their last results.
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [token, session] : sessions_)
      session->notify("{\"event\":\"drain\"}");
  }

  // 3. Give in-flight queries the grace budget to finish...
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait_for(
        lock, std::chrono::duration<double>(grace_seconds),
        [this] { return jobs_in_flight_ == 0; });
    // 4. ...then cancel the stragglers. A cancelled coverage sweep with a
    // session-configured checkpoint persists it (resil::guarded_map) before
    // the CancelledError escapes, so the work is resumable.
    for (auto& [key, token] : job_tokens_) token.cancel();
    jobs_cv_.wait(lock, [this] { return jobs_in_flight_ == 0; });
  }

  // 5. Close every connection (control readers and data pushers) and join.
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [token, session] : sessions_) session->shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) conn->stream->shutdown_both();
    for (auto& conn : conns_)
      if (conn->thread.joinable()) conn->thread.join();
    conns_.clear();
  }
  std::size_t undelivered = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [token, session] : sessions_)
      undelivered += session->undelivered();
    sessions_.clear();
  }
  stopped_.store(true);
  obs::log_info(
      "net", "ppdd drained",
      {{"completed", std::to_string(queries_ok_.load())},
       {"errors", std::to_string(queries_error_.load())},
       {"cancelled", std::to_string(queries_cancelled_.load())},
       {"expired", std::to_string(queries_expired_.load())},
       {"shed", std::to_string(queries_shed_.load())},
       {"undelivered", std::to_string(undelivered)}});
}

void Server::metrics_push_loop() {
  using clock = std::chrono::steady_clock;
  struct PushState {
    std::uint64_t seq = 0;
    obs::MetricsSnapshot last;
    clock::time_point last_time{};
    clock::time_point next_due{};
  };
  std::map<std::string, PushState> states;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(push_mutex_);
      if (push_stop_) return;
    }
    const auto now = clock::now();
    auto next_wake = now + std::chrono::seconds(1);
    bool any = false;
    std::vector<std::shared_ptr<Session>> due;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (auto it = states.begin(); it != states.end();) {
        // Forget sessions that closed or unsubscribed.
        const auto sit = sessions_.find(it->first);
        if (sit == sessions_.end() || sit->second->subscribe_period() <= 0.0)
          it = states.erase(it);
        else
          ++it;
      }
      for (auto& [token, session] : sessions_) {
        if (session->subscribe_period() <= 0.0) continue;
        any = true;
        const auto st = states.find(token);
        if (st == states.end() || st->second.next_due <= now)
          due.push_back(session);  // new subscriber: first push immediately
        else
          next_wake = std::min(next_wake, st->second.next_due);
      }
    }
    for (const auto& session : due) {
      const double period = session->subscribe_period();
      if (period <= 0.0) continue;  // unsubscribed since the scan
      PushState& st = states[session->token()];
      const obs::MetricsSnapshot cur = kind_registry_.snapshot();
      const double interval_s =
          st.seq == 0 ? 0.0 : seconds_between(st.last_time, now);
      const obs::MetricsSnapshot delta = obs::snapshot_delta(st.last, cur);
      ++st.seq;
      std::ostringstream os;
      os << "{\"event\":\"metrics\",\"seq\":" << st.seq
         << ",\"interval_s\":" << json::number(interval_s)
         << ",\"stats\":" << stats_json() << ",\"interval\":{";
      for (std::size_t k = 0; k < kQueryKindCount; ++k) {
        const std::string name = query_kind_name(static_cast<QueryKind>(k));
        const obs::HistogramSnapshot* ex =
            find_histogram(delta, name + ".execute_s");
        const obs::HistogramSnapshot* qu =
            find_histogram(delta, name + ".queue_s");
        if (k != 0) os << ',';
        os << json::quote(name)
           << ":{\"ok\":" << find_counter(delta, name + ".ok")
           << ",\"execute_s_count\":" << (ex != nullptr ? ex->count : 0)
           << ",\"execute_s_sum\":"
           << json::number(ex != nullptr ? ex->sum : 0.0)
           << ",\"queue_s_sum\":"
           << json::number(qu != nullptr ? qu->sum : 0.0)
           << '}';
      }
      os << "}}";
      session->notify(os.str());
      st.last = cur;
      st.last_time = now;
      st.next_due =
          now + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(period));
      next_wake = std::min(next_wake, st.next_due);
    }
    std::unique_lock<std::mutex> lock(push_mutex_);
    if (push_stop_) return;
    if (any)
      push_cv_.wait_until(lock, next_wake);
    else
      // Idle: nothing subscribed. Wake on SUBSCRIBE (notified) or poll
      // slowly as a backstop.
      push_cv_.wait_for(lock, std::chrono::milliseconds(250));
  }
}

Server::Stats Server::stats() const {
  Stats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.queries_accepted = queries_accepted_.load(std::memory_order_relaxed);
  s.queries_busy = queries_busy_.load(std::memory_order_relaxed);
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_error = queries_error_.load(std::memory_order_relaxed);
  s.queries_cancelled = queries_cancelled_.load(std::memory_order_relaxed);
  s.queries_expired = queries_expired_.load(std::memory_order_relaxed);
  s.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  s.quota_violations = quota_violations_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    s.sessions_active = sessions_.size();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    s.jobs_in_flight = jobs_in_flight_;
  }
  return s;
}

std::string Server::stats_json() const {
  const Stats s = stats();
  const auto cache = cache::solve_cache().totals();
  const obs::MetricsSnapshot snap = kind_registry_.snapshot();
  const double uptime_s =
      started_.load() ? seconds_between(started_at_,
                                        std::chrono::steady_clock::now())
                      : 0.0;
  const std::uint64_t lookups = cache.hits + cache.misses;
  const double hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  const std::size_t ceiling = options_.max_inflight_total;
  const std::size_t watermark =
      options_.shed_watermark > 0
          ? std::min(options_.shed_watermark, ceiling)
          : ceiling / 2;

  std::ostringstream os;
  os << "{\"server\":{\"sessions_active\":" << s.sessions_active
     << ",\"sessions_opened\":" << s.sessions_opened
     << ",\"queries_accepted\":" << s.queries_accepted
     << ",\"queries_busy\":" << s.queries_busy
     << ",\"queries_ok\":" << s.queries_ok
     << ",\"queries_error\":" << s.queries_error
     << ",\"queries_cancelled\":" << s.queries_cancelled
     << ",\"queries_expired\":" << s.queries_expired
     << ",\"queries_shed\":" << s.queries_shed
     << ",\"quota_violations\":" << s.quota_violations
     << ",\"jobs_in_flight\":" << s.jobs_in_flight
     << ",\"inflight_ceiling\":" << ceiling
     << ",\"shed_watermark\":" << watermark << ",\"shed_mode\":"
     << (ceiling > 0 && s.jobs_in_flight >= watermark ? "true" : "false")
     << ",\"draining\":" << (draining_.load() ? "true" : "false")
     << ",\"uptime_s\":" << json::number(uptime_s);
  os << ",\"serialize_s\":";
  {
    const obs::HistogramSnapshot* ser = find_histogram(snap, "serialize_s");
    if (ser != nullptr)
      obs::write_histogram_json(os, *ser);
    else
      os << "{}";
  }
  os << "},\"cache\":{\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses << ",\"entries\":" << cache.entries
     << ",\"bytes\":" << cache.bytes
     << ",\"hit_ratio\":" << json::number(hit_ratio) << "},\"kinds\":{";
  for (std::size_t k = 0; k < kQueryKindCount; ++k) {
    const std::string name = query_kind_name(static_cast<QueryKind>(k));
    if (k != 0) os << ',';
    os << json::quote(name)
       << ":{\"accepted\":" << find_counter(snap, name + ".accepted")
       << ",\"ok\":" << find_counter(snap, name + ".ok")
       << ",\"error\":" << find_counter(snap, name + ".error")
       << ",\"cancelled\":" << find_counter(snap, name + ".cancelled")
       << ",\"busy\":" << find_counter(snap, name + ".busy")
       << ",\"expired\":" << find_counter(snap, name + ".expired")
       << ",\"shed\":" << find_counter(snap, name + ".shed")
       << ",\"replayed\":" << find_counter(snap, name + ".replayed")
       << ",\"queue_s\":";
    const obs::HistogramSnapshot* qu = find_histogram(snap, name + ".queue_s");
    if (qu != nullptr)
      obs::write_histogram_json(os, *qu);
    else
      os << "{}";
    os << ",\"execute_s\":";
    const obs::HistogramSnapshot* ex =
        find_histogram(snap, name + ".execute_s");
    if (ex != nullptr)
      obs::write_histogram_json(os, *ex);
    else
      os << "{}";
    os << '}';
  }
  os << "},\"sessions\":[";
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    bool first = true;
    for (const auto& [token, session] : sessions_) {
      if (!first) os << ',';
      first = false;
      os << "{\"token\":" << json::quote(token)
         << ",\"in_flight\":" << session->in_flight()
         << ",\"window\":" << session->limits().max_queue
         << ",\"accepted\":" << session->queries_accepted()
         << ",\"undelivered\":" << session->undelivered()
         << ",\"subscribed\":"
         << (session->subscribe_period() > 0.0 ? "true" : "false") << '}';
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace ppd::net
