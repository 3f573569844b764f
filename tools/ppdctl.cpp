// ppdctl — client for the ppdd pulse-test service.
//
//   ppdctl [--port=N] ping
//       One round trip; prints the server's reply.
//
//   ppdctl [--port=N] stats
//       Print the server's one-line stats JSON (queries, sessions, solve
//       cache totals).
//
//   ppdctl [--port=N] query <kind> [--key=value ...]
//       One-shot query: open a session, SET every flag, run the query, and
//       print the result body — byte-identical to the equivalent ppdtool
//       invocation — exiting with the query's exit code.
//       kind: transfer|calibrate|coverage|rmin|lint|sta
//       `query lint <file>` uploads the local file first.
//       `query sta [<file>]` optionally uploads a .bench file; without one
//       the server uses its `bench` config path or the bundled benchmark.
//
//   ppdctl [--port=N] batch
//       Scripted session from stdin, one command per line:
//         set <key> <value>
//         upload <name> <local-path>
//         query <kind> [<arg>]     -> prints the raw result event JSON
//         stats                    -> prints the stats JSON
//         ping
//         quit
//       Lines starting with '#' and blank lines are skipped. Exits non-zero
//       if any query failed.
//
//   ppdctl [--port=N] subscribe [--interval=S] [--count=N]
//       SUBSCRIBE to the server's metrics stream and print the raw
//       "metrics" event JSON lines (one per line; machine-friendly). Stops
//       after N events when --count is given, otherwise streams until the
//       server goes away.
//
//   ppdctl [--port=N] top [--interval=S] [--count=N]
//       Live view over the same stream: a refreshing per-query-kind table
//       (totals, qps, latency percentiles) plus server/cache summary
//       lines. Clears the screen between frames on a terminal.
//
//   ppdctl [--port=N] trace <out.json>
//       Pull the server's Chrome trace-event dump of recent served-query
//       spans (load in chrome://tracing or ui.perfetto.dev; result events'
//       "qid" matches the spans' args.qid).
//
// Resilience flags (global, any mode):
//
//   --retries=N        extra attempts after a failed connect, a BUSY
//                      submit, or a dropped connection mid-batch
//                      (default 0 = fail fast)
//   --retry-backoff=s  base backoff before a retry, doubling per attempt
//                      (default 0.2)
//   --resume=TOKEN     RESUME this session token instead of opening a
//                      fresh session (journal-backed servers only); batch
//                      mode re-issues unacknowledged queries idempotently
//                      by qid after a reconnect, so a killed-and-recovered
//                      ppdd yields the same result set as an uninterrupted
//                      run.
#include <unistd.h>

#include <chrono>
#include <thread>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ppd/net/client.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/resil/retry.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace {

using namespace ppd;

/// Where and how persistently to reach the server (the global flags).
struct Endpoint {
  std::uint16_t port = net::kDefaultPort;
  int retries = 0;          ///< extra attempts after the first
  double backoff_s = 0.2;   ///< base backoff, doubled per attempt
};

void backoff_sleep(const Endpoint& ep, int attempt) {
  if (attempt <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      ep.backoff_s * static_cast<double>(1 << std::min(attempt - 1, 8))));
}

/// A ServiceError that means "the connection is gone" (retry/resume-able),
/// as opposed to a definitive ERR reply from the server.
bool is_disconnect(const net::ServiceError& e) {
  const std::string what = e.what();
  return what.find("closed") != std::string::npos;
}

/// Connect (or RESUME) with the --retries/--retry-backoff ladder. A
/// definitive server refusal (ERR, e.g. an unresumable token) is not
/// retried — only socket-level failures and closed streams are.
net::Client connect_with_retry(const Endpoint& ep,
                               const std::string& resume_token) {
  std::optional<net::Client> client;
  std::string last_error;
  const resil::RetryPolicy policy{
      "ppdctl.connect", {{"connect", 1 + std::max(ep.retries, 0)}}};
  const auto outcome = resil::run_ladder(
      policy,
      [&](const resil::RetryRung&, int attempt) {
        backoff_sleep(ep, attempt);
        try {
          client = resume_token.empty()
                       ? net::Client::connect(ep.port)
                       : net::Client::resume(ep.port, resume_token);
          return true;
        } catch (const net::NetError& e) {
          last_error = e.what();
          return false;
        } catch (const net::ServiceError& e) {
          if (!is_disconnect(e)) throw;
          last_error = e.what();
          return false;
        }
      },
      resil::Deadline::never(), "ppdctl connect");
  if (!outcome.success)
    throw net::ServiceError("cannot reach ppdd on port " +
                            std::to_string(ep.port) + " after " +
                            std::to_string(outcome.total_attempts) +
                            " attempts: " + last_error);
  return std::move(*client);
}

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw ParseError("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int cmd_query(net::Client& client, int argc, char** argv) {
  if (argc < 1)
    throw ParseError(
        "query needs a kind (transfer|calibrate|coverage|rmin|lint|sta)");
  const std::string kind = argv[0];
  std::string arg;
  int flags_from = 1;
  if (util::iequals(kind, "lint")) {
    if (argc < 2) throw ParseError("query lint needs a file");
    const std::string path = argv[1];
    arg = base_name(path);
    client.upload(arg, slurp_file(path));
    flags_from = 2;
  } else if (util::iequals(kind, "sta") && argc >= 2 &&
             !util::starts_with(argv[1], "--")) {
    const std::string path = argv[1];
    arg = base_name(path);
    client.upload(arg, slurp_file(path));
    flags_from = 2;
  }
  for (int i = flags_from; i < argc; ++i) {
    const std::string flag = argv[i];
    if (!util::starts_with(flag, "--"))
      throw ParseError("expected --key=value, got: " + flag);
    const auto eq = flag.find('=');
    const std::string key = flag.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const std::string value =
        eq == std::string::npos ? "1" : flag.substr(eq + 1);
    client.set(key, value);
  }
  const net::Client::Result res = client.run(kind, arg);
  if (res.status != "ok") {
    std::cerr << "ppdctl: query " << res.status << ": " << res.error << "\n";
    return res.status == "cancelled" ? 3 : 1;
  }
  std::cout << res.body;
  return res.exit_code;
}

/// Parse the shared subscribe/top flags (--interval=S, --count=N).
void parse_stream_flags(int argc, char** argv, double& interval,
                        long long& count) {
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (util::starts_with(flag, "--interval=")) {
      interval = std::stod(flag.substr(std::string("--interval=").size()));
    } else if (util::starts_with(flag, "--count=")) {
      count = std::stoll(flag.substr(std::string("--count=").size()));
    } else {
      throw ParseError("unknown flag: " + flag +
                       " (expected --interval=S or --count=N)");
    }
  }
}

bool is_metrics_event(const std::string& line) {
  return util::starts_with(line, "{\"event\":\"metrics\"");
}

int cmd_subscribe(net::Client& client, int argc, char** argv) {
  double interval = 1.0;
  long long count = -1;
  parse_stream_flags(argc, argv, interval, count);
  client.subscribe(interval);
  long long seen = 0;
  while (count < 0 || seen < count) {
    const auto line = client.next_event();
    if (!line) break;
    if (!is_metrics_event(*line)) continue;
    std::cout << *line << "\n" << std::flush;
    ++seen;
  }
  // Open-ended streams end when the server drains — that is a success.
  return count < 0 || seen >= count ? 0 : 1;
}

double hist_number(const util::json::Value& hist, const char* key) {
  const util::json::Value* v = hist.find(key);
  return v != nullptr && v->kind == util::json::Value::Kind::kNumber
             ? v->as_number()
             : 0.0;
}

void render_top_frame(const util::json::Value& ev, bool clear) {
  const util::json::Value& stats = ev.at("stats");
  const util::json::Value& server = stats.at("server");
  const util::json::Value& cache = stats.at("cache");
  const util::json::Value& kinds = stats.at("kinds");
  const util::json::Value& interval = ev.at("interval");
  const double dt = ev.at("interval_s").as_number();

  std::ostringstream os;
  if (clear) os << "\x1b[H\x1b[J";  // home + clear: refresh in place
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "ppdd up %.0fs  sessions %.0f  in-flight %.0f  "
                "accepted %.0f ok %.0f err %.0f cxl %.0f busy %.0f\n",
                server.at("uptime_s").as_number(),
                server.at("sessions_active").as_number(),
                server.at("jobs_in_flight").as_number(),
                server.at("queries_accepted").as_number(),
                server.at("queries_ok").as_number(),
                server.at("queries_error").as_number(),
                server.at("queries_cancelled").as_number(),
                server.at("queries_busy").as_number());
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "cache hits %.0f misses %.0f hit-ratio %.2f  entries %.0f\n",
                cache.at("hits").as_number(), cache.at("misses").as_number(),
                cache.at("hit_ratio").as_number(),
                cache.at("entries").as_number());
  os << buf;
  std::snprintf(buf, sizeof(buf), "%-10s %8s %6s %6s %8s %10s %10s\n", "kind",
                "ok", "err", "cxl", "qps", "p50 ms", "p99 ms");
  os << buf;
  for (const auto& [name, kind] : kinds.members) {
    const util::json::Value& exec_hist = kind.at("execute_s");
    double qps = 0.0;
    if (const util::json::Value* iv = interval.find(name);
        iv != nullptr && dt > 0.0)
      qps = iv->at("ok").as_number() / dt;
    std::snprintf(buf, sizeof(buf),
                  "%-10s %8.0f %6.0f %6.0f %8.1f %10.2f %10.2f\n",
                  name.c_str(), kind.at("ok").as_number(),
                  kind.at("error").as_number(),
                  kind.at("cancelled").as_number(), qps,
                  hist_number(exec_hist, "p50") * 1e3,
                  hist_number(exec_hist, "p99") * 1e3);
    os << buf;
  }
  std::cout << os.str() << std::flush;
}

int cmd_top(net::Client& client, int argc, char** argv) {
  double interval = 1.0;
  long long count = -1;
  parse_stream_flags(argc, argv, interval, count);
  client.subscribe(interval);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  long long seen = 0;
  while (count < 0 || seen < count) {
    const auto line = client.next_event();
    if (!line) break;
    if (!is_metrics_event(*line)) continue;
    render_top_frame(util::json::parse(*line), tty);
    ++seen;
  }
  return count < 0 || seen >= count ? 0 : 1;
}

int cmd_trace(net::Client& client, int argc, char** argv) {
  if (argc < 1) throw ParseError("usage: ppdctl trace <out.json>");
  const std::string path = argv[0];
  const std::string dump = client.trace_dump();
  std::ofstream os(path, std::ios::binary);
  if (!os) throw ParseError("cannot open " + path + " for writing");
  os << dump;
  if (!os) throw ParseError("short write to " + path);
  std::cerr << "ppdctl: wrote " << dump.size() << " bytes to " << path
            << "\n";
  return 0;
}

/// One batch query with the full recovery ladder: BUSY backs off and
/// retries; a dropped connection reconnects, RESUMEs the same session and
/// re-issues the query by qid — the server dedups ids it already ran (or
/// redelivers the journaled result for acked ones), so a crash/restart
/// cycle cannot double-execute or lose a query.
net::Client::Result run_batch_query(net::Client& client, const Endpoint& ep,
                                    const std::string& kind,
                                    const std::string& arg) {
  std::uint64_t issued_id = 0;
  net::Client::Result res;
  bool got = false;
  std::string last_error = "BUSY";
  const resil::RetryPolicy policy{
      "ppdctl.query", {{"submit", 1 + std::max(ep.retries, 0)}}};
  const auto outcome = resil::run_ladder(
      policy,
      [&](const resil::RetryRung&, int attempt) {
        backoff_sleep(ep, attempt);
        try {
          net::Client::SubmitOptions opts;
          opts.id = issued_id;  // 0 on the first attempt = fresh admission
          const auto sub = client.submit(kind, arg, opts);
          if (sub.busy) {
            last_error = sub.reply;
            return false;
          }
          issued_id = sub.id;
          res = client.wait(sub.id);
          got = true;
          return true;
        } catch (const net::NetError& e) {
          last_error = e.what();
        } catch (const net::ServiceError& e) {
          if (!is_disconnect(e)) throw;
          last_error = e.what();
        }
        // Connection lost mid-query: reconnect and RESUME this session.
        // The next attempt re-issues `issued_id` idempotently.
        const std::string token = client.session();
        try {
          client = connect_with_retry(ep, token);
        } catch (const net::ServiceError& e) {
          last_error = e.what();  // not resumable (no journal / evicted)
        }
        return false;
      },
      resil::Deadline::never(), "ppdctl query");
  if (!got)
    throw net::ServiceError("query " + kind + " failed after " +
                            std::to_string(outcome.total_attempts) +
                            " attempts: " + last_error);
  return res;
}

int cmd_batch(net::Client& client, const Endpoint& ep) {
  int worst = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto words = util::split_ws(trimmed);
    const std::string& cmd = words[0];
    try {
      if (util::iequals(cmd, "quit")) {
        break;
      } else if (util::iequals(cmd, "ping")) {
        std::cout << client.ping() << "\n";
      } else if (util::iequals(cmd, "stats")) {
        std::cout << client.stats() << "\n";
      } else if (util::iequals(cmd, "set") && words.size() >= 3) {
        // The value is everything after the key, verbatim.
        const auto key_pos = line.find(words[1], line.find(words[0]) +
                                                     words[0].size());
        const auto value =
            util::trim(line.substr(key_pos + words[1].size()));
        client.set(words[1], std::string(value));
      } else if (util::iequals(cmd, "upload") && words.size() == 3) {
        client.upload(words[1], slurp_file(words[2]));
      } else if (util::iequals(cmd, "query") && words.size() >= 2) {
        const std::string arg = words.size() > 2 ? words[2] : std::string();
        const net::Client::Result res =
            run_batch_query(client, ep, words[1], arg);
        std::cout << res.raw << "\n";
        if (res.status != "ok" || res.exit_code != 0) worst = 1;
      } else {
        throw ParseError("unknown batch command: " + std::string(trimmed));
      }
    } catch (const net::ServiceError& e) {
      std::cerr << "ppdctl: " << e.what() << "\n";
      worst = 1;
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  ppd::obs::ScopedRun run(ppd::obs::extract_run_options(argc, argv));
  try {
    // Strip the global flags; everything after the mode word belongs to
    // the mode (query flags are session keys, not ppdctl flags).
    Endpoint ep;
    std::string resume_token;
    util::strip_args(argc, argv, [&ep, &resume_token](std::string_view arg) {
      const auto value = [&arg](const char* prefix) {
        return std::string(arg.substr(std::string(prefix).size()));
      };
      if (util::starts_with(arg, "--port=")) {
        ep.port = static_cast<std::uint16_t>(std::stoi(value("--port=")));
      } else if (util::starts_with(arg, "--retries=")) {
        ep.retries = std::stoi(value("--retries="));
      } else if (util::starts_with(arg, "--retry-backoff=")) {
        ep.backoff_s = std::stod(value("--retry-backoff="));
      } else if (util::starts_with(arg, "--resume=")) {
        resume_token = value("--resume=");
      } else {
        return false;
      }
      return true;
    });
    if (argc < 2) {
      std::cerr << "usage: ppdctl [--port=N] [--retries=N] "
                   "[--retry-backoff=s] [--resume=TOKEN] "
                   "<ping|stats|query|batch|subscribe|top|trace> ...\n"
                   "(see the header of tools/ppdctl.cpp)\n";
      return 2;
    }
    const std::string mode = argv[1];

    net::Client client = connect_with_retry(ep, resume_token);
    int code = 2;
    if (mode == "ping") {
      std::cout << client.ping() << " (session " << client.session() << ")\n";
      code = 0;
    } else if (mode == "stats") {
      std::cout << client.stats() << "\n";
      code = 0;
    } else if (mode == "query") {
      code = cmd_query(client, argc - 2, argv + 2);
    } else if (mode == "batch") {
      code = cmd_batch(client, ep);
    } else if (mode == "subscribe") {
      code = cmd_subscribe(client, argc - 2, argv + 2);
    } else if (mode == "top") {
      code = cmd_top(client, argc - 2, argv + 2);
    } else if (mode == "trace") {
      code = cmd_trace(client, argc - 2, argv + 2);
    } else {
      std::cerr << "ppdctl: unknown mode: " << mode << "\n";
    }
    client.quit();
    return code;
  } catch (const std::exception& e) {
    std::cerr << "ppdctl: " << e.what() << "\n";
    return 1;
  }
}
