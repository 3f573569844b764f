// ppdd — the persistent pulse-test service.
//
//   ppdd [--port=N] [--port-file=FILE] [--max-queue=N] [--drain-grace=s]
//        [--slow-query=s] [--trace-ring=N]
//        [--max-upload-bytes=N] [--max-uploads=N] [--max-line=N]
//        [--max-backlog=N] [--max-inflight=N] [--shed-watermark=N]
//        [--metrics=F] [--metrics-format=json|text] [--trace=F]
//        [--log-level=L] [--log-json=F]
//
// Serves the same transfer / calibrate / coverage / rmin / lint queries as
// ppdtool over a loopback socket (protocol: ppd/net/protocol.hpp), with
// per-connection sessions, per-session backpressure, one process-wide
// exec pool batching queries from every client, and one shared solve cache
// warm-started across clients.
//
//   --port=N        control port (0 = ephemeral; default 7207)
//   --port-file=F   write the bound port to F (for scripts using --port=0)
//   --max-queue=N   per-session in-flight window before BUSY (default 8)
//   --drain-grace=s how long SIGTERM waits for in-flight queries before
//                   cancelling them (default 30; cancelled sweeps flush
//                   their resil checkpoints)
//   --slow-query=s  log a rate-limited warning for queries slower than
//                   this (queue + execute; default 1.0, 0 disables)
//   --trace-ring=N  keep a sliding window of ~N trace events per thread so
//                   `ppdctl trace` can dump recent served-query spans from
//                   a long-running daemon (default 8192, 0 disables)
//
// Hardening knobs — every per-session resource is capped and overload is
// shed deterministically:
//
//   --max-upload-bytes=N  per-session upload budget (default 4 MiB);
//                         over-budget uploads answer ERR quota.upload_bytes
//   --max-uploads=N       per-session blob count cap (default 64)
//   --max-line=N          CONTROL line length cap in bytes (default 64 KiB;
//                         longer lines answer ERR quota.line)
//   --max-backlog=N       undelivered result events buffered per session
//                         before QUERY answers BUSY backlog (default 8)
//   --max-inflight=N      process-wide in-flight query ceiling (default 64,
//                         0 = unlimited); at the ceiling: BUSY server
//   --shed-watermark=N    in-flight jobs at which load shedding starts
//                         refusing low-priority kinds (coverage/rmin first,
//                         then calibrate); 0 = half the ceiling
//
// Counts must be non-negative integers, the port at most 65535 and
// durations finite and >= 0; a malformed flag exits 2 before binding.
//
// ppdd keeps no state across a restart: a session ends with its control
// connection. A client that lost its connection (ppdctl batch --retries)
// reconnects, re-sends its SETs and UPLOADs and re-issues the queries it
// has no result for; every answer is a pure function of its query.
//
// The standard obs flags (--metrics= etc., shared with every other binary)
// are honoured too; the metrics snapshot and Chrome trace are flushed when
// the SIGTERM drain completes, so a supervised daemon leaves its telemetry
// behind on shutdown.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, every data
// channel gets a {"event":"drain"} push, in-flight queries get the grace
// budget to finish, stragglers are cancelled, and ppdd exits 0.
#include <csignal>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "ppd/exec/thread_pool.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/net/server.hpp"
#include "ppd/obs/log.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void ppdd_on_signal(int sig) {
  g_signal = static_cast<std::sig_atomic_t>(sig);
}

}  // namespace

int main(int argc, char** argv) {
  ppd::obs::ScopedRun run(ppd::obs::extract_run_options(argc, argv));
  try {
    // No subcommand word: Cli skips argv[0] itself.
    const ppd::util::Cli cli(
        argc, argv,
        {"port", "port-file", "max-queue", "drain-grace", "slow-query",
         "trace-ring", "max-upload-bytes", "max-uploads", "max-line",
         "max-backlog", "max-inflight", "shed-watermark"});

    ppd::net::ServerOptions options;
    options.port = ppd::net::parse_port(
        "port", cli.get("port", std::to_string(ppd::net::kDefaultPort)));
    options.limits.max_queue = cli.count("max-queue", 8);
    options.drain_grace_seconds =
        ppd::net::parse_seconds("drain-grace", cli.get("drain-grace", "30"));
    options.slow_query_seconds =
        ppd::net::parse_seconds("slow-query", cli.get("slow-query", "1"));
    options.limits.max_upload_bytes = cli.count("max-upload-bytes", 4u << 20);
    options.limits.max_uploads = cli.count("max-uploads", 64);
    options.limits.max_line_bytes = cli.count("max-line", 64u << 10);
    options.limits.max_backlog = cli.count("max-backlog", 8);
    options.max_inflight_total = cli.count("max-inflight", 64);
    options.shed_watermark = cli.count("shed-watermark", 0);

    run.set_meta(0, ppd::exec::ThreadPool::global().size());

    // Ring-bounded continuous tracing: recording is always on so `ppdctl
    // trace` works against a long-running daemon, but each thread keeps
    // only the most recent window of events. --trace=FILE still gets the
    // shutdown dump via ScopedRun.
    const std::size_t trace_ring = cli.count("trace-ring", 8192);
    if (trace_ring > 0) {
      ppd::obs::TraceSession& trace = ppd::obs::TraceSession::global();
      trace.set_ring_limit(trace_ring);
      if (!trace.active()) trace.start();
    }

    ppd::net::Server server(options);
    server.start();

    const std::string port_file = cli.get("port-file", std::string());
    if (!port_file.empty()) {
      std::ofstream os(port_file);
      if (!os)
        throw ppd::ParseError("cannot open " + port_file + " for writing");
      os << server.port() << "\n";
    }
    std::cout << "ppdd listening on 127.0.0.1:" << server.port() << std::endl;

    std::signal(SIGINT, ppdd_on_signal);
    std::signal(SIGTERM, ppdd_on_signal);
    while (g_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    ppd::obs::log_info("ppdd",
                       "signal " + std::to_string(static_cast<int>(g_signal)) +
                           " received, draining");
    std::cout << "ppdd draining" << std::endl;
    server.drain();
    // Flush the obs sinks (--metrics / --trace) before announcing the stop:
    // a supervisor that gates on "ppdd stopped" can rely on the files.
    run.finish();
    std::cout << "ppdd stopped" << std::endl;
    return 0;
  } catch (const ppd::ParseError& e) {
    std::cerr << "ppdd: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ppdd: " << e.what() << "\n";
    return 1;
  }
}
