// chaosproxy — fault-injecting loopback TCP proxy for service hardening.
//
//   chaosproxy --upstream=PORT [--port=N] [--port-file=FILE]
//              [--faults=SPEC] [--stats-every=s]
//
// Sits between a client and ppdd, forwarding raw bytes while injecting
// socket faults from the sock-* seams of a seeded ppd::resil fault plan:
//
//   --upstream=PORT  where the real ppdd listens (required)
//   --port=N         listen port (0 = ephemeral, default; written to
//                    --port-file like ppdd)
//   --faults=SPEC    resil fault-plan spec, e.g.
//                    "seed=7,sock-partial=0.3,sock-reset=0.02,
//                     sock-stall=0.05:0.02,sock-delay=0.2:0.005"
//   --stats-every=s  print injection totals every s seconds (0 = only at
//                    exit)
//
// Ports must be integers in [0, 65535] and --stats-every finite and >= 0;
// a malformed flag exits 2 before binding.
//
// Every injection decision is a pure hash of (seed, connection, direction,
// seam, chunk) — re-running a failing seed injects the same faults at the
// same byte offsets. SIGINT/SIGTERM stop the proxy and print final totals.
#include <csignal>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "ppd/net/chaos.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void chaosproxy_on_signal(int sig) {
  g_signal = static_cast<std::sig_atomic_t>(sig);
}

void print_stats(const ppd::net::ChaosProxyStats& s) {
  std::cout << "chaosproxy: connections=" << s.connections
            << " forwarded_bytes=" << s.forwarded_bytes
            << " partial_writes=" << s.partial_writes
            << " resets=" << s.resets << " stalls=" << s.stalls
            << " delays=" << s.delays << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ppd::util::Cli cli(
        argc, argv,
        {"upstream", "port", "port-file", "faults", "stats-every"});

    ppd::net::ChaosProxyOptions options;
    options.upstream_port =
        ppd::net::parse_port("upstream", cli.get("upstream", std::string("0")));
    if (options.upstream_port == 0)
      throw ppd::ParseError("chaosproxy needs --upstream=PORT");
    options.listen_port =
        ppd::net::parse_port("port", cli.get("port", std::string("0")));
    const std::string faults = cli.get("faults", std::string());
    if (!faults.empty())
      options.plan = ppd::resil::FaultPlan::parse(faults);
    const double stats_every = ppd::net::parse_seconds(
        "stats-every", cli.get("stats-every", std::string("0")));

    ppd::net::ChaosProxy proxy(options);
    proxy.start();

    const std::string port_file = cli.get("port-file", std::string());
    if (!port_file.empty()) {
      std::ofstream os(port_file);
      if (!os)
        throw ppd::ParseError("cannot open " + port_file + " for writing");
      os << proxy.port() << "\n";
    }
    std::cout << "chaosproxy 127.0.0.1:" << proxy.port() << " -> 127.0.0.1:"
              << options.upstream_port << " plan "
              << options.plan.describe() << std::endl;

    std::signal(SIGINT, chaosproxy_on_signal);
    std::signal(SIGTERM, chaosproxy_on_signal);
    auto last_stats = std::chrono::steady_clock::now();
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (stats_every > 0.0) {
        const auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration<double>(now - last_stats).count() >=
            stats_every) {
          print_stats(proxy.stats());
          last_stats = now;
        }
      }
    }
    proxy.stop();
    print_stats(proxy.stats());
    return 0;
  } catch (const ppd::ParseError& e) {
    std::cerr << "chaosproxy: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "chaosproxy: " << e.what() << "\n";
    return 1;
  }
}
