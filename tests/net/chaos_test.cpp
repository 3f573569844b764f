// Socket chaos: drive the ppdd service through the fault-injecting
// ChaosProxy across many seeds and assert the hardening invariants — the
// server never deadlocks, never leaks sessions, and every complete frame
// it delivers stays parseable no matter where the proxy dribbles, stalls,
// delays or resets the byte stream.
#include "ppd/net/chaos.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/net/server.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"

namespace ppd::net {
namespace {

namespace json = util::json;

constexpr const char* kBenchText =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> words;
  std::string cur;
  for (const char c : s) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) words.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

/// One client lifetime through the proxy, raw wire: handshake, upload,
/// a couple of queries, reading data-channel frames. Every complete line
/// received on either channel must parse; a mid-frame reset may truncate
/// only the final line. Socket failures are expected (the proxy resets on
/// purpose) — protocol violations are not.
struct ChaosClientOutcome {
  int frames = 0;
  int results = 0;
  bool protocol_violation = false;
  std::string violation;
};

ChaosClientOutcome run_chaos_client(std::uint16_t proxy_port) {
  ChaosClientOutcome out;
  const auto check_frame = [&out](const std::string& line, bool is_event) {
    ++out.frames;
    try {
      if (is_event) {
        (void)json::parse(line);
      } else if (line.rfind("OK", 0) != 0 && line.rfind("ERR", 0) != 0 &&
                 line.rfind("BUSY", 0) != 0) {
        throw ParseError("control reply without OK/ERR/BUSY prefix");
      }
    } catch (const std::exception& e) {
      out.protocol_violation = true;
      out.violation = e.what() + std::string(" in: ") + line;
    }
  };
  try {
    TcpStream control = TcpStream::connect_loopback(proxy_port);
    control.write_all("CONTROL\n");
    const auto hello = control.read_line();
    if (!hello) return out;
    check_frame(*hello, false);
    if (!is_ok(*hello)) return out;
    const auto words = split_words(*hello);
    const std::string token = words.size() > 4 ? words[4] : "";
    if (token.empty()) return out;

    TcpStream data = TcpStream::connect_loopback(proxy_port);
    data.write_all("DATA " + token + "\n");
    const auto stream_ok = data.read_line();
    if (!stream_ok) return out;
    check_frame(*stream_ok, false);
    const auto hello_event = data.read_line();
    if (!hello_event) return out;
    check_frame(*hello_event, true);

    control.write_all("SET points 3\n");
    const auto set_ok = control.read_line();
    if (!set_ok) return out;
    check_frame(*set_ok, false);

    control.write_all("UPLOAD c.bench " +
                      std::to_string(std::string(kBenchText).size()) + "\n");
    control.write_all(kBenchText);
    const auto up_ok = control.read_line();
    if (!up_ok) return out;
    check_frame(*up_ok, false);

    int expected = 0;
    for (const char* query : {"QUERY transfer", "QUERY lint c.bench"}) {
      control.write_all(std::string(query) + "\n");
      const auto reply = control.read_line();
      if (!reply) break;
      check_frame(*reply, false);
      if (is_ok(*reply)) ++expected;
    }
    // Read result frames until we have them all or the proxy kills us.
    while (out.results < expected) {
      const auto line = data.read_line();
      if (!line) break;
      // A reset can truncate the final line: only '}'-terminated frames
      // are complete and must parse.
      if (line->empty() || line->back() != '}') break;
      check_frame(*line, true);
      if (line->rfind("{\"event\":\"result\"", 0) == 0) ++out.results;
    }
    control.write_all("QUIT\n");
    (void)control.read_line();
  } catch (const NetError&) {
    // Injected resets land here — expected under chaos.
  }
  return out;
}

TEST(Chaos, ServiceSurvivesTenSeedsWithoutLeaksOrMalformedFrames) {
  cache::SolveCache::global().clear();
  ServerOptions options;
  Server server(options);
  server.start();

  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = server.port();
    proxy_options.plan = resil::FaultPlan::parse(
        "seed=" + std::to_string(seed) +
        ",sock-partial=0.4,sock-reset=0.04,sock-stall=0.08:0.01,"
        "sock-delay=0.3:0.002");
    ChaosProxy proxy(proxy_options);
    proxy.start();

    std::vector<std::thread> clients;
    std::vector<ChaosClientOutcome> outcomes(3);
    for (std::size_t c = 0; c < outcomes.size(); ++c)
      clients.emplace_back([&outcomes, c, &proxy] {
        outcomes[c] = run_chaos_client(proxy.port());
      });
    for (auto& t : clients) t.join();
    for (const auto& out : outcomes)
      EXPECT_FALSE(out.protocol_violation)
          << "seed " << seed << ": " << out.violation;

    proxy.stop();
    const ChaosProxyStats stats = proxy.stats();
    total_injected += stats.partial_writes + stats.resets + stats.stalls +
                      stats.delays;
  }
  // The plan must actually have fired — a chaos suite that injects nothing
  // proves nothing.
  EXPECT_GT(total_injected, 0u);

  // No deadlock / no leak: every proxied session unwinds (the checker's
  // own session is the only one left), and in-flight work drains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool clean = false;
  while (std::chrono::steady_clock::now() < deadline && !clean) {
    const Server::Stats stats = server.stats();
    clean = stats.sessions_active == 0 && stats.jobs_in_flight == 0;
    if (!clean) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(clean) << "sessions_active=" << server.stats().sessions_active
                     << " jobs_in_flight=" << server.stats().jobs_in_flight;

  // The server itself must still answer normally after all ten storms.
  Client checker = Client::connect(server.port());
  checker.set("points", "3");
  const Client::Result res = checker.run("transfer");
  EXPECT_EQ(res.status, "ok");
  const json::Value stats_doc = json::parse(checker.stats());
  EXPECT_EQ(stats_doc.at("server").at("draining").as_bool(), false);
  checker.quit();
  server.stop();
}

TEST(Chaos, InjectionIsDeterministicPerSeed) {
  // The same (seed, conn, direction, chunk) key must draw identically —
  // the replayability contract for failing chaos seeds.
  for (std::uint64_t site = 5; site <= 8; ++site) {
    EXPECT_DOUBLE_EQ(resil::fault_uniform(7, 3, site, 11),
                     resil::fault_uniform(7, 3, site, 11));
    EXPECT_NE(resil::fault_uniform(7, 3, site, 11),
              resil::fault_uniform(8, 3, site, 11));
  }
}

TEST(Chaos, ProxyForwardsCleanlyWithFaultsOff) {
  // Plan disabled: the proxy must be a transparent pipe (the harness
  // itself cannot be the thing that breaks byte-identity).
  cache::SolveCache::global().clear();
  ServerOptions options;
  Server server(options);
  server.start();
  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  ChaosProxy proxy(proxy_options);
  proxy.start();

  Client direct = Client::connect(server.port());
  direct.set("points", "4");
  const Client::Result want = direct.run("transfer");
  direct.quit();

  Client proxied = Client::connect(proxy.port());
  proxied.set("points", "4");
  const Client::Result got = proxied.run("transfer");
  EXPECT_EQ(got.status, "ok");
  EXPECT_EQ(got.body, want.body);
  proxied.quit();

  proxy.stop();
  EXPECT_EQ(proxy.stats().resets, 0u);
  EXPECT_GT(proxy.stats().forwarded_bytes, 0u);
  server.stop();
}

}  // namespace
}  // namespace ppd::net
