// ppd::net — the service layer. Covers the wire protocol helpers (the JSON
// codec as the wire uses it: reversible escaping, event parsing), the
// loopback socket primitives, the shared query layer's key tables, and the
// headline service contracts:
// served responses byte-identical to direct run_query output (alone, under
// concurrent multi-client load, and with the solve cache disabled),
// per-session backpressure (BUSY), session isolation, and graceful drain.
#include "ppd/net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/log.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/net/query.hpp"
#include "ppd/net/session.hpp"
#include "ppd/net/socket.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::net {
namespace {

namespace json = util::json;

// ---------------------------------------------------------------------------
// Protocol helpers.
// ---------------------------------------------------------------------------

TEST(Protocol, JsonQuoteRoundTripsEverything) {
  const std::string nasty =
      "line1\nline2\ttab \"quoted\" back\\slash\rcr \x01\x1f bytes";
  const std::string quoted = json::quote(nasty);
  EXPECT_EQ(json::unquote(quoted), nasty);
  // The quoted form itself must be one line (the framing depends on it).
  EXPECT_EQ(quoted.find('\n'), std::string::npos);
  EXPECT_EQ(quoted.find('\r'), std::string::npos);
}

TEST(Protocol, JsonUnquoteRejectsMalformedEscapes) {
  EXPECT_THROW((void)json::unquote("\"\\q\""), ParseError);
  EXPECT_THROW((void)json::unquote("no quotes"), ParseError);
  EXPECT_THROW((void)json::unquote("\"\\u2603\""), ParseError);  // > 0xff
}

TEST(Protocol, ParseFlatJsonReadsEventShapes) {
  const json::Value fields = json::parse(
      R"({"event":"result","id":42,"exit_code":0,"elapsed_s":0.25,)"
      R"("ok":true,"body":"a\nb"})");
  EXPECT_EQ(fields.at("event").scalar, "result");
  EXPECT_EQ(fields.at("id").scalar, "42");
  EXPECT_EQ(fields.at("elapsed_s").scalar, "0.25");
  EXPECT_EQ(fields.at("ok").scalar, "true");
  EXPECT_EQ(fields.at("body").scalar, "a\nb");
  EXPECT_THROW((void)json::parse("{\"unterminated\":"), ParseError);
}

TEST(Protocol, ParseJsonReadsNestedDocuments) {
  const json::Value doc = json::parse(
      R"({"server":{"queries_ok":3,"draining":false,"uptime_s":1.5},)"
      R"("kinds":{"transfer":{"queue_s":{"bins":[[1e-6,2e-6,4]]}}},)"
      R"("sessions":[{"token":"s1"},{"token":"s2"}],"none":null})");
  EXPECT_EQ(doc.at("server").at("queries_ok").as_uint(), 3u);
  EXPECT_FALSE(doc.at("server").at("draining").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("server").at("uptime_s").as_number(), 1.5);
  const json::Value& bins =
      doc.at("kinds").at("transfer").at("queue_s").at("bins");
  ASSERT_EQ(bins.items.size(), 1u);
  ASSERT_EQ(bins.items[0].items.size(), 3u);
  EXPECT_DOUBLE_EQ(bins.items[0].items[2].as_number(), 4.0);
  ASSERT_EQ(doc.at("sessions").items.size(), 2u);
  EXPECT_EQ(doc.at("sessions").items[1].at("token").scalar, "s2");
  EXPECT_EQ(doc.at("none").kind, json::Value::Kind::kNull);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW((void)doc.at("absent"), ParseError);

  EXPECT_THROW((void)json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW((void)json::parse("{\"a\":1} extra"), ParseError);
  EXPECT_THROW((void)json::parse("[[[[" + std::string(40, '[')), ParseError);
}

TEST(Protocol, ReplyHelpers) {
  EXPECT_TRUE(is_ok(ok_reply()));
  EXPECT_TRUE(is_ok(ok_reply("pong")));
  EXPECT_FALSE(is_ok(err_reply("nope")));
  // ERR flattens embedded newlines to keep one-line framing.
  EXPECT_EQ(err_reply("two\nlines").find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Socket primitives.
// ---------------------------------------------------------------------------

TEST(Socket, LoopbackLineEcho) {
  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  ASSERT_NE(port, 0);

  std::thread server([&listener] {
    auto peer = listener.accept();
    ASSERT_TRUE(peer.has_value());
    while (const auto line = peer->read_line())
      peer->write_all(*line + "\n");
  });

  TcpStream stream = TcpStream::connect_loopback(port);
  stream.write_all("hello\nworld\n");
  EXPECT_EQ(stream.read_line(), std::optional<std::string>("hello"));
  EXPECT_EQ(stream.read_line(), std::optional<std::string>("world"));
  stream.shutdown_both();
  server.join();
  listener.close();
}

TEST(Socket, CloseWakesAccept) {
  TcpListener listener(0);
  std::atomic<bool> accepted{true};
  std::thread waiter([&] { accepted = listener.accept().has_value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.close();
  waiter.join();
  EXPECT_FALSE(accepted.load());
}

// ---------------------------------------------------------------------------
// Query layer.
// ---------------------------------------------------------------------------

TEST(Query, KindNamesRoundTrip) {
  for (const QueryKind kind :
       {QueryKind::kTransfer, QueryKind::kCalibrate, QueryKind::kCoverage,
        QueryKind::kRmin, QueryKind::kLint, QueryKind::kSta})
    EXPECT_EQ(query_kind_from_string(query_kind_name(kind)), kind);
  EXPECT_THROW((void)query_kind_from_string("atpg"), ParseError);
}

TEST(Query, DefaultsMatchDocumentedCliDefaults) {
  const auto absent = [](const std::string&) -> std::optional<std::string> {
    return std::nullopt;
  };
  const QueryParams transfer = params_from_lookup(QueryKind::kTransfer, absent);
  EXPECT_EQ(transfer.points, 15u);
  const QueryParams coverage = params_from_lookup(QueryKind::kCoverage, absent);
  EXPECT_EQ(coverage.samples, 25);
  EXPECT_EQ(coverage.points, 9u);
  EXPECT_FALSE(coverage.strict);
  const QueryParams rmin = params_from_lookup(QueryKind::kRmin, absent);
  EXPECT_EQ(rmin.samples, 20);
  EXPECT_EQ(rmin.bisection_steps, 10);
  const QueryParams sta = params_from_lookup(QueryKind::kSta, absent);
  EXPECT_EQ(sta.k_paths, 5u);
  EXPECT_DOUBLE_EQ(sta.clock, 0.0);
  EXPECT_DOUBLE_EQ(sta.w_in_max, 1.2e-9);
  EXPECT_DOUBLE_EQ(sta.w_th_floor, 50e-12);
  EXPECT_DOUBLE_EQ(sta.margin, 0.25);
  EXPECT_DOUBLE_EQ(sta.slack_frac, 0.25);
}

constexpr QueryKind kAllKinds[] = {QueryKind::kTransfer, QueryKind::kCalibrate,
                                   QueryKind::kCoverage, QueryKind::kRmin,
                                   QueryKind::kLint,     QueryKind::kSta};

TEST(Query, ReadsExactlyItsKeyTable) {
  // The replay key digests exactly the keys query_keys(kind) lists, so the
  // parameters must come from those keys and no others: a key read outside
  // the table would let two different bodies share one key.
  for (const QueryKind kind : kAllKinds) {
    std::set<std::string> read;
    (void)params_from_lookup(
        kind, [&read](const std::string& key) -> std::optional<std::string> {
          read.insert(key);
          return std::nullopt;
        });
    const auto& table = query_keys(kind);
    EXPECT_EQ(read, std::set<std::string>(table.begin(), table.end()))
        << query_kind_name(kind);
  }
}

TEST(Query, LeftoverKeysOfOtherKindsAreNotRead) {
  // A malformed seed left by an earlier calibrate SET no longer breaks a
  // transfer query, which has no seed.
  const auto lookup = [](const std::string& key) -> std::optional<std::string> {
    if (key == "seed" || key == "stage") return "not-a-number";
    return std::nullopt;
  };
  EXPECT_NO_THROW((void)params_from_lookup(QueryKind::kTransfer, lookup));
  EXPECT_THROW((void)params_from_lookup(QueryKind::kCalibrate, lookup),
               ParseError);
}

/// sta parameters with one key set, as a session SET or a CLI flag would.
QueryParams sta_params_with(const std::string& key, const std::string& value) {
  return params_from_lookup(
      QueryKind::kSta,
      [&](const std::string& k) -> std::optional<std::string> {
        if (k == key) return value;
        return std::nullopt;
      });
}

TEST(Query, StaRejectsNegativePathCount) {
  // -1 used to wrap through size_t and list every path up to the budget.
  EXPECT_THROW((void)sta_params_with("k", "-1"), ParseError);
  EXPECT_THROW((void)sta_params_with("k", "2.5"), ParseError);
  EXPECT_EQ(sta_params_with("k", "12").k_paths, 12u);
}

TEST(Query, StaRejectsNonFiniteClock) {
  // nan used to fall back silently to the critical delay.
  EXPECT_THROW((void)sta_params_with("clock", "nan"), ParseError);
  EXPECT_THROW((void)sta_params_with("clock", "inf"), ParseError);
  EXPECT_DOUBLE_EQ(sta_params_with("clock", "2e-9").clock, 2e-9);
}

TEST(Query, StaRejectsNonFiniteSlackFraction) {
  EXPECT_THROW((void)sta_params_with("slack-frac", "nan"), ParseError);
  EXPECT_THROW((void)sta_params_with("slack-frac", "-inf"), ParseError);
}

TEST(Query, SuppressListIsValidatedAtRunTime) {
  const auto lookup = [](const std::string& key) -> std::optional<std::string> {
    if (key == "suppress") return "PPD999";
    return std::nullopt;
  };
  const QueryParams params = params_from_lookup(QueryKind::kSta, lookup);
  EXPECT_THROW((void)run_query(QueryKind::kSta, params), ParseError);
}

TEST(Query, StaJsonQuotesNetlistAndNetNames) {
  // A double quote in the file name and in a net name: the JSON report
  // must stay well-formed and carry both names verbatim.
  const std::string path = testing::TempDir() + "we\"ird.bench";
  {
    std::ofstream os(path);
    os << "INPUT(a)\nOUTPUT(q\"x)\nn1 = NOT(a)\nq\"x = NOT(n1)\n";
  }
  QueryParams params = params_from_lookup(
      QueryKind::kSta, [](const std::string& key) -> std::optional<std::string> {
        if (key == "json") return "1";
        return std::nullopt;
      });
  params.bench = path;
  const json::Value doc = json::parse(run_query(QueryKind::kSta, params).body);
  std::remove(path.c_str());
  EXPECT_EQ(doc.at("netlist").at("name").as_string(), "we\"ird.bench");
  const json::Value& paths = doc.at("slackiest_paths");
  ASSERT_EQ(paths.items.size(), 1u);
  EXPECT_EQ(paths.items[0].at("path").as_string(), "a>n1>q\"x");
}

// ---------------------------------------------------------------------------
// End-to-end service contracts.
// ---------------------------------------------------------------------------

constexpr const char* kBenchText =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

/// Direct (no socket) execution with the same parameter source a session
/// SET would produce: the byte-identity reference.
std::string direct_body(
    QueryKind kind,
    const std::vector<std::pair<std::string, std::string>>& kv) {
  QueryParams params = params_from_lookup(
      kind, [&kv](const std::string& key) -> std::optional<std::string> {
        for (const auto& [k, v] : kv)
          if (k == key) return v;
        return std::nullopt;
      });
  if (kind == QueryKind::kLint) {
    params.lint_name = "t.bench";
    params.lint_text = kBenchText;
  }
  if (kind == QueryKind::kSta) {
    params.bench_name = "t.bench";
    params.bench_text = kBenchText;
  }
  return run_query(kind, params).body;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache::SolveCache::global().clear();
    server_.emplace(options_);
    server_->start();
  }
  void TearDown() override {
    if (server_) server_->stop();
    cache::SolveCache::global().clear();
  }

  ServerOptions options_;
  std::optional<Server> server_;
};

TEST_F(ServiceTest, ServedTransferIsByteIdenticalToDirect) {
  Client client = Client::connect(server_->port());
  client.set("points", "5");
  const Client::Result res = client.run("transfer");
  EXPECT_EQ(res.status, "ok");
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_EQ(res.body, direct_body(QueryKind::kTransfer, {{"points", "5"}}));
  client.quit();
}

TEST_F(ServiceTest, UploadedLintIsByteIdenticalAndCarriesExitCode) {
  Client client = Client::connect(server_->port());
  client.upload("t.bench", kBenchText);
  const Client::Result res = client.run("lint", "t.bench");
  EXPECT_EQ(res.status, "ok");
  EXPECT_EQ(res.body, direct_body(QueryKind::kLint, {}));

  // An unknown upload name is an ERR at submit time, not a result event.
  EXPECT_THROW((void)client.run("lint", "missing.bench"), ServiceError);
  client.quit();
}

TEST_F(ServiceTest, UploadedStaIsByteIdenticalToDirect) {
  Client client = Client::connect(server_->port());
  client.upload("t.bench", kBenchText);
  const Client::Result res = client.run("sta", "t.bench");
  EXPECT_EQ(res.status, "ok");
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_EQ(res.body, direct_body(QueryKind::kSta, {}));
  client.quit();
}

TEST_F(ServiceTest, ServedStaRejectsUnknownSuppressCodes) {
  Client client = Client::connect(server_->port());
  client.upload("t.bench", kBenchText);
  client.set("suppress", "PPD999");
  const Client::Result res = client.run("sta", "t.bench");
  EXPECT_EQ(res.status, "error");
  EXPECT_NE(res.error.find("unknown diagnostic code"), std::string::npos);
  client.quit();
}

TEST_F(ServiceTest, SessionsAreIsolated) {
  Client a = Client::connect(server_->port());
  Client b = Client::connect(server_->port());
  a.set("points", "4");
  b.set("points", "6");
  const Client::Result ra = a.run("transfer");
  const Client::Result rb = b.run("transfer");
  EXPECT_EQ(ra.body, direct_body(QueryKind::kTransfer, {{"points", "4"}}));
  EXPECT_EQ(rb.body, direct_body(QueryKind::kTransfer, {{"points", "6"}}));
  EXPECT_NE(ra.body, rb.body);
  a.quit();
  b.quit();
}

TEST_F(ServiceTest, UnknownConfigKeyFailsAtSetTime) {
  Client client = Client::connect(server_->port());
  EXPECT_THROW(client.set("pionts", "5"), ServiceError);
  client.quit();
}

TEST_F(ServiceTest, StatsReportServerAndCacheCounters) {
  Client client = Client::connect(server_->port());
  client.set("points", "3");
  (void)client.run("transfer");
  const json::Value stats = json::parse(client.stats());
  const json::Value& server = stats.at("server");
  EXPECT_EQ(server.at("queries_ok").as_uint(), 1u);
  EXPECT_FALSE(server.at("draining").as_bool());
  EXPECT_GT(server.at("uptime_s").as_number(), 0.0);
  EXPECT_GE(stats.at("cache").at("hits").as_uint(), 0u);
  EXPECT_GE(stats.at("cache").at("entries").as_uint(), 0u);
  // Per-kind block: the transfer row saw exactly one query; both latency
  // histograms recorded it.
  const json::Value& transfer = stats.at("kinds").at("transfer");
  EXPECT_EQ(transfer.at("accepted").as_uint(), 1u);
  EXPECT_EQ(transfer.at("ok").as_uint(), 1u);
  EXPECT_EQ(transfer.at("queue_s").at("count").as_uint(), 1u);
  EXPECT_EQ(transfer.at("execute_s").at("count").as_uint(), 1u);
  EXPECT_GT(transfer.at("execute_s").at("p50").as_number(), 0.0);
  // Kinds that saw no queries are present with zero counts (fixed shape).
  EXPECT_EQ(stats.at("kinds").at("rmin").at("accepted").as_uint(), 0u);
  // This session appears in the listing with its accepted count.
  ASSERT_EQ(stats.at("sessions").items.size(), 1u);
  EXPECT_EQ(stats.at("sessions").items[0].at("accepted").as_uint(), 1u);
  client.quit();
}

TEST_F(ServiceTest, ResultEventCarriesQueryIdAndTimingBreakdown) {
  Client client = Client::connect(server_->port());
  client.set("points", "3");
  const Client::Result res = client.run("transfer");
  EXPECT_EQ(res.status, "ok");
  EXPECT_GT(res.qid, 0u);
  EXPECT_GE(res.queue_s, 0.0);
  EXPECT_GT(res.execute_s, 0.0);
  EXPECT_GE(res.serialize_s, 0.0);
  // The breakdown rides in separate fields of the same event.
  EXPECT_NE(res.raw.find("\"qid\":"), std::string::npos);
  EXPECT_NE(res.raw.find("\"queue_s\":"), std::string::npos);
  EXPECT_NE(res.raw.find("\"execute_s\":"), std::string::npos);
  EXPECT_NE(res.raw.find("\"serialize_s\":"), std::string::npos);
  // elapsed_s is retained as an alias of execute_s for older consumers.
  EXPECT_DOUBLE_EQ(res.elapsed_s, res.execute_s);
  client.quit();
}

TEST_F(ServiceTest, StatsSnapshotExactUnderConcurrentMixedKinds) {
  // 4 concurrent clients, each running one transfer and one lint: the
  // per-kind snapshot totals must be exact (the PR 3 merge-exactness
  // contract — thread-count-invariant integer sums), not approximate.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      Client client = Client::connect(server_->port());
      client.set("points", "3");
      client.upload("t.bench", kBenchText);
      if (client.run("transfer").status != "ok") ++failures;
      if (client.run("lint", "t.bench").status != "ok") ++failures;
      client.quit();
    });
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  Client probe = Client::connect(server_->port());
  const json::Value stats = json::parse(probe.stats());
  EXPECT_EQ(stats.at("server").at("queries_ok").as_uint(), 2u * kClients);
  for (const char* kind : {"transfer", "lint"}) {
    const json::Value& row = stats.at("kinds").at(kind);
    EXPECT_EQ(row.at("accepted").as_uint(), static_cast<unsigned>(kClients))
        << kind;
    EXPECT_EQ(row.at("ok").as_uint(), static_cast<unsigned>(kClients))
        << kind;
    EXPECT_EQ(row.at("error").as_uint(), 0u) << kind;
    EXPECT_EQ(row.at("queue_s").at("count").as_uint(),
              static_cast<unsigned>(kClients))
        << kind;
    EXPECT_EQ(row.at("execute_s").at("count").as_uint(),
              static_cast<unsigned>(kClients))
        << kind;
  }
  for (const char* kind : {"calibrate", "coverage", "rmin", "sta"})
    EXPECT_EQ(stats.at("kinds").at(kind).at("accepted").as_uint(), 0u)
        << kind;
  probe.quit();
}

TEST_F(ServiceTest, SubscribeStreamsMetricsSnapshots) {
  Client worker = Client::connect(server_->port());
  worker.set("points", "3");
  (void)worker.run("transfer");

  Client watcher = Client::connect(server_->port());
  watcher.subscribe(0.05);
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 2; ++i) {
    const auto line = watcher.next_event();
    ASSERT_TRUE(line.has_value());
    ASSERT_EQ(line->rfind("{\"event\":\"metrics\"", 0), 0u) << *line;
    const json::Value ev = json::parse(*line);
    EXPECT_EQ(ev.at("seq").as_uint(), last_seq + 1);
    last_seq = ev.at("seq").as_uint();
    // The embedded stats block is the full STATS document.
    EXPECT_GE(ev.at("stats").at("server").at("queries_ok").as_uint(), 1u);
    EXPECT_GE(
        ev.at("stats").at("kinds").at("transfer").at("ok").as_uint(), 1u);
    (void)ev.at("interval").at("transfer").at("ok").as_uint();
  }
  watcher.subscribe(0.0);  // unsubscribe; the control channel still works
  EXPECT_TRUE(is_ok(watcher.ping()));
  watcher.quit();
  worker.quit();
}

TEST_F(ServiceTest, TraceDumpContainsServedQuerySpans) {
  obs::TraceSession& trace = obs::TraceSession::global();
  trace.set_ring_limit(4096);
  trace.start();

  Client client = Client::connect(server_->port());
  client.set("points", "3");
  const Client::Result res = client.run("transfer");
  ASSERT_EQ(res.status, "ok");
  ASSERT_GT(res.qid, 0u);

  const std::string dump = client.trace_dump();
  trace.stop();
  trace.clear();
  trace.set_ring_limit(0);

  // The served query's span is in the dump, tagged with the same qid the
  // result event carried — the client-side correlation contract.
  EXPECT_NE(dump.find("net.query.transfer"), std::string::npos);
  EXPECT_NE(dump.find("\"qid\":" + std::to_string(res.qid)),
            std::string::npos);
  client.quit();
}

TEST(ServiceBackpressure, SecondQueryWithoutDataChannelIsBusy) {
  // With max_queue=1 and no DATA channel attached, the first query's result
  // buffers inside the admission window — so a second QUERY must get BUSY
  // deterministically, no timing involved.
  ServerOptions options;
  options.limits.max_queue = 1;
  Server server(options);
  server.start();

  TcpStream control = TcpStream::connect_loopback(server.port());
  control.write_all("CONTROL\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  control.write_all("SET points 3\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  control.write_all("QUERY transfer\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  control.write_all("QUERY transfer\n");
  EXPECT_EQ(control.read_line().value(), "BUSY");
  control.shutdown_both();
  server.stop();
}

TEST(ServiceDrain, NotifiesDataChannelsAndRefusesNewConnections) {
  ServerOptions options;
  options.drain_grace_seconds = 5.0;
  Server server(options);
  server.start();
  const std::uint16_t port = server.port();

  Client client = Client::connect(port);
  client.set("points", "3");
  const Client::Result before = client.run("transfer");
  EXPECT_EQ(before.status, "ok");

  // Capture the drain log line: the shutdown summary must account for
  // every accepted query (completed/cancelled/undelivered).
  std::ostringstream captured;
  obs::Logger::global().set_text_stream(&captured);
  obs::Logger::global().set_level(obs::LogLevel::kInfo);
  server.drain();
  obs::Logger::global().set_level(obs::LogLevel::kWarn);
  obs::Logger::global().set_text_stream(&std::cerr);
  EXPECT_TRUE(server.draining());

  const std::string drain_log = captured.str();
  EXPECT_NE(drain_log.find("ppdd drained"), std::string::npos) << drain_log;
  EXPECT_NE(drain_log.find("completed=1"), std::string::npos) << drain_log;
  EXPECT_NE(drain_log.find("cancelled=0"), std::string::npos) << drain_log;
  EXPECT_NE(drain_log.find("undelivered=0"), std::string::npos) << drain_log;

  // The drain event reached the data channel; the client notices on its
  // next read (the stream ends after the event, hence the throw).
  EXPECT_THROW((void)client.wait(9999), ServiceError);
  EXPECT_TRUE(client.drained());

  // Fully drained: the listener is gone.
  EXPECT_THROW((void)TcpStream::connect_loopback(port), NetError);
}

TEST_F(ServiceTest, ConcurrentClientsGetByteIdenticalResponses) {
  const std::vector<std::pair<std::string, std::string>> cov_kv = {
      {"samples", "3"}, {"points", "3"}};
  const std::string expect_transfer =
      direct_body(QueryKind::kTransfer, {{"points", "5"}});
  const std::string expect_coverage = direct_body(QueryKind::kCoverage, cov_kv);

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Client client = Client::connect(server_->port());
      client.set("points", c % 2 == 0 ? "5" : "3");
      client.set("samples", "3");
      if (c % 2 == 0) {
        if (client.run("transfer").body != expect_transfer) ++mismatches;
        client.set("points", "3");
        if (client.run("coverage").body != expect_coverage) ++mismatches;
      } else {
        if (client.run("coverage").body != expect_coverage) ++mismatches;
      }
      client.quit();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const Server::Stats stats = server_->stats();
  EXPECT_EQ(stats.queries_ok, 6u);
  EXPECT_EQ(stats.queries_error, 0u);
}

TEST_F(ServiceTest, ServedResponsesIdenticalWithCacheDisabled) {
  // The solve cache must be invisible across the wire: the same query
  // served warm (second run, populated cache) and served with the cache
  // killed produces the same bytes.
  const std::vector<std::pair<std::string, std::string>> kv = {
      {"samples", "3"}, {"points", "3"}};

  Client client = Client::connect(server_->port());
  client.set("samples", "3");
  client.set("points", "3");
  const std::string cold = client.run("coverage").body;
  const std::string warm = client.run("coverage").body;
  EXPECT_EQ(cold, warm);
  EXPECT_GT(cache::SolveCache::global().totals().hits, 0u);

  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  const std::string uncached = client.run("coverage").body;
  cache::set_cache_enabled(was_enabled);

  EXPECT_EQ(cold, uncached);
  EXPECT_EQ(cold, direct_body(QueryKind::kCoverage, kv));
  client.quit();
}

// ---------------------------------------------------------------------------
// Replay of repeated queries from the solve cache.
// ---------------------------------------------------------------------------

std::uint64_t replayed(Client& client, const char* kind) {
  return json::parse(client.stats()).at("kinds").at(kind).at("replayed")
      .as_uint();
}

TEST_F(ServiceTest, RepeatedQueryIsReplayedByteIdenticallyAcrossSessions) {
  const auto counted_before = obs::counter("net.queries.replayed").value();
  Client a = Client::connect(server_->port());
  Client b = Client::connect(server_->port());
  for (Client* c : {&a, &b}) {
    c->set("samples", "2");
    c->set("points", "2");
  }
  const Client::Result first = a.run("coverage");
  const Client::Result same_session = a.run("coverage");
  const Client::Result other_session = b.run("coverage");
  ASSERT_EQ(first.status, "ok");
  EXPECT_EQ(same_session.body, first.body);
  EXPECT_EQ(other_session.body, first.body);
  EXPECT_EQ(first.body, direct_body(QueryKind::kCoverage,
                                    {{"samples", "2"}, {"points", "2"}}));
  EXPECT_EQ(replayed(a, "coverage"), 2u);
  EXPECT_EQ(obs::counter("net.queries.replayed").value() - counted_before, 2u);

  // A replay is still an ordinary ok result with its own ids and timings.
  const json::Value stats = json::parse(a.stats());
  EXPECT_EQ(stats.at("kinds").at("coverage").at("ok").as_uint(), 3u);
  EXPECT_EQ(stats.at("kinds").at("coverage").at("execute_s").at("count")
                .as_uint(),
            3u);
  EXPECT_NE(same_session.qid, first.qid);

  // Uploaded netlists replay too, and a lint result keeps its exit code.
  a.upload("t.bench", kBenchText);
  b.upload("t.bench", kBenchText);
  const Client::Result lint_a = a.run("lint", "t.bench");
  const Client::Result lint_b = b.run("lint", "t.bench");
  EXPECT_EQ(lint_b.body, lint_a.body);
  EXPECT_EQ(lint_b.exit_code, lint_a.exit_code);
  EXPECT_EQ(replayed(a, "lint"), 1u);
  a.quit();
  b.quit();
}

TEST_F(ServiceTest, LeftoverKeysOfOtherKindsDoNotSplitTheKey) {
  Client client = Client::connect(server_->port());
  client.set("points", "3");
  const std::string body = client.run("transfer").body;
  client.set("seed", "11");  // a calibrate/coverage key: not in transfer's
  EXPECT_EQ(client.run("transfer").body, body);
  EXPECT_EQ(replayed(client, "transfer"), 1u);
  client.quit();
}

TEST_F(ServiceTest, ChangedKeyOrUploadIsAMiss) {
  Client client = Client::connect(server_->port());
  client.upload("t.bench", kBenchText);
  (void)client.run("sta", "t.bench");

  // Other bytes under the same name, then the same bytes under another name.
  const std::string other_text = std::string(kBenchText) + "z = NOT(y)\n";
  client.upload("t.bench", other_text);
  const Client::Result changed_bytes = client.run("sta", "t.bench");
  client.upload("u.bench", other_text);
  const Client::Result changed_name = client.run("sta", "u.bench");
  client.set("clock", "2e-9");
  const Client::Result changed_key = client.run("sta", "u.bench");
  EXPECT_EQ(replayed(client, "sta"), 0u);
  EXPECT_EQ(changed_bytes.status, "ok");
  EXPECT_NE(changed_name.body, changed_bytes.body);  // names the netlist
  EXPECT_NE(changed_key.body, changed_name.body);
  client.quit();
}

/// Two valid values, each different from the default and from the other,
/// for every key of every table.
const std::map<std::string, std::pair<std::string, std::string>>&
key_values() {
  static const std::map<std::string, std::pair<std::string, std::string>>
      values{{"gates", {"inv,inv", "nand2"}},
             {"fault", {"branch", "internal-up"}},
             {"stage", {"2", "3"}},
             {"method", {"delay", "pulse"}},
             {"samples", {"3", "4"}},
             {"sigma", {"0.04", "0.03"}},
             {"seed", {"7", "8"}},
             {"r-lo", {"2000", "3000"}},
             {"r-hi", {"30000", "40000"}},
             {"points", {"3", "4"}},
             {"csv", {"1", "0"}},
             {"strict", {"1", "0"}},
             {"solve-budget", {"60", "30"}},
             {"sweep-budget", {"60", "30"}},
             {"checkpoint", {"ck.json", "ck2.json"}},
             {"resume", {"ck.json", "ck2.json"}},
             {"fault-plan", {"seed=3", "seed=4"}},
             {"quarantine-json", {"q.json", "q2.json"}},
             {"threads", {"2", "3"}},
             {"w-lo", {"1e-10", "2e-10"}},
             {"w-hi", {"5e-10", "6e-10"}},
             {"steps", {"4", "5"}},
             {"target-coverage", {"0.9", "0.8"}},
             {"json", {"1", "0"}},
             {"min-severity", {"warning", "error"}},
             {"suppress", {"PPD302", "PPD301"}},
             {"bench", {"x.bench", "y.bench"}},
             {"clock", {"2e-9", "3e-9"}},
             {"k", {"3", "4"}},
             {"w-in-max", {"1e-9", "9e-10"}},
             {"w-th-floor", {"4e-11", "3e-11"}},
             {"margin", {"0.3", "0.2"}},
             {"slack-frac", {"0.3", "0.2"}}};
  return values;
}

std::optional<ReplayKey> key_of(const Session& session, QueryKind kind,
                                const std::string& arg,
                                std::uint64_t deadline_ms = 0) {
  std::optional<ReplayKey> key;
  (void)session.make_params(kind, arg, deadline_ms, key);
  return key;
}

TEST(ServiceReplayKey, EveryTableKeyAndTheUploadChangeTheKey) {
  const std::set<std::string> bypass{"solve-budget", "sweep-budget",
                                     "checkpoint",   "resume",
                                     "fault-plan",   "quarantine-json"};
  for (const QueryKind kind : kAllKinds) {
    const bool uploads = kind == QueryKind::kLint || kind == QueryKind::kSta;
    const std::string arg = uploads ? "t.bench" : "";
    Session base("s", SessionLimits{});
    if (uploads) base.upload(arg, kBenchText);
    const auto base_key = key_of(base, kind, arg);
    ASSERT_TRUE(base_key.has_value()) << query_kind_name(kind);
    // A second session with the same config and upload shares the key.
    Session twin("t", SessionLimits{});
    if (uploads) twin.upload(arg, kBenchText);
    const auto twin_key = key_of(twin, kind, arg);
    ASSERT_TRUE(twin_key.has_value());
    EXPECT_EQ(twin_key->key, base_key->key);
    EXPECT_EQ(twin_key->check, base_key->check);
    // No key at all for a deadline or with the solve cache off.
    EXPECT_FALSE(key_of(base, kind, arg, 60000).has_value());
    const bool was_enabled = cache::cache_enabled();
    cache::set_cache_enabled(false);
    EXPECT_FALSE(key_of(base, kind, arg).has_value());
    cache::set_cache_enabled(was_enabled);

    const auto& table = query_keys(kind);
    for (const auto& [key, values] : key_values()) {
      const auto key_with = [&](const std::string& value) {
        Session changed("c", SessionLimits{});
        if (uploads) changed.upload(arg, kBenchText);
        changed.set(key, value);
        return key_of(changed, kind, arg);
      };
      const auto first = key_with(values.first);
      const auto second = key_with(values.second);
      const std::string what = std::string(query_kind_name(kind)) + ' ' + key;
      const bool listed =
          std::find(table.begin(), table.end(), key) != table.end();
      if (listed && bypass.count(key) != 0) {
        EXPECT_FALSE(first.has_value()) << what;
        continue;
      }
      ASSERT_TRUE(first.has_value() && second.has_value()) << what;
      if (listed) {
        // Absent, one value and another value: three different keys, and
        // three different check digests.
        EXPECT_NE(first->key, base_key->key) << what;
        EXPECT_NE(first->key, second->key) << what;
        EXPECT_NE(second->key, base_key->key) << what;
        EXPECT_NE(first->check, base_key->check) << what;
        EXPECT_NE(first->check, second->check) << what;
      } else {
        EXPECT_EQ(first->key, base_key->key) << what;
        EXPECT_EQ(second->key, base_key->key) << what;
      }
    }
    if (!uploads) continue;
    Session other_bytes("b", SessionLimits{});
    other_bytes.upload(arg, std::string(kBenchText) + "\n");
    EXPECT_NE(key_of(other_bytes, kind, arg)->key, base_key->key);
    Session other_name("n", SessionLimits{});
    other_name.upload("u.bench", kBenchText);
    EXPECT_NE(key_of(other_name, kind, "u.bench")->key, base_key->key);
  }
  // sta without an upload: the bundled netlist is replayable, a local path
  // is not (the file can change under the key).
  Session synthetic("y", SessionLimits{});
  EXPECT_TRUE(key_of(synthetic, QueryKind::kSta, "").has_value());
  synthetic.set("bench", "x.bench");
  EXPECT_FALSE(key_of(synthetic, QueryKind::kSta, "").has_value());
}

/// Sets an environment variable (unless `value` is null) for one scope, so
/// an assertion that returns early cannot leave it set for later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value)
      : name_(name), set_(value != nullptr) {
    if (set_) setenv(name_, value, 1);
  }
  ~ScopedEnv() {
    if (set_) unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool set_;
};

TEST_F(ServiceTest, BypassConditionsNeverReplay) {
  const std::string dir = testing::TempDir();
  const std::string bench_path = dir + "replay_bypass.bench";
  {
    std::ofstream os(bench_path);
    os << kBenchText;
  }
  const std::string checkpoint = dir + "replay_bypass_ck.json";
  struct Case {
    const char* name;
    QueryKind kind;
    std::vector<std::pair<std::string, std::string>> keys;
    std::uint64_t deadline_ms = 0;
    bool env_fault_plan = false;
  };
  const std::vector<std::pair<std::string, std::string>> small = {
      {"samples", "2"}, {"points", "2"}};
  const auto with = [&small](std::string key, std::string value) {
    auto kv = small;
    kv.emplace_back(std::move(key), std::move(value));
    return kv;
  };
  const std::vector<Case> cases = {
      {"deadline", QueryKind::kTransfer, {{"points", "3"}}, 60000},
      {"solve-budget", QueryKind::kCoverage, with("solve-budget", "60")},
      {"sweep-budget", QueryKind::kCoverage, with("sweep-budget", "60")},
      {"rmin solve-budget", QueryKind::kRmin,
       {{"samples", "2"}, {"steps", "2"}, {"solve-budget", "60"}}},
      {"checkpoint", QueryKind::kCoverage, with("checkpoint", checkpoint)},
      {"resume", QueryKind::kCoverage, with("resume", checkpoint)},
      {"quarantine-json", QueryKind::kCoverage,
       with("quarantine-json", dir + "replay_bypass_q.json")},
      {"fault-plan", QueryKind::kCoverage, with("fault-plan", "seed=3")},
      {"PPD_FAULT_PLAN", QueryKind::kCoverage, small, 0, true},
      {"sta local path", QueryKind::kSta, {{"bench", bench_path}}},
  };
  for (const Case& c : cases) {
    cache::SolveCache::global().clear();
    const ScopedEnv env("PPD_FAULT_PLAN",
                        c.env_fault_plan ? "seed=3" : nullptr);
    Client client = Client::connect(server_->port());
    for (const auto& [k, v] : c.keys) client.set(k, v);
    const char* kind = query_kind_name(c.kind);
    const std::uint64_t before = replayed(client, kind);
    for (int run = 0; run < 2; ++run) {
      const Client::Submitted sub =
          client.submit(kind, "", Client::SubmitOptions{c.deadline_ms});
      ASSERT_FALSE(sub.busy) << c.name;
      EXPECT_EQ(client.wait(sub.id).status, "ok") << c.name;
    }
    EXPECT_EQ(replayed(client, kind), before) << c.name;
    client.quit();
  }
  std::remove(bench_path.c_str());
  std::remove(checkpoint.c_str());
  std::remove((dir + "replay_bypass_q.json").c_str());
}

TEST_F(ServiceTest, DisabledOrClearedCacheRunsAfresh) {
  Client client = Client::connect(server_->port());
  client.set("points", "3");
  const std::string body = client.run("transfer").body;

  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  EXPECT_EQ(client.run("transfer").body, body);
  EXPECT_EQ(client.run("transfer").body, body);
  cache::set_cache_enabled(was_enabled);
  EXPECT_EQ(replayed(client, "transfer"), 0u);

  cache::SolveCache::global().clear();
  EXPECT_EQ(client.run("transfer").body, body);
  EXPECT_EQ(replayed(client, "transfer"), 0u);
  EXPECT_EQ(client.run("transfer").body, body);
  EXPECT_EQ(replayed(client, "transfer"), 1u);
  client.quit();
}

TEST_F(ServiceTest, ErrorResultsAreNotStored) {
  Client client = Client::connect(server_->port());
  client.upload("t.bench", kBenchText);
  client.set("suppress", "PPD999");  // rejected when the query runs
  for (int run = 0; run < 2; ++run)
    EXPECT_EQ(client.run("sta", "t.bench").status, "error");
  EXPECT_EQ(replayed(client, "sta"), 0u);

  Session mirror("m", SessionLimits{});
  mirror.upload("t.bench", kBenchText);
  mirror.set("suppress", "PPD999");
  const auto key = key_of(mirror, QueryKind::kSta, "t.bench");
  ASSERT_TRUE(key.has_value());
  EXPECT_FALSE(find_replay(*key).has_value());
  client.quit();
}

TEST_F(ServiceTest, SecondDigestMismatchIsAMiss) {
  // Plant a body under the query's cache key with another check digest:
  // what a 64-bit collision with a different query would leave there.
  Session mirror("m", SessionLimits{});
  mirror.set("points", "3");
  const auto key = key_of(mirror, QueryKind::kTransfer, "");
  ASSERT_TRUE(key.has_value());
  const ReplayKey other{key->key, key->check ^ 1u};
  store_replay(other, QueryResult{"forged\n", 0});
  ASSERT_TRUE(find_replay(other).has_value());
  EXPECT_FALSE(find_replay(*key).has_value());

  Client client = Client::connect(server_->port());
  client.set("points", "3");
  const Client::Result res = client.run("transfer");
  EXPECT_EQ(res.body, direct_body(QueryKind::kTransfer, {{"points", "3"}}));
  EXPECT_EQ(replayed(client, "transfer"), 0u);
  client.quit();
}

// ---------------------------------------------------------------------------
// Quotas, overload control and hostile-input hardening.
// ---------------------------------------------------------------------------

/// Spin until `pred` holds (bounded) — replaces sleeps in the tests that
/// wait for a buffered result / failed delivery to become visible.
template <typename Pred>
bool poll_until(Pred pred, double seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Raw control-channel handshake; returns the session token.
std::string raw_control_handshake(TcpStream& control) {
  control.write_all("CONTROL\n");
  const auto hello = control.read_line();
  EXPECT_TRUE(hello.has_value() && is_ok(*hello));
  const auto words = util::split_ws(*hello);
  return words.size() > 4 ? words[4] : std::string();
}

TEST(ServiceQuota, MalformedUploadSizeAnswersErrAndDropsConnection) {
  // A size that cannot be parsed leaves the server with no way to know how
  // many payload bytes follow — the only safe move is a typed ERR and a
  // dropped connection, never an allocation sized by hostile input.
  ServerOptions options;
  Server server(options);
  server.start();
  for (const char* size : {"-1", "99999999999999999999999", "12abc", "0x10"}) {
    TcpStream control = TcpStream::connect_loopback(server.port());
    (void)raw_control_handshake(control);
    control.write_all(std::string("UPLOAD evil.bench ") + size + "\n");
    const auto reply = control.read_line();
    ASSERT_TRUE(reply.has_value()) << size;
    EXPECT_EQ(reply->rfind("ERR quota.size", 0), 0u) << *reply;
    // The connection is gone: the next read sees EOF (no resync possible).
    try {
      EXPECT_FALSE(control.read_line().has_value()) << size;
    } catch (const NetError&) {
      // RST instead of FIN is also an acceptable way to be dropped.
    }
  }
  // The violations never destabilized the server.
  Client probe = Client::connect(server.port());
  EXPECT_TRUE(is_ok(probe.ping()));
  EXPECT_GE(server.stats().quota_violations, 4u);
  probe.quit();
  server.stop();
}

TEST(ServiceQuota, UploadNameWithPathSeparatorsIsRefused) {
  ServerOptions options;
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  for (const char* name : {"../escape", "a/b.bench", "a\\b.bench"}) {
    try {
      client.upload(name, "x");
      FAIL() << "upload accepted hostile name " << name;
    } catch (const ServiceError& e) {
      EXPECT_NE(std::string(e.what()).find("quota.name"), std::string::npos)
          << e.what();
    }
  }
  // The session survives every refusal.
  EXPECT_TRUE(is_ok(client.ping()));
  client.quit();
  server.stop();
}

TEST(ServiceQuota, OversizedUploadIsDiscardedAndSessionSurvives) {
  // Well-formed but over-budget: the payload is drained in bounded chunks
  // (never allocated), the reply is a typed ERR, and the control stream
  // stays in sync for the next command.
  ServerOptions options;
  options.limits.max_upload_bytes = 16;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  (void)raw_control_handshake(control);
  const std::string payload(64, 'x');
  control.write_all("UPLOAD big.bench 64\n" + payload);
  const auto reply = control.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR quota.upload_bytes", 0), 0u) << *reply;
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");

  // The cumulative budget also holds across small uploads: the second blob
  // that would push the total over is refused after being read, and the
  // session keeps serving.
  control.write_all("UPLOAD a.bench 12\nINPUT(a)\n a ");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  control.write_all("UPLOAD b.bench 12\nINPUT(b)\n b ");
  const auto over = control.read_line();
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->rfind("ERR quota.upload_bytes", 0), 0u) << *over;
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");
  control.shutdown_both();
  server.stop();
}

TEST(ServiceQuota, OverlongControlLineAnswersErrAndStreamResyncs) {
  ServerOptions options;
  options.limits.max_line_bytes = 64;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  (void)raw_control_handshake(control);
  // 4 KiB of junk on one line: the reader must never buffer it all, answer
  // a typed ERR, and resync at the newline.
  control.write_all("SET noise " + std::string(4096, 'z') + "\n");
  const auto reply = control.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR quota.line", 0), 0u) << *reply;
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");
  // A line just over the cap whose newline lands in the same TCP segment
  // (well under one recv) must be refused too, not slip through because the
  // terminator was already buffered.
  control.write_all("SET noise " + std::string(80, 'z') + "\n");
  const auto small_over = control.read_line();
  ASSERT_TRUE(small_over.has_value());
  EXPECT_EQ(small_over->rfind("ERR quota.line", 0), 0u) << *small_over;
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");
  control.shutdown_both();
  EXPECT_GE(server.stats().quota_violations, 2u);
  server.stop();
}

TEST(ServiceQuota, ResultBacklogCapAnswersBusyBacklog) {
  // With no data channel attached, completed results pile up as
  // undelivered; past max_backlog the next QUERY is refused with the typed
  // backlog reply rather than buffering without bound.
  ServerOptions options;
  options.limits.max_queue = 8;
  options.limits.max_backlog = 1;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  (void)raw_control_handshake(control);
  control.write_all("SET points 3\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  control.write_all("QUERY transfer\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  // Wait for the result to land in the undelivered buffer.
  ASSERT_TRUE(poll_until([&control] {
    control.write_all("STATS\n");
    const json::Value stats = json::parse(control.read_line().value());
    return stats.at("sessions").items.size() == 1 &&
           stats.at("sessions").items[0].at("undelivered").as_uint() >= 1;
  }));
  control.write_all("QUERY transfer\n");
  const auto reply = control.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("BUSY backlog", 0), 0u) << *reply;
  control.shutdown_both();
  server.stop();
}

TEST(ServiceOverload, DeadlineExpiredWhileQueuedIsNeverExecuted) {
  ServerOptions options;
  options.debug_pickup_delay_seconds = 0.2;  // simulated queue delay
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  client.set("points", "3");
  const Client::Submitted sub =
      client.submit("transfer", "", Client::SubmitOptions{/*deadline_ms=*/50});
  ASSERT_FALSE(sub.busy);
  const Client::Result res = client.wait(sub.id);
  EXPECT_EQ(res.status, "expired");
  EXPECT_NE(res.error.find("deadline"), std::string::npos) << res.error;
  EXPECT_TRUE(res.body.empty());  // expired queries never execute

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.queries_expired, 1u);
  EXPECT_EQ(stats.queries_ok, 0u);
  const json::Value doc = json::parse(client.stats());
  EXPECT_EQ(doc.at("server").at("queries_expired").as_uint(), 1u);
  EXPECT_EQ(doc.at("kinds").at("transfer").at("expired").as_uint(), 1u);
  client.quit();
  server.stop();
}

TEST(ServiceOverload, ShedsLowPriorityKindsFirstAboveWatermark) {
  // ceiling 2, watermark 1: with one job pinned in flight the server is in
  // shed mode — coverage (lowest priority) is refused with the typed shed
  // reply while transfer (highest) still gets the last slot; at the ceiling
  // everything gets the typed server-ceiling reply. Deterministic: the
  // pinned pickup delay holds the jobs in flight for the whole sequence.
  ServerOptions options;
  options.max_inflight_total = 2;
  options.shed_watermark = 1;
  options.debug_pickup_delay_seconds = 0.4;
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  client.set("points", "3");
  client.set("samples", "3");

  const Client::Submitted first = client.submit("transfer");
  ASSERT_FALSE(first.busy);
  const Client::Submitted shed = client.submit("coverage");
  EXPECT_TRUE(shed.busy);
  EXPECT_NE(shed.reply.find("BUSY shed"), std::string::npos) << shed.reply;
  const Client::Submitted second = client.submit("transfer");
  ASSERT_FALSE(second.busy);
  const Client::Submitted ceiling = client.submit("transfer");
  EXPECT_TRUE(ceiling.busy);
  EXPECT_NE(ceiling.reply.find("BUSY server"), std::string::npos)
      << ceiling.reply;

  // The accepted queries still complete normally once picked up.
  EXPECT_EQ(client.wait(first.id).status, "ok");
  EXPECT_EQ(client.wait(second.id).status, "ok");
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.queries_shed, 1u);
  EXPECT_GE(stats.queries_busy, 1u);
  // The server delivers a result event before it releases the job's
  // in-flight slot, so STATS right after wait() may still count the job.
  // Wait for the slot to be released before checking the shed state.
  json::Value doc;
  ASSERT_TRUE(poll_until([&] {
    doc = json::parse(client.stats());
    return doc.at("server").at("jobs_in_flight").as_uint() == 0;
  }));
  EXPECT_GE(doc.at("kinds").at("coverage").at("shed").as_uint(), 1u);
  EXPECT_EQ(doc.at("server").at("shed_mode").as_bool(), false);
  client.quit();
  server.stop();
}

TEST(ServiceResilience, DataWriteFailureIsCountedAndParksTheEvent) {
  // The delivery write path must treat EPIPE/ECONNRESET as a value: the
  // channel detaches, the event parks as undelivered (slot retained), and
  // net.data.write_failed counts it — never an escaping exception.
  const auto failed_before = obs::counter("net.data.write_failed").value();
  TcpListener listener(0);
  TcpStream peer = TcpStream::connect_loopback(listener.port());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.has_value());
  Session session("t", SessionLimits{});
  session.attach_data(std::make_shared<TcpStream>(std::move(*accepted)));
  peer.close();  // peer gone; the RST lands asynchronously
  // Deliveries keep "succeeding" into the socket buffer until the RST
  // arrives; the first write after it fails and parks its event.
  bool parked = false;
  for (int i = 0; i < 200 && !parked; ++i) {
    const std::uint64_t id = session.admit();
    ASSERT_NE(id, 0u);
    session.deliver("{\"event\":\"result\",\"id\":" + std::to_string(id) +
                    "}");
    parked = session.undelivered() > 0;
    if (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(parked);
  EXPECT_GT(obs::counter("net.data.write_failed").value(), failed_before);
  listener.close();
}

TEST(ServiceResilience, DataChannelDeathIsAbsorbedAndFlushedOnReattach) {
  // Killing the data socket must cost the server nothing: results for a
  // dead channel park as undelivered, the control channel keeps answering,
  // and a fresh DATA attach flushes the buffered tail.
  ServerOptions options;
  Server server(options);
  server.start();

  TcpStream control = TcpStream::connect_loopback(server.port());
  const std::string token = raw_control_handshake(control);
  ASSERT_FALSE(token.empty());
  control.write_all("SET points 3\n");
  ASSERT_TRUE(is_ok(control.read_line().value()));
  {
    TcpStream data = TcpStream::connect_loopback(server.port());
    data.write_all("DATA " + token + "\n");
    ASSERT_TRUE(is_ok(data.read_line().value()));
    ASSERT_TRUE(data.read_line().has_value());  // hello event
    data.close();  // abrupt death
  }
  for (int q = 0; q < 2; ++q) {
    control.write_all("QUERY transfer\n");
    ASSERT_TRUE(is_ok(control.read_line().value()));
  }
  // Both results end up parked for the dead channel.
  ASSERT_TRUE(poll_until([&control] {
    control.write_all("STATS\n");
    const json::Value stats = json::parse(control.read_line().value());
    return stats.at("sessions").items.size() == 1 &&
           stats.at("sessions").items[0].at("undelivered").as_uint() >= 2;
  }));
  // Control channel unaffected by the dead data channel.
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");

  // Reattach: the undelivered tail flushes to the new channel.
  TcpStream data2 = TcpStream::connect_loopback(server.port());
  data2.write_all("DATA " + token + "\n");
  ASSERT_TRUE(is_ok(data2.read_line().value()));
  int results = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (results < 1 && std::chrono::steady_clock::now() < deadline) {
    const auto line = data2.read_line();
    if (!line) break;
    if (line->rfind("{\"event\":\"result\"", 0) == 0) ++results;
  }
  EXPECT_GE(results, 1);
  control.write_all("QUIT\n");
  (void)control.read_line();
  server.stop();
}

TEST(ServiceFraming, DribbledControlBytesParseAsOneLine) {
  // A slow-loris client sending one byte at a time must look identical to
  // a whole-line write once the newline arrives.
  ServerOptions options;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  (void)raw_control_handshake(control);
  const std::string line = "PING\n";
  for (const char c : line) control.write_all(std::string_view(&c, 1));
  EXPECT_EQ(control.read_line().value(), "OK pong");
  control.shutdown_both();
  server.stop();
}

TEST(ServiceFraming, CoalescedControlFramesAnswerInOrder) {
  // Several commands in one TCP segment: the reader must split them at
  // newlines and answer each in order (no frame is lost or merged).
  ServerOptions options;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  (void)raw_control_handshake(control);
  control.write_all("PING\nSTATS\nPING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");
  const auto stats = control.read_line();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NO_THROW((void)json::parse(*stats));
  EXPECT_EQ(control.read_line().value(), "OK pong");
  control.shutdown_both();
  server.stop();
}

// ---------------------------------------------------------------------------
// Session lifetime: a session ends with its control connection, and a
// reconnecting client rebuilds its state in a fresh one.
// ---------------------------------------------------------------------------

TEST(ServiceLifecycle, DroppedClientsEndTheirSessionsAndInFlightJobsFinish) {
  // Clients that vanish without QUIT take their sessions with them, even
  // with a query still queued; the orphaned job runs to completion into a
  // session nobody can reach (the sanitizer builds check it touches no
  // freed state).
  ServerOptions options;
  options.debug_pickup_delay_seconds = 0.2;  // keeps the query in flight
  Server server(options);
  server.start();
  {
    std::vector<Client> clients;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(Client::connect(server.port()));
      clients.back().set("points", "3");
    }
    ASSERT_FALSE(clients[0].submit("transfer").busy);
    EXPECT_EQ(server.stats().sessions_active, 3u);
    EXPECT_EQ(server.stats().jobs_in_flight, 1u);
  }  // every client dropped without QUIT
  EXPECT_TRUE(poll_until([&server] {
    return server.stats().sessions_active == 0;
  }));
  EXPECT_TRUE(poll_until([&server] {
    const Server::Stats s = server.stats();
    return s.jobs_in_flight == 0 && s.queries_ok == 1;
  }));
  EXPECT_EQ(json::parse(server.stats_json()).at("sessions").items.size(), 0u);
  server.stop();
}

TEST(ServiceLifecycle, ControlConnectionDyingMidReplyEndsItsSession) {
  // Clients that flood PINGs and close without reading reset their
  // connections while the server is still writing replies; the failed
  // write must end the session like an EOF does, not leak it.
  ServerOptions options;
  Server server(options);
  server.start();
  std::string flood;
  for (int i = 0; i < 5000; ++i) flood += "PING\n";
  for (int c = 0; c < 8; ++c) {
    TcpStream control = TcpStream::connect_loopback(server.port());
    (void)raw_control_handshake(control);
    control.write_all(flood);
    control.close();  // unread replies pending: the close sends a reset
  }
  EXPECT_TRUE(poll_until([&server] {
    return server.stats().sessions_active == 0;
  })) << "sessions_active=" << server.stats().sessions_active;
  server.stop();
}

TEST(ServiceLifecycle, ResumeAndReissueIdsAreNotPartOfTheProtocol) {
  ServerOptions options;
  Server server(options);
  server.start();
  TcpStream control = TcpStream::connect_loopback(server.port());
  const std::string token = raw_control_handshake(control);
  ASSERT_EQ(token, "s1");
  control.write_all("RESUME s1\n");
  const std::string resume = control.read_line().value();
  EXPECT_EQ(resume.rfind("ERR unknown command", 0), 0u) << resume;
  control.write_all("QUERY transfer id=3\n");
  const std::string reissue = control.read_line().value();
  EXPECT_EQ(reissue.rfind("ERR usage: QUERY", 0), 0u) << reissue;
  // The session survives both refusals.
  control.write_all("PING\n");
  EXPECT_EQ(control.read_line().value(), "OK pong");
  control.write_all("SET points 3\n");
  EXPECT_EQ(control.read_line().value(), "OK");
  control.write_all("QUERY transfer\n");
  EXPECT_EQ(control.read_line().value(), "OK 1");
  control.write_all("QUIT\n");
  EXPECT_EQ(control.read_line().value(), "OK bye");
  server.stop();
}

TEST(ServiceLifecycle, RestartedServerGivesReSentSessionTheSameBytes) {
  // The recovery story: a server restarted on the same port knows nothing
  // of its former sessions, and a client that re-SETs and re-UPLOADs gets
  // the bytes the first instance served.
  const auto serve = [](Client& client) {
    client.set("points", "4");
    client.upload("t.bench", kBenchText);
    const Client::Result transfer = client.run("transfer");
    const Client::Result sta = client.run("sta", "t.bench");
    EXPECT_EQ(transfer.status, "ok");
    EXPECT_EQ(sta.status, "ok");
    return std::make_pair(transfer.body, sta.body);
  };
  cache::SolveCache::global().clear();
  std::optional<Server> server(std::in_place, ServerOptions{});
  server->start();
  const std::uint16_t port = server->port();
  Client first = Client::connect(port);
  const auto before = serve(first);
  server->stop();
  server.reset();
  // A restart empties the replay cache too.
  cache::SolveCache::global().clear();

  ServerOptions same_port;
  same_port.port = port;
  server.emplace(same_port);
  server->start();
  ASSERT_EQ(server->port(), port);
  // The old session is gone: its token names no session on the new server.
  TcpStream data = TcpStream::connect_loopback(port);
  data.write_all("DATA " + first.session() + "\n");
  EXPECT_EQ(data.read_line().value().rfind("ERR", 0), 0u);
  Client second = Client::connect(port);
  const auto after = serve(second);
  EXPECT_EQ(after.first, before.first);
  EXPECT_EQ(after.second, before.second);
  EXPECT_EQ(after.first, direct_body(QueryKind::kTransfer, {{"points", "4"}}));
  EXPECT_EQ(after.second, direct_body(QueryKind::kSta, {{"points", "4"}}));
  second.quit();
  server->stop();
  cache::SolveCache::global().clear();
}

}  // namespace
}  // namespace ppd::net
