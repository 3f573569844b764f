// Service load bench: N concurrent ppdctl-style clients against one
// in-process ppdd server, mixed query types, cold cache then warm cache,
// then replays of repeated queries.
//
// Emits perf_engine-style JSON rows:
//   {"section":"meta",...}
//   {"section":"service_load","pass":"cold"|"warm"|"replay"|"warm_noobs",
//    "clients":N,...,"p50_ms":...,"p99_ms":...,"throughput_qps":...,
//    "identical":true,"replayed_share":...}
//   {"section":"service_load","pass":"overload","offered":N,"accepted":N,
//    "busy":N,"expired":N,"shed_rate":...,"p99_ms":...,"typed":true,
//    "alive":true,"identical":true}
//   {"section":"service_obs_overhead","pairs":N,"p50_on_ms":...,
//    "p50_off_ms":...,"overhead_pct":...}
//   {"section":"service_load_summary","warm_p50_speedup":...,
//    "replay_p50_speedup":...,"metrics_events":N,...}
//
// The server answers a repeated query from the solve cache without solving
// (a replay). So that the cold, warm and observability passes measure
// solving queries, every client round of them spells one setting of each
// query differently ("points 7.000", "suppress ,,,"): the body and the
// cached measurements stay the same, the replay key does not, and no query
// of those passes replays (replayed_share 0). The replay pass repeats the
// warm pass's exact queries, so every one of its queries is a replay
// (replayed_share 1).
//
// Every served response is compared byte-for-byte against the result of
// calling net::run_query directly with the same parameters — the
// bit-identity contract under concurrent multi-client load, not just in the
// single-shot case. Every result event must also carry a non-zero query id
// and a positive execute time (the observability contract). A subscriber
// client rides along during the warm pass and validates the SUBSCRIBE
// metrics stream. The observability overhead on the served path comes from
// N pairs of warm passes with metrics recording on and off (alternating
// which side runs first); overhead_pct is the median of the paired p50
// differences, and the warm_noobs row pools the metrics-off passes.
//
// The overload pass (PR 9) offers 2x the configured capacity against a
// dedicated server with a tiny in-flight ceiling: every refused query must
// carry a typed BUSY reply (never a silent drop), a deadline-carrying query
// behind the simulated queue delay must come back "expired", accepted
// queries must stay byte-identical, and the server must answer normally
// afterwards. It reports the shed rate and the p99 of *accepted* queries —
// the latency promise load shedding exists to protect.
//
// The bench exits non-zero if any contract breaks.
//
//   --clients=N   concurrent client connections (default 6, min 4)
//   --rounds=N    repetitions of the query mix per client (default 2)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/net/query.hpp"
#include "ppd/net/server.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/json.hpp"

namespace {

using namespace ppd;
using Clock = std::chrono::steady_clock;

constexpr const char* kBenchUpload = "load.bench";
constexpr const char* kBenchText =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

struct QuerySpec {
  const char* kind;
  std::string arg;  // lint upload name
  std::vector<std::pair<std::string, std::string>> params;
  /// Spelling `salt` of one of the kind's settings: `salt_key` set to
  /// `salt_base` followed by `salt` copies of `salt_pad` means the same
  /// thing for every salt (trailing zeros of a number, empty fields of a
  /// list), so the body is the same and the replay key is not.
  const char* salt_key;
  const char* salt_base;
  char salt_pad;

  [[nodiscard]] std::string salted(int salt) const {
    return salt_base + std::string(static_cast<std::size_t>(salt), salt_pad);
  }
};

// Small instances of every query kind: the bench measures service overhead
// and cache amortization, not the electrical solver itself.
std::vector<QuerySpec> query_mix() {
  return {
      {"transfer", "", {{"points", "7"}}, "points", "7.", '0'},
      {"calibrate", "", {{"samples", "6"}}, "samples", "6.", '0'},
      {"coverage", "", {{"samples", "4"}, {"points", "3"}}, "samples", "4.",
       '0'},
      {"rmin", "", {{"samples", "3"}, {"steps", "4"}}, "samples", "3.", '0'},
      {"lint", kBenchUpload, {}, "suppress", "", ','},
  };
}

/// What ppdtool would print for this spec — the byte-identity reference.
std::string expected_body(const QuerySpec& spec) {
  const net::QueryKind kind = net::query_kind_from_string(spec.kind);
  net::QueryParams params = net::params_from_lookup(
      kind, [&spec](const std::string& key) -> std::optional<std::string> {
        for (const auto& [k, v] : spec.params)
          if (k == key) return v;
        return std::nullopt;
      });
  if (kind == net::QueryKind::kLint) {
    params.lint_name = kBenchUpload;
    params.lint_text = kBenchText;
  }
  return net::run_query(kind, params).body;
}

struct ClientStats {
  std::vector<double> latencies_s;
  int mismatches = 0;
};

/// `first_salt` is the salt of the client's first round; rounds count up
/// from it.
ClientStats run_client(std::uint16_t port, int rounds,
                       const std::vector<QuerySpec>& mix,
                       const std::vector<std::string>& expected,
                       int first_salt) {
  ClientStats stats;
  net::Client client = net::Client::connect(port);
  client.upload(kBenchUpload, kBenchText);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t q = 0; q < mix.size(); ++q) {
      for (const auto& [key, value] : mix[q].params)
        client.set(key, value);
      client.set(mix[q].salt_key, mix[q].salted(first_salt + round));
      const auto start = Clock::now();
      const net::Client::Result res = client.run(mix[q].kind, mix[q].arg);
      stats.latencies_s.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      // Body byte-identity plus the observability contract: every result
      // carries its server-wide query id and a positive execute time.
      if (res.status != "ok" || res.body != expected[q] || res.qid == 0 ||
          res.execute_s <= 0.0)
        ++stats.mismatches;
    }
  }
  client.quit();
  return stats;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       std::ceil(p * static_cast<double>(v.size())) - 1.0));
  return v[idx];
}

struct PassResult {
  std::vector<double> latencies_s;  ///< one per query
  double wall_s = 0.0;
  bool identical = true;
  std::uint64_t replayed = 0;  ///< queries the server answered by replay

  [[nodiscard]] double p50_ms() const {
    return percentile(latencies_s, 0.50) * 1e3;
  }
  [[nodiscard]] double p99_ms() const {
    return percentile(latencies_s, 0.99) * 1e3;
  }
  /// Pool another pass of the same workload into this one.
  void add(const PassResult& other) {
    latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                       other.latencies_s.end());
    wall_s += other.wall_s;
    identical = identical && other.identical;
    replayed += other.replayed;
  }
  [[nodiscard]] double replayed_share() const {
    return latencies_s.empty() ? 0.0
                               : static_cast<double>(replayed) /
                                     static_cast<double>(latencies_s.size());
  }
};

/// Replays the server has counted, summed over the query kinds. Counts only
/// while metrics record.
std::uint64_t replayed_total(const net::Server& server) {
  std::uint64_t total = 0;
  for (const auto& [kind, row] :
       util::json::parse(server.stats_json()).at("kinds").members)
    total += row.at("replayed").as_uint();
  return total;
}

/// One pass of every client over the mix. Each client round gets its own
/// salt, counting up from `first_salt`.
PassResult run_pass(const net::Server& server, int clients, int rounds,
                    const std::vector<QuerySpec>& mix,
                    const std::vector<std::string>& expected,
                    int first_salt) {
  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  const std::uint64_t replayed_before = replayed_total(server);
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        stats[static_cast<std::size_t>(c)] =
            run_client(server.port(), rounds, mix, expected,
                       first_salt + c * rounds);
      });
    for (auto& t : threads) t.join();
  }
  PassResult res;
  res.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  res.replayed = replayed_total(server) - replayed_before;
  for (const auto& s : stats) {
    res.latencies_s.insert(res.latencies_s.end(), s.latencies_s.begin(),
                           s.latencies_s.end());
    res.identical = res.identical && s.mismatches == 0;
  }
  return res;
}

void print_pass(const char* pass, int clients, int rounds,
                const PassResult& res) {
  std::printf(
      "{\"section\":\"service_load\",\"pass\":\"%s\",\"clients\":%d,"
      "\"rounds\":%d,\"queries\":%zu,\"wall_s\":%.4f,"
      "\"throughput_qps\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"identical\":%s,\"replayed_share\":%.3f}\n",
      pass, clients, rounds, res.latencies_s.size(), res.wall_s,
      static_cast<double>(res.latencies_s.size()) / res.wall_s, res.p50_ms(),
      res.p99_ms(), res.identical ? "true" : "false", res.replayed_share());
}

struct OverloadResult {
  int offered = 0;    ///< every QUERY submitted
  int accepted = 0;   ///< got a slot (result event followed)
  int busy = 0;       ///< typed BUSY (shed / ceiling / backlog)
  int ok = 0;
  int expired = 0;    ///< typed result status "expired"
  int errors = 0;     ///< body mismatch / error status / untyped outcome
  double p99_ms = 0.0;  ///< over accepted queries only
  bool alive = false;   ///< server answered normally after the storm
};

/// Offered load at 2x the server's in-flight capacity: `clients` concurrent
/// connections against a ceiling of clients/2. Every submit must resolve to
/// a typed outcome — accepted (result event), or a reply starting "BUSY".
OverloadResult run_overload_pass(int clients, int rounds,
                                 const std::vector<QuerySpec>& mix,
                                 const std::vector<std::string>& expected) {
  net::ServerOptions options;
  options.port = 0;
  options.max_inflight_total = static_cast<std::size_t>(std::max(1, clients / 2));
  // Hold each accepted query at pickup for a beat: capacity stays genuinely
  // saturated for the whole storm instead of depending on solver timing.
  options.debug_pickup_delay_seconds = 0.005;
  net::Server server(options);
  server.start();

  std::vector<OverloadResult> per_client(static_cast<std::size_t>(clients));
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        OverloadResult& out = per_client[static_cast<std::size_t>(c)];
        std::vector<double>& lat = latencies[static_cast<std::size_t>(c)];
        net::Client client = net::Client::connect(server.port());
        client.upload(kBenchUpload, kBenchText);
        net::Client::SubmitOptions opts;
        opts.deadline_ms = 2000;  // generous: queue delay alone never expires
        for (int round = 0; round < rounds; ++round) {
          for (std::size_t q = 0; q < mix.size(); ++q) {
            for (const auto& [key, value] : mix[q].params)
              client.set(key, value);
            ++out.offered;
            const auto start = Clock::now();
            const net::Client::Submitted sub =
                client.submit(mix[q].kind, mix[q].arg, opts);
            if (sub.busy) {
              // Refusals must be typed, never a silent drop.
              if (sub.reply.rfind("BUSY", 0) == 0)
                ++out.busy;
              else
                ++out.errors;
              continue;
            }
            ++out.accepted;
            const net::Client::Result res = client.wait(sub.id);
            lat.push_back(
                std::chrono::duration<double>(Clock::now() - start).count());
            if (res.status == "ok" && res.body == expected[q])
              ++out.ok;
            else if (res.status == "expired")
              ++out.expired;
            else
              ++out.errors;
          }
        }
        client.quit();
      });
    for (auto& t : threads) t.join();
  }

  OverloadResult total;
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    const OverloadResult& out = per_client[static_cast<std::size_t>(c)];
    total.offered += out.offered;
    total.accepted += out.accepted;
    total.busy += out.busy;
    total.ok += out.ok;
    total.expired += out.expired;
    total.errors += out.errors;
    all.insert(all.end(), latencies[static_cast<std::size_t>(c)].begin(),
               latencies[static_cast<std::size_t>(c)].end());
  }
  total.p99_ms = percentile(all, 0.99) * 1e3;

  // Deterministic deadline expiry: alone on the server, a 1 ms deadline
  // behind the 5 ms pickup delay must be admitted, never executed, and
  // reported with the typed "expired" status.
  try {
    net::Client late = net::Client::connect(server.port());
    late.set("points", "7");
    net::Client::SubmitOptions opts;
    opts.deadline_ms = 1;
    const net::Client::Submitted sub = late.submit("transfer", "", opts);
    if (!sub.busy) {
      ++total.offered;
      ++total.accepted;
      const net::Client::Result res = late.wait(sub.id);
      if (res.status == "expired" && res.body.empty())
        ++total.expired;
      else
        ++total.errors;
    }
    // The server must still answer normally after the storm.
    total.alive = net::is_ok(late.ping()) &&
                  util::json::parse(late.stats())
                          .at("server")
                          .at("draining")
                          .as_bool() == false;
    late.quit();
  } catch (const std::exception&) {
    total.alive = false;
  }
  server.drain();
  return total;
}

struct SubscriberResult {
  int events = 0;
  bool ok = false;
};

/// Ride-along metrics subscriber: SUBSCRIBE at a fast period, validate
/// `want` consecutive frames (parseable, seq increments, stats present).
SubscriberResult run_subscriber(std::uint16_t port, int want) {
  SubscriberResult out;
  try {
    net::Client client = net::Client::connect(port);
    client.subscribe(0.05);
    std::uint64_t last_seq = 0;
    while (out.events < want) {
      const auto line = client.next_event();
      if (!line) return out;
      if (line->rfind("{\"event\":\"metrics\"", 0) != 0) continue;
      const util::json::Value ev = util::json::parse(*line);
      const std::uint64_t seq = ev.at("seq").as_uint();
      if (seq != last_seq + 1) return out;
      last_seq = seq;
      (void)ev.at("stats").at("server").at("queries_accepted").as_uint();
      (void)ev.at("interval").at("transfer").at("ok").as_uint();
      ++out.events;
    }
    out.ok = true;
    client.quit();
  } catch (const std::exception&) {
    // Validation failure or a dropped stream: reported via ok=false.
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ScopedRun run(obs::extract_run_options(argc, argv));
  const util::Cli cli(argc, argv, {"clients", "rounds"});
  const int clients = std::max(4, cli.get("clients", 6));
  const int rounds = std::max(1, cli.get("rounds", 2));

  const auto mix = query_mix();

  std::printf("{\"section\":\"meta\",\"meta\":%s}\n",
              obs::run_meta_json(2007, 0).c_str());

  // Reference bodies computed directly (no socket), against a cold cache so
  // the reference itself is what single-shot ppdtool prints.
  cache::SolveCache::global().clear();
  std::vector<std::string> expected;
  expected.reserve(mix.size());
  for (const auto& spec : mix) expected.push_back(expected_body(spec));

  net::ServerOptions options;
  options.port = 0;
  net::Server server(options);
  server.start();

  // Each pass but the replay pass takes the next clients * rounds salts, so
  // no two client rounds of those passes send the same replay key.
  int next_salt = 1;
  const auto fresh_salts = [&next_salt, clients, rounds] {
    const int first = next_salt;
    next_salt += clients * rounds;
    return first;
  };

  // Cold pass: empty cache, every client pays its own solves (minus what
  // concurrent clients share). Warm pass: the same workload, spelled with
  // new salts, against the populated measurement cache.
  cache::SolveCache::global().clear();
  const PassResult cold = run_pass(server, clients, rounds, mix, expected,
                                   fresh_salts());
  print_pass("cold", clients, rounds, cold);

  // A subscriber validates the SUBSCRIBE metrics stream while the warm
  // pass generates load (the stream keeps flowing after the pass, so the
  // join cannot deadlock).
  SubscriberResult sub;
  std::thread subscriber(
      [&sub, &server] { sub = run_subscriber(server.port(), 2); });
  const int warm_salt = fresh_salts();
  const PassResult warm =
      run_pass(server, clients, rounds, mix, expected, warm_salt);
  print_pass("warm", clients, rounds, warm);
  subscriber.join();

  // Replay pass: the warm pass's queries again, each answered with the
  // bytes its warm run stored.
  const PassResult replay =
      run_pass(server, clients, rounds, mix, expected, warm_salt);
  print_pass("replay", clients, rounds, replay);

  // Observability overhead on the served path: pairs of warm passes with
  // metrics recording on and off, in alternating order, with no subscriber
  // on either side (the warm pass's subscriber has quit). A single ~2 ms
  // p50 pair swings by +-30 % run to run; the median of the paired
  // differences cancels the drift between pairs and the outliers.
  constexpr int kOverheadPairs = 21;
  std::vector<double> on_p50_ms, off_p50_ms, overhead_pcts;
  PassResult on_pooled, noobs;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    PassResult on, off;
    for (const bool metrics : {pair % 2 == 0, pair % 2 != 0}) {
      obs::set_metrics_enabled(metrics);
      (metrics ? on : off) =
          run_pass(server, clients, rounds, mix, expected, fresh_salts());
    }
    obs::set_metrics_enabled(true);
    on_p50_ms.push_back(on.p50_ms());
    off_p50_ms.push_back(off.p50_ms());
    if (off.p50_ms() > 0.0)
      overhead_pcts.push_back((on.p50_ms() - off.p50_ms()) / off.p50_ms() *
                              100.0);
    on_pooled.add(on);
    noobs.add(off);
  }
  // Replays are counted only while metrics record: this row's share is the
  // metrics-on passes'.
  noobs.replayed = on_pooled.replayed;
  print_pass("warm_noobs", clients, rounds * kOverheadPairs, noobs);
  std::printf(
      "{\"section\":\"service_obs_overhead\",\"pairs\":%d,"
      "\"p50_on_ms\":%.3f,\"p50_off_ms\":%.3f,\"overhead_pct\":%.2f}\n",
      kOverheadPairs, percentile(on_p50_ms, 0.5), percentile(off_p50_ms, 0.5),
      percentile(overhead_pcts, 0.5));

  // Overload: 2x capacity against a dedicated small-ceiling server. The
  // accounting must be airtight — every offered query resolves to accepted
  // or typed BUSY, every accepted one to ok/expired, and the server stays
  // healthy.
  const OverloadResult over =
      run_overload_pass(clients, rounds, mix, expected);
  const bool over_typed =
      over.errors == 0 && over.offered == over.accepted + over.busy &&
      over.accepted == over.ok + over.expired;
  const double shed_rate =
      over.offered > 0
          ? static_cast<double>(over.busy) / static_cast<double>(over.offered)
          : 0.0;
  std::printf(
      "{\"section\":\"service_load\",\"pass\":\"overload\",\"clients\":%d,"
      "\"rounds\":%d,\"offered\":%d,\"accepted\":%d,\"busy\":%d,\"ok\":%d,"
      "\"expired\":%d,\"errors\":%d,\"shed_rate\":%.3f,\"p99_ms\":%.3f,"
      "\"typed\":%s,\"alive\":%s,\"identical\":%s}\n",
      clients, rounds, over.offered, over.accepted, over.busy, over.ok,
      over.expired, over.errors, shed_rate, over.p99_ms,
      over_typed ? "true" : "false", over.alive ? "true" : "false",
      over.errors == 0 ? "true" : "false");

  const bool identical = cold.identical && warm.identical &&
                         replay.identical && on_pooled.identical &&
                         noobs.identical;
  std::printf(
      "{\"section\":\"service_load_summary\",\"warm_p50_speedup\":%.3f,"
      "\"warm_p99_speedup\":%.3f,\"replay_p50_speedup\":%.3f,"
      "\"metrics_events\":%d,\"identical\":%s}\n",
      warm.p50_ms() > 0.0 ? cold.p50_ms() / warm.p50_ms() : 0.0,
      warm.p99_ms() > 0.0 ? cold.p99_ms() / warm.p99_ms() : 0.0,
      replay.p50_ms() > 0.0 ? warm.p50_ms() / replay.p50_ms() : 0.0,
      sub.events, identical ? "true" : "false");

  server.drain();
  return identical && sub.ok && over_typed && over.alive ? 0 : 1;
}
