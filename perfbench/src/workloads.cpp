#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/cells/path.hpp"
#include "ppd/core/coverage.hpp"
#include "ppd/core/path_screen.hpp"
#include "ppd/core/pulse_test.hpp"
#include "ppd/core/rmin.hpp"
#include "ppd/faults/fault.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/query.hpp"
#include "ppd/net/server.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/error.hpp"

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

using namespace ppd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Monte-Carlo seed of input variant seed % kVariants. Variant 0 is the
/// repository's default experiment seed, so its outputs equal the default
/// ppdtool / figure-bench runs.
std::uint64_t mc_seed(std::uint64_t seed) { return 2007 + seed % kVariants; }

/// Lanes of the multi-threaded workloads: every core, at most four, so the
/// work per lane stays the same on larger machines.
int lanes() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += json_number(v[i]);
  }
  return s + ']';
}

faults::PathFaultSpec external_rop(std::size_t stage) {
  faults::PathFaultSpec fault;
  fault.kind = faults::FaultKind::kExternalRopOutput;
  fault.stage = stage;
  return fault;
}

// ---------------------------------------------------------------------------
// fig7_coverage_t1: the paper's headline experiment (Figs. 7/9) at the
// `ppdtool coverage --method=pulse` defaults, one thread. Calibration runs
// the nominal w_out(w_in) sweep, so Fig. 10's work is in here too.

class Fig7Coverage final : public Workload {
 public:
  explicit Fig7Coverage(std::uint64_t seed) {
    factory_.options = cells::seven_gate_path();
    factory_.fault = external_rop(1);  // output of gate 2, the paper's site
    const auto model = mc::VariationModel::uniform_sigma(0.05);
    calibration_.samples = 25;
    calibration_.seed = mc_seed(seed);
    calibration_.variation = model;
    coverage_.samples = 25;
    coverage_.seed = mc_seed(seed);
    coverage_.variation = model;
    coverage_.resistances = core::logspace(1e3, 64e3, 9);
    coverage_.threads = 1;
    coverage_.resil.quarantine = true;
    // Netlist build: one instance of each kind the sweep creates, so a
    // broken factory fails here rather than inside the timed region.
    (void)core::make_instance(factory_, 0.0, nullptr);
    (void)core::make_instance(factory_, coverage_.resistances.front(), nullptr);
  }

  Iteration run() override {
    cache::SolveCache::global().clear();
    core::PulseTestCalibration cal;
    {
      const obs::Span span("core.calibrate");
      cal = core::calibrate_pulse_test(factory_, calibration_);
    }
    core::CoverageResult res;
    {
      const obs::Span span("core.coverage");
      res = core::run_pulse_coverage(factory_, cal, coverage_);
    }
    Iteration it;
    it.attempted = static_cast<std::uint64_t>(coverage_.samples) *
                   coverage_.resistances.size();
    it.failed = res.n_quarantined();
    std::string matrix = "[";
    for (std::size_t m = 0; m < res.coverage.size(); ++m) {
      if (m != 0) matrix += ',';
      matrix += json_array(res.coverage[m]);
    }
    matrix += ']';
    it.outputs = "{\"w_in\":" + json_number(cal.w_in) +
                 ",\"w_th\":" + json_number(cal.w_th) +
                 ",\"min_fault_free_w_out\":" +
                 json_number(cal.min_fault_free_w_out) +
                 ",\"resistances\":" + json_array(res.resistances) +
                 ",\"coverage\":" + matrix +
                 ",\"simulations\":" + std::to_string(res.simulations) +
                 ",\"quarantined\":" + std::to_string(res.n_quarantined()) +
                 "}";
    return it;
  }

 private:
  core::PathFactory factory_;
  core::PulseCalibrationOptions calibration_;
  core::CoverageOptions coverage_;
};

// ---------------------------------------------------------------------------
// fig11_c432_t4: the Fig. 11 flow on the synthetic C432-class netlist —
// candidate selection (enumeration, sensitization, sta screen), then per kept
// candidate a serial calibration and a parallel R_min bisection.

class Fig11Rmin final : public Workload {
 public:
  /// bench_fig11_c432_rmin's defaults, except the candidate cap: five
  /// candidates keep one repetition near a few seconds at four lanes.
  static constexpr std::size_t kMaxCandidates = 5;
  static constexpr int kCalibrationSamples = 8;
  static constexpr int kRminSamples = 4;

  explicit Fig11Rmin(std::uint64_t seed)
      : netlist_(logic::synthetic_benchmark(logic::SyntheticOptions{})),
        library_(logic::GateTimingLibrary::generic()),
        seed_(mc_seed(seed)),
        threads_(lanes()) {
    select_.max_candidates = kMaxCandidates;
    // Screen box = the calibration's own limits (w_in grid top 0.8 ns,
    // sensing floor 50 ps): a pulse-dead verdict proves calibration fails.
    select_.screen_options.w_in_max = 0.8e-9;
    select_.screen_options.w_th_floor = 50e-12;
  }

  /// The serial screening and calibrations on the calling thread carry most
  /// of the wall (four lanes buy about 1.7x), so its core sets the pace.
  int reference_threads() const override { return 1; }

  Iteration run() override {
    cache::SolveCache::global().clear();
    core::CandidateSelection sel;
    {
      const obs::Span span("sta.select");
      sel = core::select_path_candidates(netlist_, library_, select_);
    }
    const auto model = mc::VariationModel::uniform_sigma(0.05);
    Iteration it;
    std::string paths = "[";
    for (std::size_t ci = 0; ci < sel.candidates.size(); ++ci) {
      const core::PathCandidate& c = sel.candidates[ci];
      const sta::ScreenedPath* sp =
          ci < sel.screened.size() ? &sel.screened[ci] : nullptr;
      std::string row = "{\"site\":" + json_string(c.site) +
                        ",\"len\":" + std::to_string(c.kinds.size()) +
                        ",\"verdict\":" +
                        json_string(sp ? sta::verdict_name(sp->verdict) : "off");
      if (sp == nullptr || sp->verdict == sta::Verdict::kKept) {
        core::PathFactory factory;
        factory.options.kinds = c.kinds;
        factory.fault = external_rop(c.fault_stage);
        core::PulseCalibrationOptions popt;
        popt.samples = kCalibrationSamples;
        popt.seed = seed_;
        popt.variation = model;
        ++it.attempted;
        try {
          core::PulseTestCalibration cal;
          {
            const obs::Span span("core.calibrate");
            cal = core::calibrate_pulse_test(factory, popt);
          }
          core::RminOptions ropt;
          ropt.samples = kRminSamples;
          ropt.seed = seed_;
          ropt.variation = model;
          ropt.threads = threads_;
          ropt.resil.quarantine = true;
          core::RminResult rmin;
          {
            const obs::Span span("core.rmin");
            rmin = core::find_r_min(factory, cal, ropt);
          }
          it.attempted += rmin.simulations + rmin.n_quarantined;
          it.failed += rmin.n_quarantined;
          row += ",\"w_in\":" + json_number(cal.w_in) +
                 ",\"w_th\":" + json_number(cal.w_th) +
                 ",\"detectable\":" + (rmin.detectable ? "true" : "false") +
                 ",\"r_min\":" + json_number(rmin.r_min);
        } catch (const ppd::NumericalError&) {
          // No zero-false-positive test exists for this path: an outcome the
          // figure reports ("infeasible"), not a failure.
          row += ",\"infeasible\":true";
        }
      }
      if (ci != 0) paths += ',';
      paths += row + '}';
    }
    paths += ']';
    it.outputs = "{\"enumerated\":" + std::to_string(sel.enumerated) +
                 ",\"candidates\":" + std::to_string(sel.candidates.size()) +
                 ",\"kept\":" + std::to_string(sel.kept.size()) +
                 ",\"pulse_dead\":" + std::to_string(sel.pulse_dead) +
                 ",\"paths\":" + paths + "}";
    return it;
  }

 private:
  logic::Netlist netlist_;
  logic::GateTimingLibrary library_;
  core::CandidateSelectionOptions select_;
  std::uint64_t seed_;
  int threads_;
};

// ---------------------------------------------------------------------------
// served_mix: an in-process ppdd server and closed-loop clients sending a
// seeded sequence of small queries, two thirds of them repeats.

constexpr const char* kUpload = "c432.bench";
/// Queries per family in the fixed universe. Every repetition sends each of
/// them once (fresh), so the solver work is the same for every seed; the
/// seed decides which client sends what, in which order, and which earlier
/// queries are repeated. Divisible by every client count (1..4).
constexpr std::size_t kFamilySize = 12;
/// Repeats of earlier queries per fresh one. A synthetic choice, not taken
/// from recorded traffic: with two thirds repeats the median request is a
/// cache-served replay and the 90th percentile a fresh solve, so both paths
/// are on the reported latencies.
constexpr std::size_t kRepeatsPerFresh = 2;

struct QuerySpec {
  std::string id;  ///< stable name; the oracle key
  net::QueryKind kind = net::QueryKind::kTransfer;
  std::vector<std::pair<std::string, std::string>> params;
};

std::string format_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Six families of kFamilySize queries, in family order. Every query of a
/// kind SETs the same keys, so a session's config left over from an earlier
/// query never changes a later one.
std::vector<QuerySpec> served_universe() {
  std::vector<QuerySpec> u;
  const auto add = [&u](net::QueryKind kind,
                        std::vector<std::pair<std::string, std::string>> params) {
    std::string id = net::query_kind_name(kind);
    for (const auto& [k, v] : params) id += ' ' + k + '=' + v;
    u.push_back({std::move(id), kind, std::move(params)});
  };
  const auto seeds = [&add](net::QueryKind kind, int base,
                            std::vector<std::pair<std::string, std::string>> fixed) {
    for (std::size_t s = 0; s < kFamilySize; ++s) {
      auto params = fixed;
      params.emplace_back("seed", std::to_string(base + static_cast<int>(s)));
      add(kind, std::move(params));
    }
  };
  for (int points : {5, 6, 7, 8})
    for (double lo : {0.08e-9, 0.10e-9, 0.12e-9})
      add(net::QueryKind::kTransfer,
          {{"points", std::to_string(points)}, {"w-lo", format_g(lo)}});
  seeds(net::QueryKind::kCalibrate, 3000, {{"samples", "3"}});
  seeds(net::QueryKind::kCoverage, 4000,
        {{"method", "pulse"}, {"samples", "3"}, {"points", "3"}});
  seeds(net::QueryKind::kCoverage, 5000,
        {{"method", "delay"}, {"samples", "3"}, {"points", "3"}});
  seeds(net::QueryKind::kRmin, 6000, {{"samples", "3"}, {"steps", "3"}});
  for (int k = 1; k <= 4; ++k)
    for (double clock : {0.0, 2.0e-9, 3.2e-9})
      add(net::QueryKind::kSta,
          {{"k", std::to_string(k)}, {"clock", format_g(clock)}});
  return u;
}

/// What the equivalent single-shot ppdtool run computes for `spec`.
net::QueryParams direct_params(const QuerySpec& spec,
                               const std::string& bench_text) {
  net::QueryParams p = net::params_from_lookup(
      spec.kind, [&spec](const std::string& key) -> std::optional<std::string> {
        for (const auto& [k, v] : spec.params)
          if (k == key) return v;
        return std::nullopt;
      });
  if (spec.kind == net::QueryKind::kSta) {
    p.bench_name = kUpload;
    p.bench_text = bench_text;
  }
  return p;
}

std::string upload_text() {
  return logic::write_bench(logic::synthetic_benchmark(logic::SyntheticOptions{}));
}

/// splitmix64: the query sequence must depend on the seed alone, not on a
/// standard library's distribution implementation.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

struct Plan {
  std::vector<std::size_t> sequence;  ///< universe indices, generation order
  std::vector<std::vector<std::size_t>> per_client;
  std::vector<std::size_t> fresh;     ///< first sends, in order
  std::string hash;
};

/// Every family is shuffled and dealt evenly to the clients, so no client
/// draws most of the expensive queries and the slowest client does not set
/// the iteration's wall by luck of the draw. Each client's fresh queries are
/// shuffled and kRepeatsPerFresh times as many repeats are interleaved at
/// seeded positions; a repeat re-sends a query of its family drawn uniformly
/// from those any client sent before it, so replays cross sessions.
Plan plan_sequence(std::uint64_t seed, const std::vector<QuerySpec>& universe,
                   std::size_t clients) {
  SplitMix rng{seed};
  std::vector<std::vector<std::size_t>> fresh(clients);
  for (std::size_t f = 0; f * kFamilySize < universe.size(); ++f) {
    std::vector<std::size_t> family(kFamilySize);
    std::iota(family.begin(), family.end(), f * kFamilySize);
    for (std::size_t i = 0; i < kFamilySize; ++i) {
      std::swap(family[i], family[i + rng.below(kFamilySize - i)]);
      fresh[i % clients].push_back(family[i]);
    }
  }
  for (std::vector<std::size_t>& own : fresh)
    for (std::size_t i = own.size(); i > 1; --i)
      std::swap(own[i - 1], own[rng.below(i)]);

  // Every client repeats each family equally often, in seeded order, so the
  // cost mix of the repeats (and with it the latency percentiles) is the
  // same for every seed.
  const std::size_t families = universe.size() / kFamilySize;
  std::vector<std::vector<std::size_t>> repeat_family(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t f = 0; f < families; ++f)
      repeat_family[c].insert(repeat_family[c].end(),
                              kRepeatsPerFresh * fresh[c].size() / families, f);
    for (std::size_t i = repeat_family[c].size(); i > 1; --i)
      std::swap(repeat_family[c][i - 1], repeat_family[c][rng.below(i)]);
  }
  std::vector<std::vector<std::size_t>> sent(families);  // fresh sends so far

  Plan plan;
  plan.per_client.resize(clients);
  std::vector<std::size_t> next_fresh(clients, 0);
  std::vector<std::size_t> next_repeat(clients, 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t fresh_left = fresh[c].size() - next_fresh[c];
      const std::size_t repeats_left = repeat_family[c].size() - next_repeat[c];
      if (fresh_left + repeats_left == 0) continue;
      more = true;
      // A client's own fresh queries cover every family, so once they are
      // sent a repeat always finds an earlier query of its family.
      const bool repeat =
          repeats_left > 0 && !sent[repeat_family[c][next_repeat[c]]].empty() &&
          rng.below(fresh_left + repeats_left) < repeats_left;
      std::size_t idx = 0;
      if (repeat) {
        const std::vector<std::size_t>& earlier =
            sent[repeat_family[c][next_repeat[c]++]];
        idx = earlier[rng.below(earlier.size())];
      } else {
        idx = fresh[c][next_fresh[c]++];
        plan.fresh.push_back(idx);
        sent[idx / kFamilySize].push_back(idx);
      }
      plan.sequence.push_back(idx);
      plan.per_client[c].push_back(idx);
    }
  }
  std::string text = "clients=" + std::to_string(clients) + "\n";
  for (const std::size_t idx : plan.sequence) text += universe[idx].id + '\n';
  plan.hash = fnv1a_hex(text);
  return plan;
}

/// Closed-loop clients: one lane fewer than the pool has, so the server's
/// connection threads and the clients always find a core while every other
/// worker is busy solving; otherwise cache-served replays measure run-queue
/// waits of the OS scheduler.
std::size_t served_clients() {
  return static_cast<std::size_t>(std::max(1, lanes() - 1));
}

struct Served {
  std::size_t spec = 0;
  bool busy = false;
  bool ok = false;
  double latency_s = 0.0;
  double queue_s = 0.0;
  double execute_s = 0.0;
  double serialize_s = 0.0;
  std::string digest;
};

class ServedMix final : public Workload {
 public:
  explicit ServedMix(std::uint64_t seed)
      : universe_(served_universe()),
        bench_text_(upload_text()),
        plan_(plan_sequence(seed, universe_, served_clients())) {
    // The budget ppdd and ppdtool run with, pinned so that PPD_CACHE_BYTES
    // in the environment cannot change the workload.
    cache::SolveCache::global().set_capacity_bytes(
        cache::SolveCache::kDefaultCapacityBytes);
    net::ServerOptions options;
    options.port = 0;
    options.slow_query_seconds = 0.0;  // keep the warn log quiet
    server_ = std::make_unique<net::Server>(options);
    server_->start();
    for (std::size_t c = 0; c < plan_.per_client.size(); ++c) {
      clients_.push_back(net::Client::connect(server_->port()));
      clients_.back().upload(kUpload, bench_text_);
    }
  }

  ~ServedMix() override {
    for (net::Client& c : clients_) c.quit();
    server_->stop();
  }
  ServedMix(const ServedMix&) = delete;
  ServedMix& operator=(const ServedMix&) = delete;

  /// Clients, connection threads and pool workers keep every core busy.
  int reference_threads() const override { return lanes(); }

  Iteration run() override {
    cache::SolveCache::global().clear();
    const std::size_t n = clients_.size();
    std::vector<std::vector<Served>> logs(n);
    std::vector<std::string> errors(n);
    {
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (std::size_t c = 0; c < n; ++c)
        threads.emplace_back([this, c, &logs, &errors] {
          try {
            serve(clients_[c], plan_.per_client[c], logs[c]);
          } catch (const std::exception& e) {
            errors[c] = e.what();
          }
        });
      for (std::thread& t : threads) t.join();
    }

    Iteration it;
    it.attempted = plan_.sequence.size();
    std::map<std::string, std::string> bodies;
    std::string records = "[";
    bool first = true;
    for (std::size_t c = 0; c < n; ++c) {
      // A client that died mid-sequence fails everything it did not send.
      it.failed += plan_.per_client[c].size() - logs[c].size();
      for (const Served& s : logs[c]) {
        const QuerySpec& spec = universe_[s.spec];
        if (s.busy || !s.ok) ++it.failed;
        if (!s.busy) {
          it.request_s.push_back(s.latency_s);
          const std::string digest = s.ok ? s.digest : "error";
          const auto [pos, inserted] = bodies.emplace(spec.id, digest);
          if (!inserted && pos->second != digest) pos->second = "conflict";
        }
        if (!first) records += ',';
        first = false;
        records += "[" + json_string(net::query_kind_name(spec.kind)) + ',' +
                   json_number(s.latency_s) + ',' + json_number(s.queue_s) +
                   ',' + json_number(s.execute_s) + ',' +
                   json_number(s.serialize_s) + ',' + (s.busy ? "1" : "0") +
                   ']';
      }
    }
    records += ']';
    std::string outputs = "{\"bodies\":{";
    first = true;
    for (const auto& [id, digest] : bodies) {
      if (!first) outputs += ',';
      first = false;
      outputs += json_string(id) + ':' + json_string(digest);
    }
    it.outputs = outputs + "}}";
    std::string errs = "[";
    for (std::size_t c = 0; c < n; ++c)
      if (!errors[c].empty())
        errs += (errs.size() > 1 ? "," : "") + json_string(errors[c]);
    it.detail = "{\"queries\":" + records + ",\"client_errors\":" + errs + "]}";
    last_bodies_ = std::move(bodies);
    return it;
  }

  /// Served bodies against a direct net::run_query from a cold cache: the
  /// first fresh query of every family in the plan.
  std::string finish() override {
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    std::vector<bool> family_done(universe_.size() / kFamilySize, false);
    for (const std::size_t idx : plan_.fresh) {
      if (family_done[idx / kFamilySize]) continue;
      family_done[idx / kFamilySize] = true;
      const QuerySpec& spec = universe_[idx];
      cache::SolveCache::global().clear();
      const std::string direct = fnv1a_hex(
          net::run_query(spec.kind, direct_params(spec, bench_text_)).body);
      ++checked;
      const auto served = last_bodies_.find(spec.id);
      if (served == last_bodies_.end() || served->second != direct) ++mismatched;
    }
    return "{\"sequence_hash\":" + json_string(plan_.hash) +
           ",\"queries\":" + std::to_string(plan_.sequence.size()) +
           ",\"fresh\":" + std::to_string(plan_.fresh.size()) +
           ",\"clients\":" + std::to_string(clients_.size()) +
           ",\"direct_checked\":" + std::to_string(checked) +
           ",\"direct_mismatched\":" + std::to_string(mismatched) + "}";
  }

 private:
  /// Closed loop: SET the query's keys, submit, wait for the result, next.
  void serve(net::Client& client, const std::vector<std::size_t>& specs,
             std::vector<Served>& out) const {
    for (const std::size_t idx : specs) {
      const QuerySpec& spec = universe_[idx];
      for (const auto& [key, value] : spec.params) client.set(key, value);
      Served s;
      s.spec = idx;
      const auto start = Clock::now();
      const net::Client::Submitted sub =
          client.submit(net::query_kind_name(spec.kind),
                        spec.kind == net::QueryKind::kSta ? kUpload : "");
      if (sub.busy) {
        s.busy = true;
        s.latency_s = seconds_since(start);
        out.push_back(std::move(s));
        continue;
      }
      const net::Client::Result res = client.wait(sub.id);
      s.latency_s = seconds_since(start);
      s.ok = res.status == "ok";
      s.queue_s = res.queue_s;
      s.execute_s = res.execute_s;
      s.serialize_s = res.serialize_s;
      s.digest = fnv1a_hex(res.body);
      out.push_back(std::move(s));
    }
  }

  std::vector<QuerySpec> universe_;
  std::string bench_text_;
  Plan plan_;
  std::unique_ptr<net::Server> server_;
  std::vector<net::Client> clients_;
  std::map<std::string, std::string> last_bodies_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fig7_coverage_t1") return std::make_unique<Fig7Coverage>(seed);
  if (name == "fig11_c432_t4") return std::make_unique<Fig11Rmin>(seed);
  if (name == "served_mix") return std::make_unique<ServedMix>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

void capture_served_oracle(std::ostream& os) {
  const std::vector<QuerySpec> universe = served_universe();
  const std::string bench_text = upload_text();
  for (const QuerySpec& spec : universe) {
    cache::SolveCache::global().clear();
    const std::string body =
        net::run_query(spec.kind, direct_params(spec, bench_text)).body;
    os << "{\"spec\":" << json_string(spec.id)
       << ",\"digest\":" << json_string(fnv1a_hex(body)) << "}\n";
  }
}

}  // namespace perfbench
