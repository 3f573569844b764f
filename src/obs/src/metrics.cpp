#include "ppd/obs/metrics.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>

#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/table.hpp"

namespace ppd::obs {

namespace json = util::json;

namespace {

std::atomic<bool> g_metrics_enabled{[] {
  const char* env = std::getenv("PPD_OBS_METRICS");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
  return total;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(const HistogramSpec& spec) : spec_(spec) {
  PPD_REQUIRE(spec_.lo > 0.0 && spec_.hi > spec_.lo,
              "histogram needs 0 < lo < hi (bins are log-spaced)");
  PPD_REQUIRE(spec_.bins > 0, "histogram needs at least one bin");
  log_lo_ = std::log(spec_.lo);
  scale_ = static_cast<double>(spec_.bins) / (std::log(spec_.hi) - log_lo_);
  for (auto& shard : shards_) {
    shard.bins =
        std::make_unique<std::atomic<std::uint64_t>[]>(spec_.bins + 2);
    for (std::size_t i = 0; i < spec_.bins + 2; ++i)
      shard.bins[i].store(0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double Histogram::bin_lower(std::size_t i) const {
  return spec_.lo * std::pow(spec_.hi / spec_.lo,
                             static_cast<double>(i) /
                                 static_cast<double>(spec_.bins));
}

double Histogram::bin_upper(std::size_t i) const { return bin_lower(i + 1); }

void Histogram::record(double v) {
  if (!metrics_enabled()) return;
  // Slot layout per shard: [0, bins) the log-spaced bins, then underflow,
  // then overflow.
  std::size_t slot;
  if (!(v >= spec_.lo)) {  // also catches NaN
    slot = spec_.bins;     // underflow
  } else if (v >= spec_.hi) {
    slot = spec_.bins + 1;  // overflow
  } else {
    const auto idx =
        static_cast<std::size_t>((std::log(v) - log_lo_) * scale_);
    slot = idx < spec_.bins ? idx : spec_.bins - 1;  // guard FP edge cases
  }
  Shard& shard = shards_[detail::shard_index()];
  shard.bins[slot].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    detail::atomic_add(shard.sum, v);
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  // Leaked singleton: metric handles are cached in function-local statics
  // across every library, so the registry must survive until process exit.
  static Registry* r = new Registry();
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  PPD_REQUIRE(!name.empty(), "metric name must not be empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  PPD_REQUIRE(!name.empty(), "metric name must not be empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const HistogramSpec& spec) {
  PPD_REQUIRE(!name.empty(), "metric name must not be empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(spec));
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.spec = h->spec();
    std::vector<std::uint64_t> bins(h->spec().bins + 2, 0);
    for (const auto& shard : h->shards_) {
      for (std::size_t i = 0; i < bins.size(); ++i)
        bins[i] += shard.bins[i].load(std::memory_order_relaxed);
      hs.count += shard.count.load(std::memory_order_relaxed);
      hs.sum += shard.sum.load(std::memory_order_relaxed);
    }
    hs.underflow = bins[h->spec().bins];
    hs.overflow = bins[h->spec().bins + 1];
    const double mn = h->min_.load(std::memory_order_relaxed);
    const double mx = h->max_.load(std::memory_order_relaxed);
    hs.min = std::isfinite(mn) ? mn : 0.0;
    hs.max = std::isfinite(mx) ? mx : 0.0;
    for (std::size_t i = 0; i < h->spec().bins; ++i) {
      if (bins[i] == 0) continue;
      hs.bins.push_back({h->bin_lower(i), h->bin_upper(i), bins[i]});
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_)
    for (auto& s : c->shards_) s.value.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->value_.store(0.0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& shard : h->shards_) {
      for (std::size_t i = 0; i < h->spec().bins + 2; ++i)
        shard.bins[i].store(0, std::memory_order_relaxed);
      shard.count.store(0, std::memory_order_relaxed);
      shard.sum.store(0.0, std::memory_order_relaxed);
    }
    h->min_.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    h->max_.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count);
  double seen = static_cast<double>(underflow);
  if (target <= seen && underflow > 0) return min != 0.0 ? min : spec.lo;
  for (const HistogramBinSnapshot& b : bins) {
    const double next = seen + static_cast<double>(b.count);
    if (target <= next) {
      const double frac =
          b.count == 0 ? 0.0 : (target - seen) / static_cast<double>(b.count);
      return b.lo + (b.hi - b.lo) * frac;
    }
    seen = next;
  }
  return max != 0.0 ? max : spec.hi;  // lands in overflow
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& older,
                               const MetricsSnapshot& newer) {
  MetricsSnapshot out;
  std::map<std::string, std::uint64_t> old_counters(older.counters.begin(),
                                                    older.counters.end());
  out.counters.reserve(newer.counters.size());
  for (const auto& [name, value] : newer.counters) {
    const auto it = old_counters.find(name);
    const std::uint64_t base = it == old_counters.end() ? 0 : it->second;
    out.counters.emplace_back(name, value >= base ? value - base : 0);
  }
  out.gauges = newer.gauges;
  std::map<std::string, const HistogramSnapshot*> old_hists;
  for (const HistogramSnapshot& h : older.histograms) old_hists[h.name] = &h;
  out.histograms.reserve(newer.histograms.size());
  for (const HistogramSnapshot& h : newer.histograms) {
    HistogramSnapshot d = h;  // spec/min/max/name from the newer snapshot
    const auto it = old_hists.find(h.name);
    if (it != old_hists.end()) {
      const HistogramSnapshot& o = *it->second;
      d.count = h.count >= o.count ? h.count - o.count : 0;
      d.underflow = h.underflow >= o.underflow ? h.underflow - o.underflow : 0;
      d.overflow = h.overflow >= o.overflow ? h.overflow - o.overflow : 0;
      d.sum = h.sum - o.sum;
      std::map<double, std::uint64_t> old_bins;
      for (const HistogramBinSnapshot& b : o.bins) old_bins[b.lo] = b.count;
      d.bins.clear();
      for (const HistogramBinSnapshot& b : h.bins) {
        const auto ob = old_bins.find(b.lo);
        const std::uint64_t base = ob == old_bins.end() ? 0 : ob->second;
        if (b.count > base) d.bins.push_back({b.lo, b.hi, b.count - base});
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << json::number(h.sum)
     << ",\"mean\":" << json::number(h.mean())
     << ",\"min\":" << json::number(h.min) << ",\"max\":" << json::number(h.max)
     << ",\"p50\":" << json::number(h.quantile(0.50))
     << ",\"p99\":" << json::number(h.quantile(0.99))
     << ",\"underflow\":" << h.underflow << ",\"overflow\":" << h.overflow
     << ",\"bins\":[";
  for (std::size_t b = 0; b < h.bins.size(); ++b) {
    if (b != 0) os << ',';
    os << '[' << json::number(h.bins[b].lo) << ',' << json::number(h.bins[b].hi)
       << ',' << h.bins[b].count << ']';
  }
  os << "]}";
}

Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}

Gauge& gauge(const std::string& name) { return Registry::global().gauge(name); }

Histogram& histogram(const std::string& name, const HistogramSpec& spec) {
  return Registry::global().histogram(name, spec);
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        const std::string& meta_json) {
  os << "{\n";
  if (!meta_json.empty()) os << "  \"meta\": " << meta_json << ",\n";
  os << "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n    " << json::quote(snapshot.counters[i].first) << ": "
       << snapshot.counters[i].second;
  }
  os << (snapshot.counters.empty() ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n    " << json::quote(snapshot.gauges[i].first) << ": "
       << json::number(snapshot.gauges[i].second);
  }
  os << (snapshot.gauges.empty() ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    if (i != 0) os << ',';
    os << "\n    " << json::quote(h.name) << ": {"
       << "\"count\": " << h.count << ", \"sum\": " << json::number(h.sum)
       << ", \"mean\": " << json::number(h.mean())
       << ", \"min\": " << json::number(h.min)
       << ", \"max\": " << json::number(h.max)
       << ", \"underflow\": " << h.underflow
       << ", \"overflow\": " << h.overflow << ", \"lo\": "
       << json::number(h.spec.lo) << ", \"hi\": " << json::number(h.spec.hi)
       << ", \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"lo\": " << json::number(h.bins[b].lo)
         << ", \"hi\": " << json::number(h.bins[b].hi)
         << ", \"count\": " << h.bins[b].count << '}';
    }
    os << "]}";
  }
  os << (snapshot.histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

void write_metrics_text(std::ostream& os, const MetricsSnapshot& snapshot) {
  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    util::Table t({"metric", "type", "value"});
    for (const auto& [name, v] : snapshot.counters)
      t.add_row({name, "counter", std::to_string(v)});
    for (const auto& [name, v] : snapshot.gauges)
      t.add_row({name, "gauge", util::format_double(v, 6)});
    t.print(os);
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    os << "\nhistogram " << h.name << ": count " << h.count << ", mean "
       << util::format_double(h.mean(), 5) << ", min "
       << util::format_double(h.min, 5) << ", max "
       << util::format_double(h.max, 5) << ", underflow " << h.underflow
       << ", overflow " << h.overflow << "\n";
    if (h.bins.empty()) continue;
    util::Table t({"bin_lo", "bin_hi", "count"});
    for (const HistogramBinSnapshot& b : h.bins)
      t.add_row({util::format_double(b.lo, 5), util::format_double(b.hi, 5),
                 std::to_string(b.count)});
    t.print(os);
  }
}

}  // namespace ppd::obs
