#include "ppd/resil/sweep_guard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "ppd/obs/metrics.hpp"
#include "ppd/resil/checkpoint.hpp"
#include "ppd/resil/deadline.hpp"
#include "ppd/resil/retry.hpp"
#include "ppd/util/error.hpp"

namespace ppd::resil {

namespace {

/// Least time between two periodic checkpoint writes of one sweep.
constexpr double kCheckpointIntervalSeconds = 5.0;

/// One sweep's resilience state: the quarantine entries, the checkpoint
/// (loaded when resuming), the cancel-after count and the sweep watchdog.
/// Lives on guarded_map's stack for the whole sweep.
class SweepGuard {
 public:
  /// Wires the policy into `par`: the sweep's context, the quarantine
  /// handler and the sweep watchdog (it fires par.cancel, as cancel-after
  /// does).
  SweepGuard(const SweepPolicy& policy, const Sweep& sweep,
             exec::ParallelOptions& par)
      : policy_(policy),
        sweep_(sweep),
        checkpoint_enabled_(!policy.checkpoint_path.empty()),
        resumed_(policy.resume),
        cancel_(par.cancel),
        watchdog_(par.cancel, policy.sweep_budget_seconds) {
    if (resumed_) {
      PPD_REQUIRE(checkpoint_enabled_,
                  "resume requested without a checkpoint path");
      checkpoint_ = Checkpoint::load(policy.checkpoint_path);
      checkpoint_.bind(sweep.seed, sweep.items, sweep.context);
      // Quarantined items are re-run on resume (and, being a pure function
      // of the item index, fail identically); keeping the stored entries
      // would double-count them.
      checkpoint_.clear_quarantine();
    } else if (checkpoint_enabled_) {
      checkpoint_.bind(sweep.seed, sweep.items, sweep.context);
    }
    last_save_ = std::chrono::steady_clock::now();
    par.context = sweep.context;
    if (policy.quarantine)
      par.on_item_error = [this](std::size_t item,
                                 const std::exception_ptr& error) {
        quarantine(item, error);
        return true;  // swallow: the sweep keeps going
      };
  }

  /// The item's payload from a resumed checkpoint; false = run the item.
  bool cached(std::size_t item, std::string& payload) const {
    if (!resumed_ || !checkpoint_.has(item)) return false;
    payload = checkpoint_.payload(item);
    return true;
  }

  /// Record a freshly computed item: checkpoint it and count it towards
  /// cancel-after (nothing to do when neither is configured).
  void complete(std::size_t item, const std::string& payload) {
    if (checkpoint_enabled_) {
      checkpoint_.record(item, payload);
      maybe_save(false);
    }
    const std::size_t cancel_after = policy_.faults.cancel_after_items;
    if (cancel_after > 0 &&
        fresh_completed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
            cancel_after)
      cancel_.cancel();
  }

  /// A CancelledError escaped the sweep: persist the checkpoint, then
  /// rethrow — as TimeoutError when the sweep watchdog fired.
  [[noreturn]] void cancelled(const exec::CancelledError& error) {
    maybe_save(true);
    if (watchdog_.fired())
      throw TimeoutError("sweep exceeded its wall budget of " +
                         std::to_string(policy_.sweep_budget_seconds) +
                         " s: " + sweep_.context);
    throw error;
  }

  /// Final checkpoint save + the sorted quarantine report.
  QuarantineReport finish() {
    maybe_save(true);
    QuarantineReport report;
    report.items = sweep_.items;
    report.entries = std::move(entries_);
    // Insertion order depends on thread scheduling; the report does not.
    std::sort(report.entries.begin(), report.entries.end(),
              [](const QuarantineEntry& a, const QuarantineEntry& b) {
                return a.item < b.item;
              });
    return report;
  }

 private:
  void quarantine(std::size_t item, const std::exception_ptr& error) {
    QuarantineEntry entry;
    entry.item = item;
    entry.seed = sweep_.item_seed ? sweep_.item_seed(item)
                                  : static_cast<std::uint64_t>(item);
    entry.rung = take_last_ladder();
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      entry.error = e.what();
    } catch (...) {
      entry.error = "unknown error";
    }
    obs::counter("resil.quarantined").add();
    const std::lock_guard<std::mutex> lock(entries_mutex_);
    if (checkpoint_enabled_) checkpoint_.record_quarantine(entry);
    entries_.push_back(std::move(entry));
  }

  void maybe_save(bool force) {
    if (!checkpoint_enabled_) return;
    const std::lock_guard<std::mutex> lock(save_mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (!force &&
        std::chrono::duration<double>(now - last_save_).count() <
            kCheckpointIntervalSeconds)
      return;
    checkpoint_.save(policy_.checkpoint_path);
    last_save_ = now;
  }

  const SweepPolicy& policy_;
  const Sweep& sweep_;
  const bool checkpoint_enabled_;
  const bool resumed_;
  Checkpoint checkpoint_;                 // thread-safe itself
  std::mutex entries_mutex_;
  std::vector<QuarantineEntry> entries_;  // unsorted until finish()
  std::atomic<std::size_t> fresh_completed_{0};
  std::mutex save_mutex_;                 // serializes checkpoint writes
  std::chrono::steady_clock::time_point last_save_;
  exec::CancelToken cancel_;              // the sweep's token
  Watchdog watchdog_;
};

}  // namespace

SweepOutcome guarded_map(const SweepPolicy& policy, const Sweep& sweep,
                         exec::ParallelOptions par,
                         const std::function<std::string(std::size_t)>& item) {
  SweepGuard guard(policy, sweep, par);
  SweepOutcome out;
  out.payloads.resize(sweep.items);
  exec::SweepStats stats;
  try {
    exec::parallel_for(
        sweep.items,
        [&](std::size_t i) {
          std::string& payload = out.payloads[i];
          if (guard.cached(i, payload)) return;
          const FaultScope inject(policy.faults, i);
          inject_item_delay();
          inject_item_failure();
          payload = item(i);
          guard.complete(i, payload);
        },
        par, &stats);
  } catch (const exec::CancelledError& e) {
    guard.cancelled(e);
  }
  exec::record_sweep(sweep.domain, stats);
  out.quarantine = guard.finish();
  return out;
}

}  // namespace ppd::resil
