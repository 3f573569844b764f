// Modified-nodal-analysis system assembly. Devices stamp conductances,
// sources and auxiliary (branch-current) equations through this interface;
// the analysis engine then factorizes with the LU workspace.
//
// Slot-bound stamping (the classic SPICE pointer-to-element setup). Each
// matrix or rhs contribution a device will ever make is bound once, up
// front: bind() / bind_rhs() append one (row, col) / row entry to the add
// sequence and return its slot. freeze() then learns the solver structure
// from that sequence: which cell (dense offset) each slot feeds and in what
// order duplicates accumulate, plus the LU's structural mask. Every later
// stamp writes a value straight into its slot with the inline set() /
// set_rhs(); solve_into() re-accumulates the cells whose slots changed,
// each in its recorded order, so sums are bitwise those of a from-scratch
// `A(row, col) += value` assemble, and refactorizes in place into a
// caller-owned buffer: no triplet rebuild, no symbolic analysis, no
// per-iteration allocation. Results are bit-identical to a from-scratch
// factor + solve (the LU runs on its learned pattern only while pivots
// repeat the learned ones).
//
// Ground rows and columns bind to a sink slot whose writes are discarded,
// so stamp code needs no ground branch. Because slot values persist between
// assembles, an assemble may restamp only the devices whose values changed;
// every other slot keeps its value (see analysis.cpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ppd/linalg/dense.hpp"

namespace ppd::spice {

/// MNA row/column index: 0..n_nodes-1 are node voltages (ground excluded),
/// then auxiliary rows. A negative index denotes ground and is dropped.
using MnaIndex = int;
constexpr MnaIndex kGroundIndex = -1;

/// A bound matrix or rhs contribution of an MnaSystem (see bind()).
using MnaSlot = std::uint32_t;
/// The slot ground entries bind to: its writes are discarded.
constexpr MnaSlot kSinkSlot = 0;

class MnaSystem {
 public:
  /// A new system is binding: bind its entries, then freeze() it before
  /// the first write.
  explicit MnaSystem(std::size_t unknowns);

  /// Append A(row, col) to the add sequence and return its slot. A ground
  /// row or column returns kSinkSlot. Binding phase only.
  [[nodiscard]] MnaSlot bind(MnaIndex row, MnaIndex col);
  /// Append rhs(row) to the rhs add sequence and return its slot; ground
  /// returns kSinkSlot. Binding phase only.
  [[nodiscard]] MnaSlot bind_rhs(MnaIndex row);

  /// End the binding phase: learn the solver structure from the bound
  /// sequence. Every slot starts at +0.0.
  void freeze();

  /// Set the value of a bound matrix slot (its contribution to the cell it
  /// was bound to). Frozen systems only. Small enough to inline into every
  /// stamp: the dirty queues are preallocated, so there is no growth path.
  void set(MnaSlot s, double value) {
    double& slot = val_[s];
    if (bits_equal(slot, value)) return;
    slot = value;
    // The sink maps to a cell that is permanently flagged dirty, so it is
    // never queued.
    const std::size_t c = cell_[s];
    if (!cell_dirty_[c]) {
      cell_dirty_[c] = 1;
      dirty_cells_[n_dirty_cells_++] = c;
    }
  }

  /// Set the value of a bound rhs slot. Frozen systems only.
  void set_rhs(MnaSlot s, double value) {
    double& slot = rhs_val_[s];
    if (bits_equal(slot, value)) return;
    slot = value;
    // The sink's row (n) is permanently flagged dirty, so it is never queued.
    const std::size_t r = rhs_row_[s];
    if (!rhs_row_dirty_[r]) {
      rhs_row_dirty_[r] = 1;
      dirty_rhs_rows_[n_dirty_rhs_rows_++] = r;
    }
  }

  /// Factorize and solve into `x` (resized). Throws NumericalError on
  /// singularity. Allocation-free after the first call; the LU factorizes
  /// a copy of the matrix image in place.
  void solve_into(std::vector<double>& x);

  [[nodiscard]] std::size_t unknowns() const { return n_; }

  /// Solve disposition counters: how many solve_into() calls refactorized,
  /// rebuilt only the rhs against the previous factorization, or returned
  /// the cached solution outright.
  struct SolveStats {
    std::uint64_t refactored = 0;
    std::uint64_t rhs_only = 0;
    std::uint64_t cached = 0;
  };
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }
  /// Learned-pattern vs full-loop factors.
  [[nodiscard]] const linalg::DenseLuWorkspace::Stats& lu_stats() const {
    return dlw_.stats();
  }

 private:
  [[nodiscard]] static bool bits_equal(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  std::size_t n_;
  bool frozen_ = false;
  // Bound matrix sequence: slot s >= 1 is entry (trip_row_[s], trip_col_[s])
  // with value val_[s]; slot 0 is the sink.
  std::vector<std::size_t> trip_row_, trip_col_;
  std::vector<double> val_;
  std::vector<std::size_t> rhs_row_;       // bound rhs sequence (0: sink, row n)
  std::vector<double> rhs_val_;

  // Assembled images, kept between solves: every matrix cell (a distinct
  // dense offset) and rhs row holds the sum of its slots.
  // set() queues exactly the cells / rows whose slot bits changed, and
  // solve_into() re-accumulates only those, each in its recorded order, so
  // the sums stay bitwise full-rebuild sums. No queued cell means the
  // previous factorization is still THE factorization of this system; no
  // queued rhs row either means the previous solution is this solve's
  // result (same bits in -> same bits out of a deterministic solver).
  std::vector<double> image_;      // one value per cell
  std::vector<std::size_t> cell_offset_;  // dense cell -> column-major offset
  linalg::DenseMatrix dense_;      // factor buffer (consumes a copy)
  std::vector<double> rhs_;
  std::vector<std::size_t> cell_;  // slot -> cell (the sink: an extra cell)
  std::vector<std::size_t> cell_ptr_, cell_src_;  // cell -> slots, in order
  std::vector<std::size_t> rhs_ptr_, rhs_src_;    // row -> rhs slots, in order
  // Dirty queues hold each cell / row at most once (the flag arrays
  // dedupe), so they are sized once and never grow.
  std::vector<char> cell_dirty_;
  std::vector<std::size_t> dirty_cells_;
  std::size_t n_dirty_cells_ = 0;
  std::vector<char> rhs_row_dirty_;
  std::vector<std::size_t> dirty_rhs_rows_;
  std::size_t n_dirty_rhs_rows_ = 0;
  bool factor_ok_ = false;        // dense_ holds a live factorization
  bool solve_cached_ = false;     // cached_x_ matches current values
  std::vector<double> cached_x_;
  linalg::DenseLuWorkspace dlw_;
  SolveStats stats_;
};

}  // namespace ppd::spice
