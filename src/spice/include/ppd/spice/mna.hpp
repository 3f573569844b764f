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
// set_rhs(); solve_into() sums every cell and rhs row from its slots, each
// in bind order starting from +0.0, so sums are bitwise those of a
// from-scratch `A(row, col) += value` assemble whatever order the devices
// stamped in, and refactorizes in place into a caller-owned buffer: no
// triplet rebuild, no symbolic analysis, no per-iteration allocation.
// Results are bit-identical to a from-scratch factor + solve (the LU runs
// on its learned pattern only while pivots repeat the learned ones).
//
// Ground rows and columns bind to a sink slot whose writes are discarded,
// so stamp code needs no ground branch. Slot values persist between solves,
// so a device whose values cannot have changed need not restamp (see
// analysis.cpp).
//
// Change tracking is two flags: set() / set_rhs() store unconditionally
// and, without a branch, note whether the stored bits differ. That is all
// the solve shortcuts need. An unchanged matrix means
// the live factorization is still THE factorization of these values, so
// only the rhs is re-solved; unchanged matrix and rhs mean the previous
// solution is this solve's result (same bits in, same bits out of a
// deterministic solver). Which cell changed never matters, because every
// solve re-sums every cell: at the paper's sizes nearly all of them change
// on every Newton iteration anyway.
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
  /// stamp; the sink's writes never count as a change.
  void set(MnaSlot s, double value) {
    matrix_changed_ |= (s != kSinkSlot) & !bits_equal(val_[s], value);
    val_[s] = value;
  }

  /// Set the value of a bound rhs slot. Frozen systems only.
  void set_rhs(MnaSlot s, double value) {
    rhs_changed_ |= (s != kSinkSlot) & !bits_equal(rhs_val_[s], value);
    rhs_val_[s] = value;
  }

  /// Factorize and solve into `x` (resized). Throws NumericalError on
  /// singularity. Allocation-free after the first call; a changed matrix
  /// is summed into the factor buffer and factorized there in place.
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

  std::vector<std::size_t> cell_offset_;  // cell -> column-major offset
  linalg::DenseMatrix dense_;      // factor buffer, re-summed every refactor
  std::vector<double> rhs_;
  std::vector<std::size_t> cell_ptr_, cell_src_;  // cell -> slots, in order
  std::vector<std::size_t> rhs_ptr_, rhs_src_;    // row -> rhs slots, in order
  // A non-sink slot's bits changed since the last solve.
  bool matrix_changed_ = false;
  bool rhs_changed_ = false;
  bool factor_ok_ = false;        // dense_ holds a live factorization
  bool solve_cached_ = false;     // cached_x_ matches current values
  std::vector<double> cached_x_;
  linalg::DenseLuWorkspace dlw_;
  SolveStats stats_;
};

}  // namespace ppd::spice
