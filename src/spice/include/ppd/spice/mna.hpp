// Modified-nodal-analysis system assembly. Devices stamp conductances,
// sources and auxiliary (branch-current) equations through this interface;
// the analysis engine then factorizes with the dense or sparse solver.
//
// The system is structure-frozen. The first assemble + solve_into() cycle
// learns the stamping structure: the exact (row, col) matrix add sequence,
// the rhs add sequence, the triplet -> CSC slot mapping with its
// duplicate-accumulation order, and the LU elimination ordering. Every later
// assemble must replay the same add sequence (enforced) and writes numeric
// values into the learned slots; solve_into() scatters them in the recorded
// accumulation order, so sums are bitwise those of a from-scratch assemble,
// and refactorizes in place into a caller-owned buffer: no triplet rebuild,
// no symbolic analysis, no per-iteration allocation. Results are
// bit-identical to a from-scratch factor + solve (the sparse refactorization
// verifies its frozen pivot order and falls back to a full factor when
// values shift it).
//
// Because slot values persist between assembles, a replay may also be
// PARTIAL: seek() repositions the replay cursors to a recorded mark() and
// only the devices whose values actually changed rewrite their slots —
// everything else replays verbatim. The transient engine uses this to
// restamp only nonlinear devices on Newton iterations >= 2 and only
// time-varying devices on new time steps (see analysis.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ppd/linalg/dense.hpp"
#include "ppd/linalg/sparse.hpp"

namespace ppd::spice {

/// MNA row/column index: 0..n_nodes-1 are node voltages (ground excluded),
/// then auxiliary rows. A negative index denotes ground and is dropped.
using MnaIndex = int;
constexpr MnaIndex kGroundIndex = -1;

class MnaSystem {
 public:
  /// `use_sparse` selects the backing solver. A new system is learning:
  /// its first assemble + solve_into() records the structure.
  MnaSystem(std::size_t unknowns, bool use_sparse);

  void reset();

  /// A(row, col) += value; ground indices are ignored.
  void add(MnaIndex row, MnaIndex col, double value);

  /// rhs(row) += value; ground ignored.
  void add_rhs(MnaIndex row, double value);

  /// True once the learning assemble + solve has completed and later
  /// assembles replay (fully or partially) into the learned slots.
  [[nodiscard]] bool replay_ready() const { return learned_; }

  /// Replay cursor positions — a point in the learned add sequences.
  struct Mark {
    std::size_t trip = 0;
    std::size_t rhs = 0;
  };
  /// Current position in the add sequences (valid during the learning
  /// assemble, where it delimits per-device slot windows for later partial
  /// replays). While learning, adds append, so the position is the sequence
  /// length; once replay-ready it is the replay cursor.
  [[nodiscard]] Mark mark() const {
    if (learned_) return {trip_cursor_, rhs_cursor_};
    return {trip_row_.size(), rhs_row_.size()};
  }
  /// Reposition the replay cursors to a recorded mark and flag this
  /// assemble as partial: slots not rewritten before solve_into() keep
  /// their previous values. replay_ready() only.
  void seek(const Mark& m);

  /// Flag the in-progress assemble as partial without repositioning the
  /// cursors — for selective walks that may visit zero devices (an empty
  /// walk is a valid partial assemble: every slot replays). replay_ready()
  /// only.
  void note_partial();

  /// Factorize and solve into `x` (resized). Throws NumericalError on
  /// singularity. Allocation-free after the first call; the dense solver
  /// factorizes the assembled matrix in place (the matrix is consumed —
  /// reassemble before the next solve).
  void solve_into(std::vector<double>& x);

  [[nodiscard]] std::size_t unknowns() const { return n_; }
  [[nodiscard]] bool sparse() const { return use_sparse_; }

  /// Solve disposition counters: how many solve_into() calls refactorized,
  /// rebuilt only the rhs against the previous factorization, or returned
  /// the cached solution outright.
  struct SolveStats {
    std::uint64_t refactored = 0;
    std::uint64_t rhs_only = 0;
    std::uint64_t cached = 0;
  };
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

 private:
  /// Build the frozen CSC image + slot maps from the current triplets,
  /// replicating SparseMatrix's duplicate-accumulation order so scattered
  /// values match a rebuilt matrix bitwise.
  void learn_sparse_structure();
  /// Build the dense scatter program: slot k is the column-major offset of
  /// triplet k, replayed in add order (the order a from-scratch += assemble
  /// accumulates in).
  void learn_dense_structure();
  /// Group the learned rhs add sequence by row (add order preserved within
  /// each row) so dirty rows can be re-accumulated individually.
  void learn_rhs_rows();

  std::size_t n_;
  bool use_sparse_;
  linalg::DenseMatrix dense_;
  // Learned matrix add sequence (both backends) and its replayed values.
  std::vector<std::size_t> trip_row_, trip_col_;
  std::vector<double> trip_val_;
  std::vector<double> rhs_;

  bool learned_ = false;                   // structure recorded, replaying
  bool partial_ = false;                   // current assemble used seek()
  // Bitwise value-change tracking across replayed assembles: when no matrix
  // slot changed, the previous factorization is still THE factorization of
  // this system and is reused; when the rhs didn't change either, the
  // previous solution is returned outright. Both are bit-identical shortcuts
  // (same bits in -> same bits out of a deterministic solver).
  bool mat_changed_ = true;
  bool rhs_changed_ = true;
  bool factor_ok_ = false;                 // dense_/slu_ hold a live factorization
  bool solve_cached_ = false;              // cached_x_ matches current values
  std::vector<double> cached_x_;
  std::size_t trip_cursor_ = 0;            // replay position during assembles
  std::size_t rhs_cursor_ = 0;
  std::vector<std::size_t> rhs_row_;       // learned rhs add sequence
  std::vector<double> rhs_val_;
  std::unique_ptr<linalg::SparseMatrix> a_;  // frozen CSC, values rewritten
  std::vector<std::size_t> dense_slot_;    // triplet index -> dense offset
  // Incremental scatter: rebuilding the whole CSC image per solve costs
  // O(triplets) even when one device restamped. The inverse maps below let
  // add() mark exactly the value slots / rhs rows its bit changes touch, and
  // solve_into() re-accumulates only those (in the recorded order, so the
  // sums stay bitwise full-rebuild sums). Matrix-side maps are sparse-only:
  // the dense in-place factorization consumes the matrix image, so dense
  // rebuilds are always full. rhs maps serve both backends.
  std::vector<std::size_t> trip_slot_;     // triplet index -> its CSC slot
  std::vector<std::size_t> slot_ptr_, slot_src_;  // slot -> triplets, in order
  std::vector<char> slot_dirty_;
  std::vector<std::size_t> dirty_slots_;
  std::vector<std::size_t> rhs_ptr_, rhs_src_;    // row -> rhs adds, in order
  std::vector<char> rhs_row_dirty_;
  std::vector<std::size_t> dirty_rhs_rows_;
  linalg::SparseLu slu_;
  linalg::DenseLuWorkspace dlw_;
  SolveStats stats_;
};

}  // namespace ppd::spice
