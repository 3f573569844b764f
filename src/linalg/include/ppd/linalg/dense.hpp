// Dense column-major matrix with LU factorization (partial pivoting).
//
// MNA systems for the circuits in this project are small (tens of nodes), so
// a dense factorization is the default solver; the sparse path
// (ppd/linalg/sparse.hpp) exists for larger netlists and is validated against
// this one in the test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppd::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const;

  /// Reset every entry to zero without reallocating.
  void set_zero();

  /// Raw column-major storage (entry (r, c) lives at data()[c * rows() + r]).
  /// Exposed for the in-place factorization workspace, which needs
  /// unchecked access in its inner loops.
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// y = A * x  (dimensions must match).
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const;

  [[nodiscard]] static DenseMatrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;  // column-major
};

/// LU factorization with partial (row) pivoting of a square matrix.
/// Throws NumericalError when the matrix is numerically singular.
class DenseLu {
 public:
  /// Factorize a copy of `a`.
  explicit DenseLu(const DenseMatrix& a, double pivot_tol = 1e-13);

  /// Solve A x = b for one right-hand side.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant of the factorized matrix (sign included).
  [[nodiscard]] double determinant() const;

  [[nodiscard]] std::size_t order() const { return lu_.rows(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i] of A
  int perm_sign_ = 1;
};

/// Reusable in-place LU workspace: factorizes a caller-owned matrix without
/// copying it and solves into a caller-owned vector, so a Newton loop that
/// re-assembles the same matrix every iteration allocates nothing. The
/// pivoting and elimination perform the exact operation sequence of DenseLu,
/// so solve results are bit-identical to the allocating path.
///
/// Pattern-restricted elimination: given the structural mask of the matrices
/// it will see (set_structure), the workspace derives, after a factor, the
/// L-row and U-column lists of every elimination step for that factor's
/// pivot sequence, fill included. A later factor still runs the full pivot
/// search, row swap and column scaling (O(n^2), and what keeps the bits of
/// signed zeros exact) but runs the O(n^3) rank-1 update only over those
/// lists while its pivots repeat the learned ones. Entries outside the
/// pattern are exact zeros, which the full loop skips anyway (its `pk == 0`
/// and `m == 0` tests), so the restricted update performs exactly the full
/// loop's operations. At the first pivot that differs, the factor continues
/// with the full loop and then re-learns the lists from its own pivots.
class DenseLuWorkspace {
 public:
  /// Structural mask for later factors: `cells` lists the column-major
  /// offsets (c * n + r) of every entry of an n x n matrix that may be
  /// non-zero (duplicates allowed); every other entry of a factored matrix
  /// must be exactly +0.0. Forgets any learned pattern. Without a mask every
  /// factor runs the full update loop (the reference path).
  void set_structure(std::size_t n, const std::vector<std::size_t>& cells);

  /// Factorize `a` IN PLACE (`a` is overwritten with its LU factors and must
  /// stay alive until the next factor() call). Throws NumericalError when
  /// the matrix is numerically singular.
  void factor(DenseMatrix& a, double pivot_tol = 1e-13);

  /// x = A^-1 b using the last factorization. `x` is resized; `b` and `x`
  /// must be distinct vectors.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// How many completed factors ran the restricted update on every column
  /// (`pattern`), and how many ran the full loop on at least one column
  /// (`full`: the first factor, pivot divergences, no structure).
  struct Stats {
    std::uint64_t pattern = 0;
    std::uint64_t full = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Symbolic elimination of mask_ under piv_: fills the per-step lists and
  /// records piv_ as the learned pivot sequence.
  void learn_pattern();

  DenseMatrix* lu_ = nullptr;      // last factored matrix (not owned)
  std::vector<std::size_t> perm_;  // row permutation, as in DenseLu
  std::vector<std::size_t> piv_;   // pivot row of each step, this factor
  std::size_t mask_n_ = 0;
  std::vector<char> mask_;         // column-major structural mask, n x n
  bool learned_ = false;           // lists below match learned_piv_
  std::vector<std::size_t> learned_piv_;
  std::vector<std::uint32_t> l_ptr_, l_idx_;  // step k: rows r > k of L
  std::vector<std::uint32_t> u_ptr_, u_idx_;  // step k: cols c > k of U
  Stats stats_;
};

/// Vector helpers shared by the solvers and the Newton loop. norm_inf is NaN
/// when any entry is NaN (so a non-finite guard on it sees NaN iterates).
[[nodiscard]] double norm_inf(const std::vector<double>& v);
[[nodiscard]] double norm2(const std::vector<double>& v);

}  // namespace ppd::linalg
