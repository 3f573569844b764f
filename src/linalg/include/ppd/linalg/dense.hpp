// Dense column-major matrix and the LU workspace that factorizes every MNA
// system: dense storage, with a learned sparsity pattern restricting the
// work once the structure is known.
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

/// In-place LU workspace with partial (row) pivoting: the one LU of the
/// project. It factorizes a caller-owned matrix without copying it and
/// solves into a caller-owned vector, so a Newton loop that re-assembles the
/// same matrix every iteration allocates nothing. Throws NumericalError when
/// the matrix is numerically singular.
///
/// Without a structure every factor and solve runs the full O(n^3) / O(n^2)
/// loops: the reference path. Given the structural mask of the matrices it
/// will see (set_structure), the workspace learns, after a factor, every
/// list that factor's pivot sequence touches, fill included (the learned-
/// pattern refactor of KLU: Davis & Palamadai Natarajan, ACM TOMS 37(3),
/// 2010). While a later factor's pivots repeat the learned ones, its pivot
/// search, row swap, column scaling and rank-1 update run only over those
/// lists, and so do both substitutions of solve_into(): the work scales
/// with the factors' entries, not with n^2. At the first pivot that
/// differs, the factor continues with the full loops and then re-learns the
/// lists from its own pivots.
///
/// Bit identity with the full loops. An entry outside the pattern is an
/// exact zero (+0 or, in L, a scaled -0), and every full-loop operation on
/// it is a no-op the lists may skip: |±0| never beats the current pivot
/// magnitude (not even a NaN one), the update already skips zero
/// multipliers and zero pivot-row entries, and a substitution term
/// (±0) * finite leaves a running sum alone unless that sum is -0, which a
/// sum cannot become without starting there. So the restricted factor
/// writes the full loop's bits at every pattern position (L positions
/// outside it may hold +0 where the full loop holds -0, and are never
/// read), and the restricted solve returns the full solve's bits unless `b`
/// holds a -0 or the result is not finite. In those two cases solve_into()
/// runs the full loops, reading each L entry outside the pattern as the
/// full loop's zero (the sign of its column's pivot).
class DenseLuWorkspace {
 public:
  /// Structural mask for later factors: `cells` lists the column-major
  /// offsets (c * n + r) of every entry of an n x n matrix that may be
  /// non-zero (duplicates allowed); every other entry of a factored matrix
  /// must be exactly +0.0. Forgets any learned pattern.
  void set_structure(std::size_t n, const std::vector<std::size_t>& cells);

  /// Make `a` all +0.0 for the next assemble. After a factor of `a` that
  /// ran entirely on the learned pattern only the pattern positions can be
  /// non-zero, so only they are written; otherwise every entry is.
  void clear(DenseMatrix& a) const;

  /// Factorize `a` IN PLACE (`a` is overwritten with its LU factors and must
  /// stay alive until the next factor() call). Throws NumericalError when
  /// the matrix is numerically singular.
  void factor(DenseMatrix& a, double pivot_tol = 1e-13);

  /// x = A^-1 b using the last successful factorization. `x` is resized;
  /// `b` and `x` must be distinct vectors.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// How many completed factors ran on the learned pattern in every column
  /// (`pattern`), and how many ran the full loops on at least one column
  /// (`full`: the first factor, pivot divergences, no structure).
  struct Stats {
    std::uint64_t pattern = 0;
    std::uint64_t full = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Symbolic elimination of mask_ under piv_: fills every list below and
  /// records piv_ as the learned pivot sequence.
  void learn_pattern();
  /// The full-loop substitutions (see the class comment).
  void solve_full(const std::vector<double>& b, std::vector<double>& x) const;

  DenseMatrix* lu_ = nullptr;      // last successfully factored matrix
  bool restricted_ = false;        // ... and it ran on the learned pattern
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i] of A
  std::vector<std::size_t> piv_;   // pivot row of each step, this factor
  std::size_t mask_n_ = 0;
  std::vector<char> mask_;         // column-major structural mask, n x n
  bool learned_ = false;           // lists below match learned_piv_
  std::vector<std::size_t> learned_piv_;
  // Per elimination step k, in that step's row order (ascending indices):
  std::vector<std::uint32_t> s_ptr_, s_idx_;  // rows r > k of column k, pre-swap
  std::vector<std::uint32_t> w_ptr_, w_idx_;  // cols of row k or its pivot row
  std::vector<std::uint32_t> l_ptr_, l_idx_;  // rows r > k of L
  std::vector<std::uint32_t> u_ptr_, u_idx_;  // cols c > k of U (= final row k)
  std::vector<std::uint32_t> lr_ptr_, lr_idx_;  // final row i of L: cols j < i
  std::vector<std::uint32_t> nz_row_;  // step scratch: non-zero multipliers
  std::vector<double> nz_mult_;
  Stats stats_;
};

/// Vector helpers shared by the solvers and the Newton loop. norm_inf is NaN
/// when any entry is NaN (so a non-finite guard on it sees NaN iterates).
[[nodiscard]] double norm_inf(const std::vector<double>& v);
[[nodiscard]] double norm2(const std::vector<double>& v);

}  // namespace ppd::linalg
