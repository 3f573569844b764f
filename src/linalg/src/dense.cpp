#include "ppd/linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "ppd/util/error.hpp"

namespace ppd::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

double& DenseMatrix::operator()(std::size_t r, std::size_t c) {
  PPD_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[c * rows_ + r];
}

double DenseMatrix::operator()(std::size_t r, std::size_t c) const {
  PPD_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[c * rows_ + r];
}

void DenseMatrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
  PPD_REQUIRE(x.size() == cols_, "dimension mismatch in multiply");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const double xc = x[c];
    if (xc == 0.0) continue;
    const double* col = data_.data() + c * rows_;
    for (std::size_t r = 0; r < rows_; ++r) y[r] += col[r] * xc;
  }
  return y;
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void DenseLuWorkspace::set_structure(std::size_t n,
                                     const std::vector<std::size_t>& cells) {
  PPD_REQUIRE(n * n <= std::numeric_limits<std::uint32_t>::max(),
              "structure too large for 32-bit pattern lists");
  mask_n_ = n;
  mask_.assign(n * n, 0);
  for (std::size_t c : cells) {
    PPD_REQUIRE(c < n * n, "structure cell out of range");
    mask_[c] = 1;
  }
  learned_ = false;
  lu_ = nullptr;
}

void DenseLuWorkspace::clear(DenseMatrix& a) const {
  if (lu_ != &a || !restricted_) {
    a.set_zero();
    return;
  }
  const std::size_t n = a.rows();
  double* d = a.data();
  for (std::size_t i = 0; i < n; ++i) {
    d[i * n + i] = 0.0;
    for (std::uint32_t p = lr_ptr_[i]; p < lr_ptr_[i + 1]; ++p)
      d[std::size_t{lr_idx_[p]} * n + i] = 0.0;
    for (std::uint32_t p = u_ptr_[i]; p < u_ptr_[i + 1]; ++p)
      d[std::size_t{u_idx_[p]} * n + i] = 0.0;
  }
}

void DenseLuWorkspace::factor(DenseMatrix& a, double pivot_tol) {
  PPD_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  PPD_REQUIRE(mask_.empty() || mask_n_ == n,
              "matrix order differs from the workspace structure");
  lu_ = nullptr;  // until this factor completes
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  piv_.resize(n);
  nz_row_.resize(n);
  nz_mult_.resize(n);
  double* d = a.data();  // column-major: (r, c) at d[c * n + r]
  // The learned lists hold while this factor's pivots repeat the learned
  // ones; from the first that differs the full loops take over.
  bool on_pattern = learned_;

  // Each entry receives the identical operations on either path (see the
  // class comment); only the traversal differs.
  for (std::size_t k = 0; k < n; ++k) {
    double* colk = d + k * n;
    std::size_t piv = k;
    double piv_mag = std::abs(colk[k]);
    const auto consider = [&](std::size_t r) {
      const double mag = std::abs(colk[r]);
      if (mag > piv_mag) {
        piv = r;
        piv_mag = mag;
      }
    };
    if (on_pattern) {
      for (std::uint32_t p = s_ptr_[k]; p < s_ptr_[k + 1]; ++p) consider(s_idx_[p]);
    } else {
      for (std::size_t r = k + 1; r < n; ++r) consider(r);
    }
    if (!(piv_mag > pivot_tol))
      throw NumericalError("LU: matrix is numerically singular at column " +
                           std::to_string(k));
    piv_[k] = piv;
    if (on_pattern && piv != learned_piv_[k]) on_pattern = false;
    if (piv != k) {
      if (on_pattern) {
        for (std::uint32_t p = w_ptr_[k]; p < w_ptr_[k + 1]; ++p) {
          const std::size_t c = w_idx_[p];
          std::swap(d[c * n + k], d[c * n + piv]);
        }
      } else {
        for (std::size_t c = 0; c < n; ++c) std::swap(d[c * n + k], d[c * n + piv]);
      }
      std::swap(perm_[k], perm_[piv]);
    }
    const double inv_piv = 1.0 / colk[k];
    if (on_pattern) {
      // Scale, and gather the non-zero multipliers the update applies.
      std::size_t nz = 0;
      for (std::uint32_t p = l_ptr_[k]; p < l_ptr_[k + 1]; ++p) {
        const std::uint32_t r = l_idx_[p];
        const double m = colk[r] *= inv_piv;
        if (m == 0.0) continue;
        nz_row_[nz] = r;
        nz_mult_[nz++] = m;
      }
      if (nz == 0) continue;
      for (std::uint32_t ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
        double* colc = d + std::size_t{u_idx_[ui]} * n;
        const double pk = colc[k];
        if (pk == 0.0) continue;
        for (std::size_t i = 0; i < nz; ++i) colc[nz_row_[i]] -= nz_mult_[i] * pk;
      }
      continue;
    }
    for (std::size_t r = k + 1; r < n; ++r) colk[r] *= inv_piv;
    for (std::size_t c = k + 1; c < n; ++c) {
      double* colc = d + c * n;
      const double pk = colc[k];
      if (pk == 0.0) continue;
      for (std::size_t r = k + 1; r < n; ++r) {
        const double m = colk[r];
        if (m != 0.0) colc[r] -= m * pk;
      }
    }
  }
  lu_ = &a;
  restricted_ = on_pattern;
  if (on_pattern) {
    ++stats_.pattern;
  } else {
    ++stats_.full;
    if (!mask_.empty()) learn_pattern();
  }
}

void DenseLuWorkspace::learn_pattern() {
  // Replay the elimination symbolically: read step k's pivot candidates
  // and swap columns off the mask, swap its rows as the pivot did, read the
  // L rows / U columns off the swapped mask, and mark their product as
  // fill. This is a superset of every value pattern a factor with these
  // pivots can produce, because an update only ever writes (r, c) when
  // both (r, k) and (k, c) are non-zero.
  const std::size_t n = mask_n_;
  std::vector<char> m = mask_;
  for (auto* v : {&s_ptr_, &w_ptr_, &l_ptr_, &u_ptr_}) v->assign(1, 0);
  for (auto* v : {&s_idx_, &w_idx_, &l_idx_, &u_idx_}) v->clear();
  const auto close = [](std::vector<std::uint32_t>& ptr,
                        const std::vector<std::uint32_t>& idx) {
    ptr.push_back(static_cast<std::uint32_t>(idx.size()));
  };
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = piv_[k];
    for (std::size_t r = k + 1; r < n; ++r)
      if (m[k * n + r]) s_idx_.push_back(static_cast<std::uint32_t>(r));
    if (p != k)
      for (std::size_t c = 0; c < n; ++c)
        if (m[c * n + k] || m[c * n + p]) {
          w_idx_.push_back(static_cast<std::uint32_t>(c));
          std::swap(m[c * n + k], m[c * n + p]);
        }
    const std::size_t l0 = l_idx_.size();
    const std::size_t u0 = u_idx_.size();
    for (std::size_t r = k + 1; r < n; ++r)
      if (m[k * n + r]) l_idx_.push_back(static_cast<std::uint32_t>(r));
    for (std::size_t c = k + 1; c < n; ++c)
      if (m[c * n + k]) u_idx_.push_back(static_cast<std::uint32_t>(c));
    for (std::size_t ui = u0; ui < u_idx_.size(); ++ui)
      for (std::size_t li = l0; li < l_idx_.size(); ++li)
        m[std::size_t{u_idx_[ui]} * n + l_idx_[li]] = 1;
    close(s_ptr_, s_idx_);
    close(w_ptr_, w_idx_);
    close(l_ptr_, l_idx_);
    close(u_ptr_, u_idx_);
  }
  // Later swaps moved each step's L rows; the final mask holds L in the
  // factors' own row order, which the substitutions walk row by row.
  lr_ptr_.assign(1, 0);
  lr_idx_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j)
      if (m[j * n + i]) lr_idx_.push_back(static_cast<std::uint32_t>(j));
    close(lr_ptr_, lr_idx_);
  }
  learned_piv_ = piv_;
  learned_ = true;
}

void DenseLuWorkspace::solve_into(const std::vector<double>& b,
                                  std::vector<double>& x) const {
  PPD_REQUIRE(lu_ != nullptr, "solve_into before a successful factor");
  PPD_REQUIRE(&b != &x, "b and x must be distinct");
  const std::size_t n = lu_->rows();
  PPD_REQUIRE(b.size() == n, "dimension mismatch in solve");
  x.resize(n);
  // The MNA rhs is accumulated from +0.0 and never holds a -0; the scan (and
  // solve_full's reading of the full loop's zeros) keeps the contract that a
  // solution never depends on whether a pattern was learned, for any `b`.
  const auto negative_zero = [](double v) { return v == 0.0 && std::signbit(v); };
  if (!learned_ || std::any_of(b.begin(), b.end(), negative_zero)) {
    solve_full(b, x);
    return;
  }
  // Row by row with j ascending: the full loops' summation order.
  const double* d = lu_->data();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::uint32_t p = lr_ptr_[i]; p < lr_ptr_[i + 1]; ++p) {
      const std::size_t j = lr_idx_[p];
      s -= d[j * n + i] * x[j];
    }
    x[i] = s;
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::uint32_t p = u_ptr_[i]; p < u_ptr_[i + 1]; ++p) {
      const std::size_t j = u_idx_[p];
      s -= d[j * n + i] * x[j];
    }
    x[i] = s / d[i * n + i];
  }
  // A non-finite intermediate stays non-finite through to x, and only then
  // can a skipped (±0) * x[j] term (a NaN) have mattered.
  if (!std::all_of(x.begin(), x.end(), [](double v) { return std::isfinite(v); }))
    solve_full(b, x);
}

void DenseLuWorkspace::solve_full(const std::vector<double>& b,
                                  std::vector<double>& x) const {
  const std::size_t n = lu_->rows();
  const double* d = lu_->data();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    // L entries outside a learned pattern read as the full loop's scaled
    // zero, which carries the sign of its column's pivot.
    std::uint32_t p = learned_ ? lr_ptr_[i] : 0;
    const std::uint32_t p_end = learned_ ? lr_ptr_[i + 1] : 0;
    for (std::size_t j = 0; j < i; ++j) {
      double l = d[j * n + i];
      if (learned_) {
        if (p < p_end && lr_idx_[p] == j)
          ++p;
        else
          l = std::copysign(0.0, d[j * n + j]);
      }
      s -= l * x[j];
    }
    x[i] = s;
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= d[j * n + i] * x[j];
    x[i] = s / d[i * n + i];
  }
}

double norm_inf(const std::vector<double>& v) {
  // std::max drops NaN (every comparison with it is false), so test for it.
  double m = 0.0;
  for (double x : v) {
    if (std::isnan(x)) return x;
    m = std::max(m, std::abs(x));
  }
  return m;
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace ppd::linalg
