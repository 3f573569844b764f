#include "ppd/linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

DenseLu::DenseLu(const DenseMatrix& a, double pivot_tol) : lu_(a) {
  PPD_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t piv = k;
    double piv_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > piv_mag) {
        piv = r;
        piv_mag = mag;
      }
    }
    if (!(piv_mag > pivot_tol))
      throw NumericalError("DenseLu: matrix is numerically singular at column " +
                           std::to_string(k));
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_piv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv_piv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
}

std::vector<double> DenseLu::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  PPD_REQUIRE(b.size() == n, "dimension mismatch in solve");
  std::vector<double> x(n);
  // Forward substitution on Pb with unit-lower L.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution with U.
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lu_(i, j) * x[j];
    x[i] = s / lu_(i, i);
  }
  return x;
}

double DenseLu::determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

void DenseLuWorkspace::set_structure(std::size_t n,
                                     const std::vector<std::size_t>& cells) {
  mask_n_ = n;
  mask_.assign(n * n, 0);
  for (std::size_t c : cells) {
    PPD_REQUIRE(c < n * n, "structure cell out of range");
    mask_[c] = 1;
  }
  learned_ = false;
}

void DenseLuWorkspace::factor(DenseMatrix& a, double pivot_tol) {
  PPD_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  PPD_REQUIRE(mask_.empty() || mask_n_ == n,
              "matrix order differs from the workspace structure");
  lu_ = &a;
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  piv_.resize(n);
  double* d = a.data();  // column-major: (r, c) at d[c * n + r]
  // The restricted update holds while this factor's pivots repeat the
  // learned ones; from the first that differs the full loop takes over.
  bool on_pattern = learned_;

  // Same pivot choices and per-entry arithmetic as DenseLu; only the update
  // traversal runs column-major (each entry still receives the identical
  // single fused update per elimination step, so results match bitwise).
  for (std::size_t k = 0; k < n; ++k) {
    double* colk = d + k * n;
    std::size_t piv = k;
    double piv_mag = std::abs(colk[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(colk[r]);
      if (mag > piv_mag) {
        piv = r;
        piv_mag = mag;
      }
    }
    if (!(piv_mag > pivot_tol))
      throw NumericalError("DenseLu: matrix is numerically singular at column " +
                           std::to_string(k));
    piv_[k] = piv;
    if (on_pattern && piv != learned_piv_[k]) on_pattern = false;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(d[c * n + k], d[c * n + piv]);
      std::swap(perm_[k], perm_[piv]);
    }
    const double inv_piv = 1.0 / colk[k];
    for (std::size_t r = k + 1; r < n; ++r) colk[r] *= inv_piv;
    if (on_pattern) {
      const std::uint32_t* l_begin = l_idx_.data() + l_ptr_[k];
      const std::uint32_t* l_end = l_idx_.data() + l_ptr_[k + 1];
      for (std::uint32_t ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
        double* colc = d + std::size_t{u_idx_[ui]} * n;
        const double pk = colc[k];
        if (pk == 0.0) continue;
        for (const std::uint32_t* r = l_begin; r != l_end; ++r) {
          const double m = colk[*r];
          if (m != 0.0) colc[*r] -= m * pk;
        }
      }
      continue;
    }
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
  if (on_pattern) {
    ++stats_.pattern;
  } else {
    ++stats_.full;
    if (!mask_.empty()) learn_pattern();
  }
}

void DenseLuWorkspace::learn_pattern() {
  // Replay the elimination symbolically: swap mask rows as the pivots did,
  // read step k's L rows / U columns off the swapped mask, and mark their
  // product as fill. This is a superset of every value pattern a factor
  // with these pivots can produce, because an update only ever writes
  // (r, c) when both (r, k) and (k, c) are non-zero.
  const std::size_t n = mask_n_;
  std::vector<char> m = mask_;
  l_ptr_.assign(1, 0);
  u_ptr_.assign(1, 0);
  l_idx_.clear();
  u_idx_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = piv_[k];
    if (p != k)
      for (std::size_t c = 0; c < n; ++c) std::swap(m[c * n + k], m[c * n + p]);
    const std::size_t l0 = l_idx_.size();
    const std::size_t u0 = u_idx_.size();
    for (std::size_t r = k + 1; r < n; ++r)
      if (m[k * n + r]) l_idx_.push_back(static_cast<std::uint32_t>(r));
    for (std::size_t c = k + 1; c < n; ++c)
      if (m[c * n + k]) u_idx_.push_back(static_cast<std::uint32_t>(c));
    for (std::size_t ui = u0; ui < u_idx_.size(); ++ui)
      for (std::size_t li = l0; li < l_idx_.size(); ++li)
        m[std::size_t{u_idx_[ui]} * n + l_idx_[li]] = 1;
    l_ptr_.push_back(static_cast<std::uint32_t>(l_idx_.size()));
    u_ptr_.push_back(static_cast<std::uint32_t>(u_idx_.size()));
  }
  learned_piv_ = piv_;
  learned_ = true;
}

void DenseLuWorkspace::solve_into(const std::vector<double>& b,
                                  std::vector<double>& x) const {
  PPD_REQUIRE(lu_ != nullptr, "solve_into before factor");
  PPD_REQUIRE(&b != &x, "b and x must be distinct");
  const std::size_t n = lu_->rows();
  PPD_REQUIRE(b.size() == n, "dimension mismatch in solve");
  x.resize(n);
  const double* d = lu_->data();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= d[j * n + i] * x[j];
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
