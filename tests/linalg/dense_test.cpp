#include "ppd/linalg/dense.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ppd/mc/rng.hpp"
#include "ppd/util/error.hpp"

namespace ppd::linalg {
namespace {

TEST(DenseMatrix, ZeroInitialized) {
  DenseMatrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(DenseMatrix, IndexOutOfRangeThrows) {
  DenseMatrix m(2, 2);
  EXPECT_THROW(static_cast<void>(std::as_const(m)(2, 0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(std::as_const(m)(0, 2)), PreconditionError);
}

TEST(DenseMatrix, MultiplyIdentity) {
  const DenseMatrix i = DenseMatrix::identity(3);
  const std::vector<double> x{1.0, -2.0, 3.0};
  EXPECT_EQ(i.multiply(x), x);
}

TEST(DenseLu, SolvesSmallSystem) {
  // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
  DenseMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const DenseLu lu(a);
  const auto x = lu.solve({3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the initial diagonal but nonsingular.
  DenseMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const DenseLu lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(DenseLu{a}, NumericalError);
}

TEST(DenseLu, NonSquareThrows) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(DenseLu{a}, PreconditionError);
}

TEST(DenseLu, Determinant) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_NEAR(DenseLu(a).determinant(), 10.0, 1e-12);
}

class DenseLuRandom : public ::testing::TestWithParam<int> {};

TEST_P(DenseLuRandom, SolveMatchesMultiply) {
  // Property: for random well-conditioned A and x, solve(A*x) == x.
  const int n = GetParam();
  mc::Rng rng(1234u + static_cast<unsigned>(n));
  DenseMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);  // diagonal dominance
  }
  std::vector<double> x_ref(static_cast<std::size_t>(n));
  for (auto& v : x_ref) v = rng.uniform(-10.0, 10.0);
  const auto b = a.multiply(x_ref);
  const auto x = DenseLu(a).solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                                          x_ref[static_cast<std::size_t>(i)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseLuRandom,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

TEST(Norms, InfAndTwo) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({}), 0.0);
}

TEST(Norms, InfNormPropagatesNaN) {
  // std::max drops NaN; a non-finite guard on norm_inf must still see it,
  // wherever in the vector it sits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(norm_inf({nan, 1.0})));
  EXPECT_TRUE(std::isnan(norm_inf({1.0, nan})));
  EXPECT_TRUE(std::isnan(norm_inf({-2.0, nan, 3.0})));
  EXPECT_EQ(norm_inf({1.0, -std::numeric_limits<double>::infinity()}),
            std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// Pattern-restricted factor: bit-identity against the full-loop reference.

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// An MNA-shaped structure: every node row has its diagonal plus a few
/// symmetric couplings (conductances), and the last `branches` rows are
/// voltage-source branch rows with an empty diagonal, coupled to one node
/// each. Returns the column-major offsets of the structural entries.
std::vector<std::size_t> mna_structure(std::size_t n, mc::Rng& rng) {
  const std::size_t branches = n / 6;
  const std::size_t nodes = n - branches;
  std::vector<std::size_t> cells;
  const auto cell = [&](std::size_t r, std::size_t c) { cells.push_back(c * n + r); };
  for (std::size_t i = 0; i < nodes; ++i) cell(i, i);
  for (std::size_t i = 0; i < 2 * nodes; ++i) {
    const auto a = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * nodes) % nodes;
    const auto b = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * nodes) % nodes;
    if (a == b) continue;
    cell(a, b);
    cell(b, a);
  }
  for (std::size_t k = 0; k < branches; ++k) {
    const std::size_t br = nodes + k;
    const std::size_t node = (k * 7) % nodes;
    cell(node, br);
    cell(br, node);
  }
  return cells;
}

/// Values for one round on the structural entries, everything else +0.0.
/// `style` selects the value mix the restricted factor must survive.
enum class Style { kDominant, kPivotFlip, kZeros, kNegative, kInf };

DenseMatrix valued(std::size_t n, const std::vector<std::size_t>& cells,
                   Style style, mc::Rng& rng) {
  DenseMatrix a(n, n);
  double* d = a.data();
  for (std::size_t cell : cells) {
    const std::size_t r = cell % n, c = cell / n;
    double v = rng.uniform(-1.0, 1.0);
    switch (style) {
      case Style::kDominant:
        if (r == c) v = 4.0 + v;
        break;
      case Style::kPivotFlip:
        // Weak diagonals and occasionally strong off-diagonals: partial
        // pivoting picks different rows than in the dominant rounds.
        if (r == c) v *= 0.05;
        else if (rng.uniform(0.0, 1.0) < 0.3) v *= 20.0;
        break;
      case Style::kZeros:
        // Structurally present but exactly zero (of either sign).
        if (rng.uniform(0.0, 1.0) < 0.4) v = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
        else if (r == c) v = 4.0 + v;
        break;
      case Style::kNegative:
        // Negative pivots turn the scaled zeros below them into -0.0.
        if (r == c) v = -4.0 - v;
        break;
      case Style::kInf:
        if (rng.uniform(0.0, 1.0) < 0.05)
          v = (v < 0.0 ? -1.0 : 1.0) * std::numeric_limits<double>::infinity();
        else if (r == c) v = 4.0 + v;
        break;
    }
    d[cell] += v;
  }
  return a;
}

void expect_same_factor(DenseLuWorkspace& pat, DenseLuWorkspace& ref,
                        const DenseMatrix& a, mc::Rng& rng) {
  const std::size_t n = a.rows();
  DenseMatrix lp = a, lr = a;
  bool threw_pat = false, threw_ref = false;
  try {
    pat.factor(lp);
  } catch (const NumericalError&) {
    threw_pat = true;
  }
  try {
    ref.factor(lr);
  } catch (const NumericalError&) {
    threw_ref = true;
  }
  ASSERT_EQ(threw_pat, threw_ref);
  for (std::size_t i = 0; i < n * n; ++i)
    ASSERT_TRUE(bits_equal(lp.data()[i], lr.data()[i]))
        << "factor entry " << i % n << "," << i / n;
  if (threw_ref) return;
  std::vector<double> b(n), xp, xr;
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  pat.solve_into(b, xp);
  ref.solve_into(b, xr);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(bits_equal(xp[i], xr[i])) << "solution component " << i;
}

TEST(DenseLuPattern, BitIdenticalToFullLoopOnMnaShapedMatrices) {
  const Style schedule[] = {Style::kDominant, Style::kDominant, Style::kPivotFlip,
                            Style::kDominant, Style::kZeros,    Style::kNegative,
                            Style::kPivotFlip, Style::kInf,     Style::kDominant};
  DenseLuWorkspace::Stats total;
  for (std::size_t n = 8; n <= 40; n += 4) {
    mc::Rng rng(4242u + n);
    const std::vector<std::size_t> cells = mna_structure(n, rng);
    DenseLuWorkspace pat, ref;  // ref has no structure: the full loop
    pat.set_structure(n, cells);
    for (int round = 0; round < 12; ++round)
      for (Style style : schedule) {
        const DenseMatrix a = valued(n, cells, style, rng);
        expect_same_factor(pat, ref, a, rng);
        if (HasFatalFailure()) return;
      }
    EXPECT_EQ(ref.stats().pattern, 0u);
    total.pattern += pat.stats().pattern;
    total.full += pat.stats().full;
  }
  // Both paths ran: restricted factors, and full-loop fallbacks after the
  // first factor of each size (pivot flips, then a re-learn).
  EXPECT_GT(total.pattern, 0u);
  EXPECT_GT(total.full, 9u);
}

TEST(DenseLuPattern, FallbackMidFactorRelearnsThePivots) {
  // 3x3 full structure. A diagonal-dominant factor learns "no swaps"; a
  // matrix whose column-1 pivot moves to row 2 keeps the learned path for
  // column 0, falls back at column 1, and the next factor with those same
  // swaps runs restricted again.
  const std::size_t n = 3;
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < n * n; ++i) cells.push_back(i);
  DenseLuWorkspace pat, ref;
  pat.set_structure(n, cells);
  mc::Rng rng(5);
  const auto matrix = [](std::initializer_list<double> row_major) {
    DenseMatrix a(3, 3);
    std::size_t i = 0;
    for (double v : row_major) {
      a(i / 3, i % 3) = v;
      ++i;
    }
    return a;
  };
  const DenseMatrix dominant = matrix({4, 1, 1, 1, 4, 1, 1, 1, 4});
  const DenseMatrix flipped = matrix({4, 1, 1, 1, 0.5, 1, 1, 6, 4});
  expect_same_factor(pat, ref, dominant, rng);  // first factor: full, learns
  expect_same_factor(pat, ref, dominant, rng);  // same pivots: restricted
  EXPECT_EQ(pat.stats().full, 1u);
  EXPECT_EQ(pat.stats().pattern, 1u);
  expect_same_factor(pat, ref, flipped, rng);   // diverges at column 1
  EXPECT_EQ(pat.stats().full, 2u);
  expect_same_factor(pat, ref, flipped, rng);   // re-learned pivots hold
  EXPECT_EQ(pat.stats().pattern, 2u);
}

}  // namespace
}  // namespace ppd::linalg
