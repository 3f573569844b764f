#include "ppd/linalg/dense.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Factor a copy of `a` with a structure-free workspace (the full loops)
/// and solve for `b`.
std::vector<double> lu_solve(const DenseMatrix& a, const std::vector<double>& b) {
  DenseMatrix lu = a;
  DenseLuWorkspace ws;
  ws.factor(lu);
  std::vector<double> x;
  ws.solve_into(b, x);
  return x;
}

TEST(LuWorkspace, SolvesSmallSystem) {
  // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
  DenseMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = lu_solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuWorkspace, RequiresPivoting) {
  // Zero on the initial diagonal but nonsingular.
  DenseMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = lu_solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuWorkspace, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  DenseLuWorkspace ws;
  EXPECT_THROW(ws.factor(a), NumericalError);
  // A factor that threw leaves nothing to solve against.
  std::vector<double> x;
  EXPECT_THROW(ws.solve_into({1.0, 1.0}, x), PreconditionError);
}

TEST(LuWorkspace, NonSquareThrows) {
  DenseMatrix a(2, 3);
  DenseLuWorkspace ws;
  EXPECT_THROW(ws.factor(a), PreconditionError);
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
  const auto x = lu_solve(a, b);
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

/// Factor `a` on both workspaces and solve two right-hand sides with exact
/// zeros in about a fifth of their entries: all +0 (the pattern workspace
/// keeps its restricted substitutions), then of either sign (a -0 sends it
/// to the full loops). `lp` is the pattern workspace's persistent buffer:
/// clear() must leave it all +0. The factors agree bitwise wherever either
/// is non-zero (an L position outside the pattern may be +0 on one side and
/// -0 on the other), also the partial factors a throwing factor leaves; the
/// solutions agree bitwise everywhere.
void expect_same_factor(DenseLuWorkspace& pat, DenseLuWorkspace& ref,
                        DenseMatrix& lp, const DenseMatrix& a, mc::Rng& rng) {
  const std::size_t n = a.rows();
  pat.clear(lp);
  for (std::size_t i = 0; i < n * n; ++i)
    ASSERT_TRUE(bits_equal(lp.data()[i], 0.0)) << "cleared entry " << i;
  std::copy(a.data(), a.data() + n * n, lp.data());
  DenseMatrix lr = a;
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
  for (std::size_t i = 0; i < n * n; ++i) {
    const double p = lp.data()[i], r = lr.data()[i];
    ASSERT_TRUE(bits_equal(p, r) || (p == 0.0 && r == 0.0))
        << "factor entry " << i % n << "," << i / n;
  }
  if (threw_ref) return;
  for (bool signed_zeros : {false, true}) {
    std::vector<double> b(n), xp, xr;
    for (double& v : b) {
      v = rng.uniform(-1.0, 1.0);
      if (rng.uniform(0.0, 1.0) < 0.2) v = signed_zeros && v < 0.0 ? -0.0 : 0.0;
    }
    pat.solve_into(b, xp);
    ref.solve_into(b, xr);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_TRUE(bits_equal(xp[i], xr[i]))
          << "solution component " << i << (signed_zeros ? " (+-0 rhs)" : " (+0 rhs)");
  }
}

TEST(DenseLuPattern, BitIdenticalToFullLoopOnMnaShapedMatrices) {
  const Style schedule[] = {Style::kDominant, Style::kDominant, Style::kPivotFlip,
                            Style::kDominant, Style::kZeros,    Style::kNegative,
                            Style::kPivotFlip, Style::kInf,     Style::kDominant};
  std::vector<std::size_t> sizes;
  for (std::size_t n = 8; n <= 40; n += 4) sizes.push_back(n);
  for (std::size_t n : {96, 200, 320}) sizes.push_back(n);
  DenseLuWorkspace::Stats total;
  for (std::size_t n : sizes) {
    mc::Rng rng(4242u + n);
    const std::vector<std::size_t> cells = mna_structure(n, rng);
    DenseLuWorkspace pat, ref;  // ref has no structure: the full loops
    pat.set_structure(n, cells);
    DenseMatrix lp(n, n);
    // The reference's O(n^3) loops bound the rounds at the large sizes.
    const int rounds = n <= 40 ? 12 : 2;
    for (int round = 0; round < rounds; ++round)
      for (Style style : schedule) {
        const DenseMatrix a = valued(n, cells, style, rng);
        expect_same_factor(pat, ref, lp, a, rng);
        if (HasFatalFailure()) return;
      }
    EXPECT_EQ(ref.stats().pattern, 0u);
    total.pattern += pat.stats().pattern;
    total.full += pat.stats().full;
  }
  // Both paths ran: restricted factors, and full-loop fallbacks after the
  // first factor of each size (pivot flips, then a re-learn).
  EXPECT_GT(total.pattern, 0u);
  EXPECT_GT(total.full, 12u);
}

TEST(DenseLuPattern, NegativeZeroRhsReadsTheFullLoopsZeros) {
  // diag(-2, 3): the full loop scales the structurally zero (1, 0) to -0,
  // the learned pattern leaves it +0. With b = [1, -0] the full forward
  // substitution computes -0 - (-0 * 1) = +0 for x[1]; a solve that read
  // the restricted factor's +0 there would return -0 instead.
  const std::size_t n = 2;
  DenseLuWorkspace pat, ref;
  pat.set_structure(n, {0, 3});
  DenseMatrix a(n, n);
  a(0, 0) = -2.0;
  a(1, 1) = 3.0;
  DenseMatrix lp(n, n);
  mc::Rng rng(3);
  expect_same_factor(pat, ref, lp, a, rng);  // first factor: full, learns
  DenseMatrix l2 = a;
  pat.factor(l2);  // restricted: (1, 0) stays +0
  ASSERT_EQ(pat.stats().pattern, 1u);
  DenseMatrix lr = a;
  ref.factor(lr);
  std::vector<double> xp, xr;
  pat.solve_into({1.0, -0.0}, xp);
  ref.solve_into({1.0, -0.0}, xr);
  EXPECT_FALSE(std::signbit(xr[1]));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(bits_equal(xp[i], xr[i])) << "solution component " << i;
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
  DenseMatrix lp(n, n);
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
  expect_same_factor(pat, ref, lp, dominant, rng);  // first factor: full, learns
  expect_same_factor(pat, ref, lp, dominant, rng);  // same pivots: restricted
  EXPECT_EQ(pat.stats().full, 1u);
  EXPECT_EQ(pat.stats().pattern, 1u);
  expect_same_factor(pat, ref, lp, flipped, rng);   // diverges at column 1
  EXPECT_EQ(pat.stats().full, 2u);
  expect_same_factor(pat, ref, lp, flipped, rng);   // re-learned pivots hold
  EXPECT_EQ(pat.stats().pattern, 2u);
}

}  // namespace
}  // namespace ppd::linalg
