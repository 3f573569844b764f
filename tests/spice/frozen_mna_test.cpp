// Structure-frozen MnaSystem contract: replayed assembles + in-place
// refactorization produce bit-identical solutions to a from-scratch
// assemble/factor/solve, across many random value sets, for both solver
// backends; and the bitwise change tracking takes the cached / rhs-only /
// refactor shortcuts exactly when it may.
#include "ppd/spice/mna.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ppd/linalg/dense.hpp"
#include "ppd/linalg/sparse.hpp"
#include "ppd/mc/rng.hpp"

namespace ppd::spice {
namespace {

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr std::size_t kN = 12;

// One fixed stamping structure (a ladder with duplicate diagonal adds and a
// long-range coupling, MNA-shaped), valued from the rng streams each call.
// Frozen replays require the identical add sequence every assemble; only
// the values may differ. Matrix and rhs values draw from separate streams
// so tests can vary one side while replaying the other bitwise. `Sink` is
// an MnaSystem or the from-scratch Reference below.
template <typename Sink>
void assemble(Sink& mna, mc::Rng& mat_rng, mc::Rng& rhs_rng) {
  for (std::size_t i = 0; i < kN; ++i) {
    // Duplicate adds into the same cell exercise the recorded
    // accumulation-order scatter (the sum must match += order bitwise).
    mna.add(static_cast<MnaIndex>(i), static_cast<MnaIndex>(i),
            3.0 + mat_rng.uniform(0.0, 1.0));
    mna.add(static_cast<MnaIndex>(i), static_cast<MnaIndex>(i),
            1.0 + mat_rng.uniform(0.0, 1.0));
    if (i > 0) {
      mna.add(static_cast<MnaIndex>(i), static_cast<MnaIndex>(i - 1),
              mat_rng.uniform(-1.0, 1.0));
      mna.add(static_cast<MnaIndex>(i - 1), static_cast<MnaIndex>(i),
              mat_rng.uniform(-1.0, 1.0));
    }
    mna.add(static_cast<MnaIndex>(i), static_cast<MnaIndex>((i * 5) % kN),
            mat_rng.uniform(-0.2, 0.2));
    mna.add_rhs(static_cast<MnaIndex>(i), rhs_rng.uniform(-1.0, 1.0));
    mna.add_rhs(static_cast<MnaIndex>(i), rhs_rng.uniform(-1.0, 1.0));
  }
}

// From-scratch reference: the same add calls accumulated the textbook way
// (triplets -> CSC -> full sparse LU, or dense += -> dense LU) and solved
// once, with no structure learned or replayed.
class Reference {
 public:
  Reference(std::size_t n, bool use_sparse)
      : use_sparse_(use_sparse), builder_(n, n), dense_(n, n), rhs_(n, 0.0) {}

  void add(MnaIndex row, MnaIndex col, double value) {
    const auto r = static_cast<std::size_t>(row);
    const auto c = static_cast<std::size_t>(col);
    if (use_sparse_)
      builder_.add(r, c, value);
    else
      dense_(r, c) += value;
  }
  void add_rhs(MnaIndex row, double value) {
    rhs_[static_cast<std::size_t>(row)] += value;
  }

  [[nodiscard]] std::vector<double> solve() const {
    if (use_sparse_) {
      const linalg::SparseMatrix a(builder_);
      return linalg::SparseLu(a).solve(rhs_);
    }
    return linalg::DenseLu(dense_).solve(rhs_);
  }

 private:
  bool use_sparse_;
  linalg::SparseBuilder builder_;
  linalg::DenseMatrix dense_;
  std::vector<double> rhs_;
};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(bits_equal(a[i], b[i])) << "component " << i;
}

void run_random_assembles(bool use_sparse) {
  MnaSystem frozen(kN, use_sparse);
  for (int round = 0; round < 100; ++round) {
    // Same value streams for both systems: re-derive the round's rngs.
    const auto seed = static_cast<std::uint64_t>(round) * 977 + 11;
    mc::Rng mat(seed), rhs(seed + 1);
    mc::Rng mat2 = mat, rhs2 = rhs;

    frozen.reset();
    assemble(frozen, mat, rhs);
    std::vector<double> x;
    frozen.solve_into(x);

    Reference fresh(kN, use_sparse);
    assemble(fresh, mat2, rhs2);
    const std::vector<double> x_ref = fresh.solve();
    expect_bitwise_equal(x, x_ref);
  }
}

TEST(FrozenMna, SparseRefactorBitIdenticalAcross100RandomAssembles) {
  run_random_assembles(/*use_sparse=*/true);
}

TEST(FrozenMna, DenseRefactorBitIdenticalAcross100RandomAssembles) {
  run_random_assembles(/*use_sparse=*/false);
}

void run_solve_stats(bool use_sparse) {
  MnaSystem mna(kN, use_sparse);
  mc::Rng mat(7), rhs(8);
  mc::Rng mat_replay = mat, rhs_replay = rhs;

  mna.reset();
  assemble(mna, mat, rhs);
  std::vector<double> x;
  mna.solve_into(x);  // the learning solve factorizes once
  EXPECT_EQ(mna.solve_stats().refactored, 1u);

  // Bitwise-identical assemble: the previous solution is returned outright.
  {
    mc::Rng m = mat_replay, r = rhs_replay;
    mna.reset();
    assemble(mna, m, r);
    std::vector<double> x_cached;
    mna.solve_into(x_cached);
    EXPECT_EQ(mna.solve_stats().cached, 1u);
    EXPECT_EQ(mna.solve_stats().refactored, 1u);
    expect_bitwise_equal(x_cached, x);
  }

  // Same matrix values, different rhs values: solve against the live
  // factorization without refactorizing.
  {
    mc::Rng m = mat_replay, r(99);
    mna.reset();
    assemble(mna, m, r);
    std::vector<double> x_rhs;
    mna.solve_into(x_rhs);
    EXPECT_EQ(mna.solve_stats().rhs_only, 1u);
    EXPECT_EQ(mna.solve_stats().refactored, 1u);
  }

  // A changed matrix value forces the numeric refactorization, and the
  // result still matches a from-scratch solve bitwise.
  {
    mc::Rng m(991), r(992);
    mc::Rng m2 = m, r2 = r;
    mna.reset();
    assemble(mna, m, r);
    std::vector<double> x_new;
    mna.solve_into(x_new);
    EXPECT_EQ(mna.solve_stats().refactored, 2u);

    Reference fresh(kN, use_sparse);
    assemble(fresh, m2, r2);
    expect_bitwise_equal(x_new, fresh.solve());
  }
}

TEST(FrozenMna, SparseSolveStatsTakeTheBitwiseShortcuts) {
  run_solve_stats(/*use_sparse=*/true);
}

TEST(FrozenMna, DenseSolveStatsTakeTheBitwiseShortcuts) {
  run_solve_stats(/*use_sparse=*/false);
}

}  // namespace
}  // namespace ppd::spice
