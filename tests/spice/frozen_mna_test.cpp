// Slot-bound MnaSystem contract: slot writes + in-place refactorization
// produce bit-identical solutions to a from-scratch assemble/factor/solve,
// across many random value sets; and the bitwise change tracking takes the
// cached / rhs-only / refactor shortcuts exactly when it may.
#include "ppd/spice/mna.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ppd/linalg/dense.hpp"
#include "ppd/mc/rng.hpp"

namespace ppd::spice {
namespace {

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr std::size_t kN = 12;

// One fixed stamping structure (a ladder with duplicate diagonal adds and a
// long-range coupling, MNA-shaped), valued from the rng streams each call.
// Matrix and rhs values draw from separate streams so tests can vary one
// side while repeating the other bitwise. `Sink` is a Bound MnaSystem or the
// from-scratch Reference below.
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

// An MnaSystem seen through the add() interface: the first assemble binds
// every add in order (then freezes the system), every later one writes the
// next bound slot. A fixed structure makes the k-th add of every assemble
// the same entry.
class Bound {
 public:
  explicit Bound(std::size_t n) : mna_(n) {}

  void add(MnaIndex row, MnaIndex col, double value) {
    if (!frozen_) {
      slots_.push_back(mna_.bind(row, col));
      values_.push_back(value);
      return;
    }
    mna_.set(slots_[next_++], value);
  }
  void add_rhs(MnaIndex row, double value) {
    if (!frozen_) {
      rhs_slots_.push_back(mna_.bind_rhs(row));
      rhs_values_.push_back(value);
      return;
    }
    mna_.set_rhs(rhs_slots_[next_rhs_++], value);
  }

  void solve_into(std::vector<double>& x) {
    if (!frozen_) {
      mna_.freeze();
      frozen_ = true;
      for (std::size_t k = 0; k < slots_.size(); ++k) mna_.set(slots_[k], values_[k]);
      for (std::size_t k = 0; k < rhs_slots_.size(); ++k)
        mna_.set_rhs(rhs_slots_[k], rhs_values_[k]);
    }
    next_ = 0;
    next_rhs_ = 0;
    mna_.solve_into(x);
  }

  [[nodiscard]] const MnaSystem& mna() const { return mna_; }

 private:
  MnaSystem mna_;
  std::vector<MnaSlot> slots_, rhs_slots_;
  std::vector<double> values_, rhs_values_;  // the binding assemble's values
  std::size_t next_ = 0, next_rhs_ = 0;
  bool frozen_ = false;
};

// From-scratch reference: the same add calls accumulated the textbook way
// (dense +=) and factored and solved once by a structure-free workspace, the
// full loops, with no structure learned or replayed.
class Reference {
 public:
  explicit Reference(std::size_t n) : dense_(n, n), rhs_(n, 0.0) {}

  void add(MnaIndex row, MnaIndex col, double value) {
    dense_(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += value;
  }
  void add_rhs(MnaIndex row, double value) {
    rhs_[static_cast<std::size_t>(row)] += value;
  }

  [[nodiscard]] std::vector<double> solve() const {
    linalg::DenseMatrix lu = dense_;
    linalg::DenseLuWorkspace ws;
    ws.factor(lu);
    std::vector<double> x;
    ws.solve_into(rhs_, x);
    return x;
  }

 private:
  linalg::DenseMatrix dense_;
  std::vector<double> rhs_;
};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(bits_equal(a[i], b[i])) << "component " << i;
}

TEST(FrozenMna, DenseRefactorBitIdenticalAcross100RandomAssembles) {
  Bound frozen(kN);
  for (int round = 0; round < 100; ++round) {
    // Same value streams for both systems: re-derive the round's rngs.
    const auto seed = static_cast<std::uint64_t>(round) * 977 + 11;
    mc::Rng mat(seed), rhs(seed + 1);
    mc::Rng mat2 = mat, rhs2 = rhs;

    assemble(frozen, mat, rhs);
    std::vector<double> x;
    frozen.solve_into(x);

    Reference fresh(kN);
    assemble(fresh, mat2, rhs2);
    const std::vector<double> x_ref = fresh.solve();
    expect_bitwise_equal(x, x_ref);
  }
}

TEST(FrozenMna, DenseSolveStatsTakeTheBitwiseShortcuts) {
  Bound mna(kN);
  mc::Rng mat(7), rhs(8);
  mc::Rng mat_replay = mat, rhs_replay = rhs;

  assemble(mna, mat, rhs);
  std::vector<double> x;
  mna.solve_into(x);  // the first solve factorizes once
  EXPECT_EQ(mna.mna().solve_stats().refactored, 1u);

  // Bitwise-identical assemble: the previous solution is returned outright.
  {
    mc::Rng m = mat_replay, r = rhs_replay;
    assemble(mna, m, r);
    std::vector<double> x_cached;
    mna.solve_into(x_cached);
    EXPECT_EQ(mna.mna().solve_stats().cached, 1u);
    EXPECT_EQ(mna.mna().solve_stats().refactored, 1u);
    expect_bitwise_equal(x_cached, x);
  }

  // Same matrix values, different rhs values: solve against the live
  // factorization without refactorizing.
  {
    mc::Rng m = mat_replay, r(99);
    assemble(mna, m, r);
    std::vector<double> x_rhs;
    mna.solve_into(x_rhs);
    EXPECT_EQ(mna.mna().solve_stats().rhs_only, 1u);
    EXPECT_EQ(mna.mna().solve_stats().refactored, 1u);
  }

  // A changed matrix value forces the numeric refactorization, and the
  // result still matches a from-scratch solve bitwise.
  {
    mc::Rng m(991), r(992);
    mc::Rng m2 = m, r2 = r;
    assemble(mna, m, r);
    std::vector<double> x_new;
    mna.solve_into(x_new);
    EXPECT_EQ(mna.mna().solve_stats().refactored, 2u);

    Reference fresh(kN);
    assemble(fresh, m2, r2);
    expect_bitwise_equal(x_new, fresh.solve());
  }
}

TEST(FrozenMna, DenseGroundWritesGoToTheSink) {
  // Ground entries bind to the sink: their writes change nothing, so a
  // solve after writing only sink slots is the cached one.
  MnaSystem mna(2);
  const MnaSlot a = mna.bind(0, 0);
  const MnaSlot b = mna.bind(1, 1);
  const MnaSlot c = mna.bind(0, 1);
  EXPECT_EQ(mna.bind(kGroundIndex, 0), kSinkSlot);
  EXPECT_EQ(mna.bind(1, kGroundIndex), kSinkSlot);
  const MnaSlot r = mna.bind_rhs(0);
  EXPECT_EQ(mna.bind_rhs(kGroundIndex), kSinkSlot);
  mna.freeze();
  mna.set(a, 2.0);
  mna.set(b, 4.0);
  mna.set(c, 1.0);
  mna.set_rhs(r, 3.0);
  std::vector<double> x;
  mna.solve_into(x);
  for (double v : {5.0, -7.0, 0.25}) {
    mna.set(kSinkSlot, v);
    mna.set_rhs(kSinkSlot, v);
    std::vector<double> again;
    mna.solve_into(again);
    expect_bitwise_equal(again, x);
  }
  EXPECT_EQ(mna.solve_stats().refactored, 1u);
  EXPECT_EQ(mna.solve_stats().cached, 3u);
}

}  // namespace
}  // namespace ppd::spice
