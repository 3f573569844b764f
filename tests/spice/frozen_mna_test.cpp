// Slot-bound MnaSystem contract: slot writes + in-place refactorization
// produce bit-identical solutions to a from-scratch assemble/factor/solve,
// across many random value sets; the bitwise change flags take the cached /
// rhs-only / refactor shortcuts exactly when they may; and neither the order
// the devices stamp in nor skipping devices whose values did not change
// moves a bit.
#include "ppd/spice/mna.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "ppd/linalg/dense.hpp"
#include "ppd/mc/rng.hpp"
#include "ppd/spice/circuit.hpp"

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

// Two inverters joined through a resistor, with load, Miller and coupling
// capacitances and a current source: every device kind, and node cells
// that sum many slots of different magnitudes.
Circuit stamp_order_circuit() {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const NodeId mid = c.node("mid");
  const NodeId o2 = c.node("o2");
  c.add_vsource("Vdd", vdd, kGround, Dc{1.8});
  Pulse p;
  p.v2 = 1.8;
  p.delay = 1e-12;
  p.rise = 4e-12;
  p.width = 1e-9;
  c.add_vsource("Vin", in, kGround, p);
  MosParams pmos;
  pmos.type = MosType::kPmos;
  pmos.vt0 = -0.45;
  pmos.kp = 60e-6;
  pmos.w = 2e-6;
  const MosParams nmos;
  c.add_mosfet("Mp1", out, in, vdd, pmos);
  c.add_mosfet("Mn1", out, in, kGround, nmos);
  c.add_capacitor("Cm1", in, out, 1.5e-15);
  c.add_capacitor("Cl1", out, kGround, 7e-15);
  c.add_resistor("Rop", out, mid, 4.7e3);
  c.add_capacitor("Cmid", mid, kGround, 3e-15);
  c.add_mosfet("Mp2", o2, mid, vdd, pmos);
  c.add_mosfet("Mn2", o2, mid, kGround, nmos);
  c.add_capacitor("Cl2", o2, kGround, 9e-15);
  c.add_capacitor("Cc", out, o2, 0.7e-15);
  c.add_isource("Ileak", o2, kGround, Dc{2e-7});
  c.add_resistor("Rl", o2, kGround, 50e3);
  c.finalize();
  return c;
}

// A circuit bound into its own system in device order, plus its devices'
// stamps as closures in device order (a MOSFET's channel, then its gmin
// leak), each tagged with what it depends on.
struct BoundCircuit {
  enum Kind { kStatic, kTimePoint, kIterate };
  struct Stamp {
    Kind kind;
    std::function<void(MnaSystem&, const StampContext&)> run;
  };

  BoundCircuit() : circuit(stamp_order_circuit()), mna(circuit.unknown_count()) {
    for (const auto& dev : circuit.devices()) {
      dev->bind(mna);
      dev->enlist(lists);
      Device* d = dev.get();
      if (auto* r = dynamic_cast<Resistor*>(d)) {
        stamps.push_back({kStatic, [r](MnaSystem& m, const StampContext&) {
                            r->stamp(m);
                          }});
      } else if (auto* c = dynamic_cast<Capacitor*>(d)) {
        stamps.push_back({kTimePoint, [c](MnaSystem& m, const StampContext& ctx) {
                            c->stamp(m, ctx);
                          }});
      } else if (auto* v = dynamic_cast<VoltageSource*>(d)) {
        stamps.push_back({kTimePoint, [v](MnaSystem& m, const StampContext& ctx) {
                            v->stamp(m, ctx);
                          }});
      } else if (auto* i = dynamic_cast<CurrentSource*>(d)) {
        stamps.push_back({kTimePoint, [i](MnaSystem& m, const StampContext& ctx) {
                            i->stamp(m, ctx);
                          }});
      } else {
        auto* mos = dynamic_cast<Mosfet*>(d);
        stamps.push_back({kIterate, [mos](MnaSystem& m, const StampContext& ctx) {
                            mos->stamp(m, ctx);
                          }});
        stamps.push_back({kStatic, [mos](MnaSystem& m, const StampContext& ctx) {
                            mos->stamp_gmin(m, ctx.gmin);
                          }});
      }
    }
    mna.freeze();
  }

  Circuit circuit;
  MnaSystem mna;
  StampLists lists;
  std::vector<Stamp> stamps;
};

TEST(FrozenMna, StampOrderDoesNotChangeBits) {
  // Four copies of one circuit follow the same transient-like schedule,
  // stamping in device (= bind) order or in a shuffled order, and either
  // restamping every device each round or only the devices whose inputs
  // changed. Each cell is the bind-order fold of its slots whatever the
  // stamp order, so all four must solve to the same bits and take the same
  // solve shortcuts.
  struct Round {
    double t, h;
    std::size_t iterate;  // the iterate the MOSFETs linearize at
    bool commit;          // accept the previous round's solution first
    bool time_point_moved, iterate_moved;
  };
  const std::vector<Round> rounds = {
      {1e-12, 1e-12, 0, false, true, true},    // first stamp: everything
      {1e-12, 1e-12, 1, false, false, true},   // new iterate: matrix moves
      {1e-12, 1e-12, 1, false, false, false},  // nothing moves: cached
      {2e-12, 1e-12, 1, true, true, false},    // new point, same h: rhs only
      {4e-12, 2e-12, 1, true, true, false},    // new h: companions move
      {4e-12, 2e-12, 2, false, false, true},   // new iterate again
  };

  constexpr int kVariants = 4;  // bit 0: shuffled order; bit 1: skip unchanged
  std::vector<std::unique_ptr<BoundCircuit>> sys;
  for (int v = 0; v < kVariants; ++v) sys.push_back(std::make_unique<BoundCircuit>());
  const std::size_t n = sys[0]->mna.unknowns();

  std::vector<std::size_t> order(sys[0]->stamps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::size_t> shuffled = order;
  std::mt19937 shuffle_rng(2007);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  ASSERT_NE(shuffled, order);

  mc::Rng rng(31);
  std::vector<std::vector<double>> iterates(3, std::vector<double>(n));
  for (auto& x : iterates)
    for (double& xi : x) xi = rng.uniform(0.0, 1.8);
  for (auto& b : sys) begin_transient(b->lists, iterates[0]);

  StampContext prev;
  std::vector<double> accepted;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    StampContext ctx;
    ctx.mode = AnalysisMode::kTransient;
    ctx.t = round.t;
    ctx.h = round.h;
    ctx.x = &iterates[round.iterate];
    std::vector<double> first;
    for (int v = 0; v < kVariants; ++v) {
      BoundCircuit& b = *sys[static_cast<std::size_t>(v)];
      if (round.commit) commit_step(b.lists, prev, accepted);
      const bool skip = (v & 2) != 0;
      for (std::size_t k : (v & 1) != 0 ? shuffled : order) {
        const BoundCircuit::Stamp& st = b.stamps[k];
        const bool moved =
            r == 0 ||
            (st.kind == BoundCircuit::kTimePoint && round.time_point_moved) ||
            (st.kind == BoundCircuit::kIterate && round.iterate_moved);
        if (!skip || moved) st.run(b.mna, ctx);
      }
      std::vector<double> x;
      b.mna.solve_into(x);
      if (v == 0) {
        first = x;
        continue;
      }
      ASSERT_EQ(x.size(), first.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_TRUE(bits_equal(x[i], first[i]))
            << "variant " << v << ", round " << r << ", component " << i;
    }
    accepted = first;
    prev = ctx;
  }

  const MnaSystem::SolveStats& s0 = sys[0]->mna.solve_stats();
  EXPECT_EQ(s0.refactored, 4u);
  EXPECT_EQ(s0.rhs_only, 1u);
  EXPECT_EQ(s0.cached, 1u);
  for (int v = 1; v < kVariants; ++v) {
    const MnaSystem::SolveStats& s = sys[static_cast<std::size_t>(v)]->mna.solve_stats();
    EXPECT_EQ(s.refactored, s0.refactored) << "variant " << v;
    EXPECT_EQ(s.rhs_only, s0.rhs_only) << "variant " << v;
    EXPECT_EQ(s.cached, s0.cached) << "variant " << v;
  }
}

}  // namespace
}  // namespace ppd::spice
