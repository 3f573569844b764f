// Device models for the electrical-level substrate: resistor, capacitor,
// independent sources and a level-1 (Shichman-Hodges) MOSFET.
//
// The model set is deliberately the minimum that reproduces the paper's
// physics: pulse dampening is an RC/drive-strength phenomenon, so a square-
// law MOSFET with lumped intrinsic capacitances (added by the cell library)
// captures the waveform shapes of Figs. 2/3/5 and the coverage crossovers of
// Figs. 6-9.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ppd/spice/mna.hpp"
#include "ppd/spice/source.hpp"

namespace ppd::spice {

/// Node handle. 0 is ground.
using NodeId = int;
constexpr NodeId kGround = 0;
static_assert(kGround - 1 == kGroundIndex, "Device::idx maps node n to row n - 1");

enum class AnalysisMode { kOperatingPoint, kTransient };
enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Slots of a two-terminal conductance stamp: +g at (a, a) and (b, b), -g at
/// (a, b) and (b, a), bound and written in that order.
struct ConductanceSlots {
  std::array<MnaSlot, 4> s{};

  void bind(MnaSystem& mna, MnaIndex a, MnaIndex b) {
    s = {mna.bind(a, a), mna.bind(b, b), mna.bind(a, b), mna.bind(b, a)};
  }
  void set(MnaSystem& mna, double g) const {
    mna.set(s[0], g);
    mna.set(s[1], g);
    mna.set(s[2], -g);
    mna.set(s[3], -g);
  }
};

/// Everything a device needs to stamp its (linearized, discretized)
/// companion model for the current Newton iterate.
struct StampContext {
  AnalysisMode mode = AnalysisMode::kOperatingPoint;
  Integrator integrator = Integrator::kTrapezoidal;
  double t = 0.0;     ///< time of the sought solution
  double h = 0.0;     ///< current time step (0 in OP)
  double gmin = 1e-9;
  double source_scale = 1.0;  ///< source-stepping homotopy factor
  const std::vector<double>* x = nullptr;  ///< current iterate (may be null in OP start)
};

class Resistor;
class Capacitor;
class VoltageSource;
class CurrentSource;
class Mosfet;

/// A circuit's devices grouped by kind, each list in device order, for the
/// typed stamp loops below. Built once per bound system: each device adds
/// itself (Device::enlist), so the stamps need no virtual call and no cast.
struct StampLists {
  std::vector<const Resistor*> resistors;
  std::vector<Capacitor*> capacitors;
  std::vector<const VoltageSource*> vsources;
  std::vector<const CurrentSource*> isources;
  std::vector<const Mosfet*> mosfets;
};

class Device {
 public:
  Device(std::string name, std::vector<NodeId> nodes);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }

  /// Reconnect terminal `terminal` to `node` — the primitive the fault
  /// injector uses to splice resistive opens into a built circuit.
  void rewire(std::size_t terminal, NodeId node);

  /// Number of auxiliary MNA rows (branch currents) this device needs.
  [[nodiscard]] virtual std::size_t aux_rows() const { return 0; }
  void set_aux_base(std::size_t base) { aux_base_ = base; }

  /// Bind every matrix and rhs slot the device's stamp writes, in stamp
  /// order, into a system that is still binding. Every stamp into that
  /// system (in any mode) writes only these slots.
  virtual void bind(MnaSystem& mna) = 0;

  /// Add this device to its kind's list; its stamp runs from there.
  virtual void enlist(StampLists& lists) = 0;

 protected:
  /// MNA index of terminal `i`: node n is row n - 1, so ground (node 0)
  /// maps to kGroundIndex. `i` must be a valid terminal.
  [[nodiscard]] MnaIndex idx(std::size_t i) const { return nodes_[i] - 1; }
  /// Voltage of terminal `i` under iterate `x` (0 for ground). `x` must
  /// hold every unknown.
  [[nodiscard]] double volt(const std::vector<double>& x, std::size_t i) const {
    const MnaIndex m = idx(i);
    return m < 0 ? 0.0 : x[static_cast<std::size_t>(m)];
  }

  std::size_t aux_base_ = 0;

 private:
  std::string name_;
  std::vector<NodeId> nodes_;
};

/// Linear resistor between nodes()[0] and nodes()[1].
class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  [[nodiscard]] double resistance() const { return ohms_; }
  void set_resistance(double ohms);

  void bind(MnaSystem& mna) override;
  void enlist(StampLists& lists) override { lists.resistors.push_back(this); }
  /// Stamp 1/R into the system the resistor was last bound to.
  void stamp(MnaSystem& mna) const;

 private:
  double ohms_;
  ConductanceSlots g_;
};

/// Linear capacitor between nodes()[0] and nodes()[1]. Open in OP (modulo a
/// gmin leak that keeps otherwise-floating nodes solvable); trapezoidal or
/// backward-Euler companion in transient.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  [[nodiscard]] double capacitance() const { return farads_; }
  void set_capacitance(double farads);

  void bind(MnaSystem& mna) override;
  void enlist(StampLists& lists) override { lists.capacitors.push_back(this); }
  void stamp(MnaSystem& mna, const StampContext& ctx) const;
  /// Start a transient from the operating point `x_op`.
  void begin_transient(const std::vector<double>& x_op);
  /// Advance the integration state past the accepted solution `x`.
  void commit_step(const StampContext& ctx, const std::vector<double>& x);

 private:
  [[nodiscard]] double branch_voltage(const std::vector<double>& x) const;

  double farads_;
  ConductanceSlots g_;       ///< gmin (OP) or the companion geq (transient)
  MnaSlot rhs_a_ = kSinkSlot, rhs_b_ = kSinkSlot;  ///< companion source
  double v_state_ = 0.0;  ///< voltage at the last accepted point
  double i_state_ = 0.0;  ///< current at the last accepted point (TRAP memory)
};

/// Independent voltage source from nodes()[0] (+) to nodes()[1] (-); adds
/// one auxiliary branch-current row.
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId plus, NodeId minus, SourceSpec spec);

  [[nodiscard]] const SourceSpec& spec() const { return spec_; }
  void set_spec(SourceSpec spec) { spec_ = std::move(spec); }
  [[nodiscard]] double value_at(double t) const;

  [[nodiscard]] std::size_t aux_rows() const override { return 1; }
  void bind(MnaSystem& mna) override;
  void enlist(StampLists& lists) override { lists.vsources.push_back(this); }
  void stamp(MnaSystem& mna, const StampContext& ctx) const;

  /// MNA index of this source's branch current (valid after finalize).
  [[nodiscard]] MnaIndex current_index() const {
    return static_cast<MnaIndex>(aux_base_);
  }

 private:
  SourceSpec spec_;
  std::array<MnaSlot, 4> m_{};  ///< (p, br) (m, br) (br, p) (br, m)
  MnaSlot rhs_ = kSinkSlot;     ///< branch row
};

/// Independent current source injecting into nodes()[0], out of nodes()[1].
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, NodeId into, NodeId out_of, SourceSpec spec);

  [[nodiscard]] const SourceSpec& spec() const { return spec_; }
  void set_spec(SourceSpec spec) { spec_ = std::move(spec); }

  void bind(MnaSystem& mna) override;
  void enlist(StampLists& lists) override { lists.isources.push_back(this); }
  void stamp(MnaSystem& mna, const StampContext& ctx) const;

 private:
  SourceSpec spec_;
  MnaSlot rhs_into_ = kSinkSlot, rhs_out_ = kSinkSlot;
};

enum class MosType { kNmos, kPmos };

/// Level-1 parameters. vt0 is signed the SPICE way: positive for an
/// enhancement NMOS, negative for an enhancement PMOS.
struct MosParams {
  MosType type = MosType::kNmos;
  double w = 1e-6;        ///< channel width [m]
  double l = 180e-9;      ///< channel length [m]
  double vt0 = 0.45;      ///< threshold voltage [V]
  double kp = 170e-6;     ///< process transconductance u*Cox [A/V^2]
  double lambda = 0.05;   ///< channel-length modulation [1/V]
};

/// Square-law MOSFET, terminals (drain, gate, source). The bulk is assumed
/// tied to the source rail (no body effect); intrinsic capacitances are
/// added as explicit Capacitor devices by the cell library so that they can
/// carry Monte-Carlo variation consistently with W.
class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
         const MosParams& params);

  [[nodiscard]] const MosParams& params() const { return params_; }

  void bind(MnaSystem& mna) override;
  void enlist(StampLists& lists) override { lists.mosfets.push_back(this); }
  /// Stamp the channel, linearized at the iterate ctx.x.
  void stamp(MnaSystem& mna, const StampContext& ctx) const;
  /// Stamp the gmin leak across the channel, which keeps cutoff devices
  /// from isolating nodes: a function of gmin alone.
  void stamp_gmin(MnaSystem& mna, double gmin) const { gmin_.set(mna, gmin); }

  /// Drain current (drain->source through the channel) and its partial
  /// derivatives for given terminal voltages; exposed for unit tests.
  struct Eval {
    double ids;   ///< channel current, drain to source
    double gm;    ///< d ids / d vgs
    double gds;   ///< d ids / d vds
  };
  [[nodiscard]] Eval evaluate(double vd, double vg, double vs) const;

 private:
  /// NMOS-normalized square law for vds >= 0.
  [[nodiscard]] Eval square_law(double vgs, double vds) const;

  MosParams params_;
  /// Fixed by params_, computed once: kp * w / l, |vt0| and the PMOS/NMOS
  /// mirror sign (+1 NMOS, -1 PMOS).
  double beta_;
  double vt_;
  double sign_;
  /// Channel stamp (d, g) (d, s) (d, d) (s, g) (s, s) (s, d).
  std::array<MnaSlot, 6> m_{};
  MnaSlot rhs_d_ = kSinkSlot, rhs_s_ = kSinkSlot;
  ConductanceSlots gmin_;  ///< gmin across the channel, (d, s)
};

// Typed stamp loops over a circuit's lists (defined beside the stamp bodies
// in device.cpp, so the stamps inline). Each device writes only its own
// slots and MnaSystem sums every cell in bind order, so the loops may run
// in any order and any subset may be restamped: the result is bitwise that
// of stamping every device in device order.

/// Resistors and the MOSFETs' channel gmin leaks: functions of gmin alone,
/// so a transient stamps them once.
void stamp_static(const StampLists& lists, MnaSystem& mna, double gmin);
/// Capacitor companions and sources: functions of the time point (t, h,
/// integration state, source scale), not of the Newton iterate.
void stamp_time_point(const StampLists& lists, MnaSystem& mna,
                      const StampContext& ctx);
/// MOSFET channels: linearized at the iterate ctx.x on every Newton
/// iteration.
void stamp_iterate(const StampLists& lists, MnaSystem& mna,
                   const StampContext& ctx);
/// Start every capacitor's integration state from the operating point.
void begin_transient(const StampLists& lists, const std::vector<double>& x_op);
/// Accept a time step: advance every capacitor's integration state.
void commit_step(const StampLists& lists, const StampContext& ctx,
                 const std::vector<double>& x);

}  // namespace ppd::spice
