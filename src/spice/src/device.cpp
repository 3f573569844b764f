#include "ppd/spice/device.hpp"

#include <cmath>

#include "ppd/util/error.hpp"

namespace ppd::spice {

Device::Device(std::string name, std::vector<NodeId> nodes)
    : name_(std::move(name)), nodes_(std::move(nodes)) {
  PPD_REQUIRE(!name_.empty(), "device needs a name");
  for (NodeId n : nodes_) PPD_REQUIRE(n >= 0, "invalid node id");
}

void Device::rewire(std::size_t terminal, NodeId node) {
  PPD_REQUIRE(terminal < nodes_.size(), "terminal index out of range");
  PPD_REQUIRE(node >= 0, "invalid node id");
  nodes_[terminal] = node;
}

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name), {a, b}), ohms_(ohms) {
  PPD_REQUIRE(ohms > 0.0, "resistance must be positive");
}

void Resistor::set_resistance(double ohms) {
  PPD_REQUIRE(ohms > 0.0, "resistance must be positive");
  ohms_ = ohms;
}

void Resistor::bind(MnaSystem& mna) { g_.bind(mna, idx(0), idx(1)); }

void Resistor::stamp(MnaSystem& mna) const {
  g_.set(mna, 1.0 / ohms_);
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name), {a, b}), farads_(farads) {
  PPD_REQUIRE(farads > 0.0, "capacitance must be positive");
}

void Capacitor::set_capacitance(double farads) {
  PPD_REQUIRE(farads > 0.0, "capacitance must be positive");
  farads_ = farads;
}

double Capacitor::branch_voltage(const std::vector<double>& x) const {
  return volt(x, 0) - volt(x, 1);
}

void Capacitor::bind(MnaSystem& mna) {
  const MnaIndex a = idx(0), b = idx(1);
  g_.bind(mna, a, b);
  rhs_a_ = mna.bind_rhs(a);
  rhs_b_ = mna.bind_rhs(b);
}

void Capacitor::stamp(MnaSystem& mna, const StampContext& ctx) const {
  if (ctx.mode == AnalysisMode::kOperatingPoint) {
    // Open in DC; a gmin leak keeps capacitively-coupled nodes solvable. The
    // companion source slots stay +0.0, which adds nothing to any rhs sum.
    g_.set(mna, ctx.gmin);
    return;
  }
  PPD_REQUIRE(ctx.h > 0.0, "transient stamp needs a positive step");
  // Companion: i = geq * v - ieq_src  with the device current defined from
  // node a through the capacitor to node b.
  double geq = 0.0, ieq_src = 0.0;
  if (ctx.integrator == Integrator::kBackwardEuler) {
    geq = farads_ / ctx.h;
    ieq_src = geq * v_state_;
  } else {  // trapezoidal
    geq = 2.0 * farads_ / ctx.h;
    ieq_src = geq * v_state_ + i_state_;
  }
  g_.set(mna, geq);
  mna.set_rhs(rhs_a_, ieq_src);
  mna.set_rhs(rhs_b_, -ieq_src);
}

void Capacitor::begin_transient(const std::vector<double>& x_op) {
  v_state_ = branch_voltage(x_op);
  i_state_ = 0.0;  // steady state: no capacitor current
}

void Capacitor::commit_step(const StampContext& ctx, const std::vector<double>& x) {
  const double v_new = branch_voltage(x);
  if (ctx.integrator == Integrator::kBackwardEuler) {
    i_state_ = farads_ / ctx.h * (v_new - v_state_);
  } else {
    i_state_ = 2.0 * farads_ / ctx.h * (v_new - v_state_) - i_state_;
  }
  v_state_ = v_new;
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus,
                             SourceSpec spec)
    : Device(std::move(name), {plus, minus}), spec_(std::move(spec)) {}

double VoltageSource::value_at(double t) const { return source_value(spec_, t); }

void VoltageSource::bind(MnaSystem& mna) {
  const MnaIndex p = idx(0), m = idx(1);
  const auto br = static_cast<MnaIndex>(aux_base_);
  m_ = {mna.bind(p, br), mna.bind(m, br), mna.bind(br, p), mna.bind(br, m)};
  rhs_ = mna.bind_rhs(br);
}

void VoltageSource::stamp(MnaSystem& mna, const StampContext& ctx) const {
  mna.set(m_[0], 1.0);
  mna.set(m_[1], -1.0);
  mna.set(m_[2], 1.0);
  mna.set(m_[3], -1.0);
  const double t = ctx.mode == AnalysisMode::kOperatingPoint ? 0.0 : ctx.t;
  mna.set_rhs(rhs_, ctx.source_scale * value_at(t));
}

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId into, NodeId out_of,
                             SourceSpec spec)
    : Device(std::move(name), {into, out_of}), spec_(std::move(spec)) {}

void CurrentSource::bind(MnaSystem& mna) {
  rhs_into_ = mna.bind_rhs(idx(0));
  rhs_out_ = mna.bind_rhs(idx(1));
}

void CurrentSource::stamp(MnaSystem& mna, const StampContext& ctx) const {
  const double t = ctx.mode == AnalysisMode::kOperatingPoint ? 0.0 : ctx.t;
  const double i = ctx.source_scale * source_value(spec_, t);
  mna.set_rhs(rhs_into_, i);
  mna.set_rhs(rhs_out_, -i);
}

// ------------------------------------------------------------------ Mosfet

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               const MosParams& params)
    : Device(std::move(name), {drain, gate, source}),
      params_(params),
      beta_(params.kp * params.w / params.l),
      vt_(std::abs(params.vt0)),
      sign_(params.type == MosType::kNmos ? 1.0 : -1.0) {
  PPD_REQUIRE(params.w > 0.0 && params.l > 0.0, "W and L must be positive");
  PPD_REQUIRE(params.kp > 0.0, "KP must be positive");
  if (params.type == MosType::kNmos)
    PPD_REQUIRE(params.vt0 > 0.0, "NMOS vt0 must be positive");
  else
    PPD_REQUIRE(params.vt0 < 0.0, "PMOS vt0 must be negative");
}

Mosfet::Eval Mosfet::square_law(double vgs, double vds) const {
  // NMOS-normalized: expects vds >= 0 and a positive threshold.
  const double vov = vgs - vt_;
  Eval e{0.0, 0.0, 0.0};
  if (vov <= 0.0) return e;  // cutoff
  const double lam = params_.lambda;
  const double clm = 1.0 + lam * vds;
  if (vds < vov) {
    // Triode.
    const double q = vov * vds - 0.5 * vds * vds;
    e.ids = beta_ * q * clm;
    e.gm = beta_ * vds * clm;
    e.gds = beta_ * ((vov - vds) * clm + q * lam);
  } else {
    // Saturation.
    const double q = 0.5 * vov * vov;
    e.ids = beta_ * q * clm;
    e.gm = beta_ * vov * clm;
    e.gds = beta_ * q * lam;
  }
  return e;
}

Mosfet::Eval Mosfet::evaluate(double vd, double vg, double vs) const {
  // Mirror PMOS into NMOS space: I_p(vgs, vds) = -I_n(-vgs, -vds).
  double vgs = sign_ * (vg - vs);
  double vds = sign_ * (vd - vs);
  bool swapped = false;
  if (vds < 0.0) {
    // Channel symmetry: swap drain and source roles.
    vgs = vgs - vds;  // vgd in the original frame
    vds = -vds;
    swapped = true;
  }
  const Eval raw = square_law(vgs, vds);
  Eval e{0.0, 0.0, 0.0};
  if (!swapped) {
    e.ids = sign_ * raw.ids;
    e.gm = raw.gm;
    e.gds = raw.gds;
  } else {
    // i(vgs, vds) = -raw(vgs - vds, -vds):
    //   di/dvgs = -gm_raw ; di/dvds = gm_raw + gds_raw.
    e.ids = -sign_ * raw.ids;
    e.gm = -raw.gm;
    e.gds = raw.gm + raw.gds;
  }
  return e;
}

void Mosfet::bind(MnaSystem& mna) {
  const MnaIndex d = idx(0), g = idx(1), s = idx(2);
  m_ = {mna.bind(d, g), mna.bind(d, s), mna.bind(d, d),
        mna.bind(s, g), mna.bind(s, s), mna.bind(s, d)};
  rhs_d_ = mna.bind_rhs(d);
  rhs_s_ = mna.bind_rhs(s);
  gmin_.bind(mna, d, s);
}

void Mosfet::stamp(MnaSystem& mna, const StampContext& ctx) const {
  double vd = 0.0, vg = 0.0, vs = 0.0;
  if (ctx.x != nullptr) {
    vd = volt(*ctx.x, 0);
    vg = volt(*ctx.x, 1);
    vs = volt(*ctx.x, 2);
  }
  const Eval e = evaluate(vd, vg, vs);
  // Linearized channel current (drain -> source):
  //   i ~= ids0 + gm (vgs - vgs0) + gds (vds - vds0)
  const double vgs0 = vg - vs;
  const double vds0 = vd - vs;
  const double ieq = e.ids - e.gm * vgs0 - e.gds * vds0;
  mna.set(m_[0], e.gm);
  mna.set(m_[1], -e.gm - e.gds);
  mna.set(m_[2], e.gds);
  mna.set(m_[3], -e.gm);
  mna.set(m_[4], e.gm + e.gds);
  mna.set(m_[5], -e.gds);
  mna.set_rhs(rhs_d_, -ieq);
  mna.set_rhs(rhs_s_, ieq);
}

// ------------------------------------------------------ typed stamp loops

void stamp_static(const StampLists& lists, MnaSystem& mna, double gmin) {
  for (const Resistor* r : lists.resistors) r->stamp(mna);
  for (const Mosfet* m : lists.mosfets) m->stamp_gmin(mna, gmin);
}

void stamp_time_point(const StampLists& lists, MnaSystem& mna,
                      const StampContext& ctx) {
  for (const Capacitor* c : lists.capacitors) c->stamp(mna, ctx);
  for (const VoltageSource* v : lists.vsources) v->stamp(mna, ctx);
  for (const CurrentSource* i : lists.isources) i->stamp(mna, ctx);
}

void stamp_iterate(const StampLists& lists, MnaSystem& mna,
                   const StampContext& ctx) {
  for (const Mosfet* m : lists.mosfets) m->stamp(mna, ctx);
}

void begin_transient(const StampLists& lists, const std::vector<double>& x_op) {
  for (Capacitor* c : lists.capacitors) c->begin_transient(x_op);
}

void commit_step(const StampLists& lists, const StampContext& ctx,
                 const std::vector<double>& x) {
  for (Capacitor* c : lists.capacitors) c->commit_step(ctx, x);
}

}  // namespace ppd::spice
