#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/eo_cg.h"
#include "lattice/mixed.h"
#include "lattice/multishift.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "snapshot/machine_state.h"
#include "traced_dirac.h"

namespace perfbench {
namespace {

using qcdoc::NodeId;
using qcdoc::Rng;
using qcdoc::u8;
using qcdoc::lattice::CgParams;
using qcdoc::lattice::CgResult;
using qcdoc::lattice::Coord4;
using qcdoc::lattice::DiracOperator;
using qcdoc::lattice::DistField;
using qcdoc::lattice::WilsonDirac;
using qcdoc::lattice::WilsonParams;
namespace fault = qcdoc::fault;
namespace host = qcdoc::host;
namespace lattice = qcdoc::lattice;
namespace machine = qcdoc::machine;
namespace snapshot = qcdoc::snapshot;
namespace torus = qcdoc::torus;

/// Every solver runs to this relative residual.
constexpr double kTolerance = 1e-8;
/// A converged solve passes when its recomputed residual is below this:
/// the recurrence residual drifts from the true one by rounding, so the
/// check allows two orders of magnitude over the solver tolerance.
constexpr double kCheckTolerance = 100 * kTolerance;

u64 fnv_double(u64 h, double v) {
  return qcdoc::sim::detail::fnv1a(h, std::bit_cast<u64>(v));
}

u64 field_fnv(const DistField& f, u64 h = qcdoc::sim::detail::kFnvOffset) {
  for (int r = 0; r < f.ranks(); ++r) {
    for (const double v : f.data(r)) h = fnv_double(h, v);
  }
  return h;
}

void fill_gaussian(DistField& f, Rng& rng) {
  for (int r = 0; r < f.ranks(); ++r) {
    for (double& v : f.data(r)) v = rng.next_gaussian();
  }
}

/// |M^+ b - (M^+ M + shift) x| / |M^+ b|: the system the CG-family solvers
/// solve.
double normal_residual(DiracOperator& op, DistField& x, DistField& b,
                       double shift) {
  lattice::FieldOps& ops = op.ops();
  DistField mx = op.make_field("check.mx");
  DistField lhs = op.make_field("check.lhs");
  DistField rhs = op.make_field("check.rhs");
  op.apply(mx, x);
  op.apply_dag(lhs, mx);
  if (shift != 0) ops.axpy(shift, x, lhs);
  op.apply_dag(rhs, b);
  const double den = ops.norm2(rhs);
  ops.axpy(-1.0, lhs, rhs);
  return std::sqrt(ops.norm2(rhs) / den);
}

/// |b - M x| / |b|: the residual the even-odd solver reports.
double direct_residual(DiracOperator& op, DistField& x, DistField& b) {
  lattice::FieldOps& ops = op.ops();
  DistField r = op.make_field("check.r");
  op.apply(r, x);
  ops.axpy(-1.0, b, r);
  return std::sqrt(ops.norm2(r) / ops.norm2(b));
}

void require(OpRecord& rec, bool cond, const std::string& what) {
  if (!cond && rec.ok) {
    rec.ok = false;
    rec.failure = what;
  }
}

void check_converged(OpRecord& rec, bool converged, double true_residual) {
  rec.true_residual = true_residual;
  require(rec, converged, "did not converge");
  require(rec, true_residual < kCheckTolerance,
          "recomputed residual " + std::to_string(true_residual));
}

void record_solve(OpRecord& rec, const CgResult& r, const DistField& x) {
  rec.residual_bits = std::bit_cast<u64>(r.relative_residual);
  rec.field_fnv = field_fnv(x);
  rec.iterations = r.iterations;
  rec.restarts = r.restarts;
}

void record_engine(RoundResult& out, machine::Machine& m) {
  out.events = m.engine().events_executed();
  out.digest = m.engine().trace_digest();
}

// --- set-up steps shared by the workloads -----------------------------------

std::unique_ptr<machine::Machine> construct(const machine::MachineConfig& cfg,
                                            Tracer& tr, Probe& probe) {
  ScopedSpan span(tr, "machine.construct", &probe);
  auto m = std::make_unique<machine::Machine>(cfg);
  probe.machine = m.get();
  return m;
}

std::unique_ptr<host::Qdaemon> boot(machine::Machine& m, Tracer& tr,
                                    const Probe& probe) {
  ScopedSpan span(tr, "host.boot", &probe);
  auto qd = std::make_unique<host::Qdaemon>(&m);
  const host::BootReport& rep = qd->boot();
  span.arg("host.boot_packets",
           static_cast<double>(rep.jtag_packets + rep.udp_packets));
  if (rep.nodes_ready != m.num_nodes()) {
    throw std::runtime_error("boot brought up " +
                             std::to_string(rep.nodes_ready) + " of " +
                             std::to_string(m.num_nodes()) + " nodes");
  }
  return qd;
}

host::PartitionHandle allocate(host::Qdaemon& qd, std::array<int, 6> box,
                               Tracer& tr, const Probe& probe) {
  ScopedSpan span(tr, "host.alloc", &probe);
  torus::Shape shape;
  shape.extent = box;
  const auto handle = qd.allocate_partition("perfbench", shape, 4);
  if (!handle) throw std::runtime_error("partition allocation failed");
  return *handle;
}

/// The solver stack over an allocated partition: a gauge field within
/// `roughness` of the identity and a Gaussian source, both drawn from
/// `seed`.
struct Lattice {
  std::unique_ptr<lattice::SolverRig> rig;
  std::unique_ptr<lattice::GaugeField> gauge;
  std::unique_ptr<WilsonDirac> op;
  std::optional<DistField> b;

  DistField zero_field(const char* label) const {
    DistField f = op->make_field(label);
    f.zero();
    return f;
  }
};

Lattice make_lattice(machine::Machine& m, const torus::Partition& part,
                     Coord4 global, double roughness, double kappa, u64 seed,
                     Probe& probe) {
  Lattice l;
  l.rig = std::make_unique<lattice::SolverRig>(&m, &part, global);
  probe.bsp = l.rig->bsp.get();
  probe.ops = l.rig->ops.get();
  l.gauge = std::make_unique<lattice::GaugeField>(l.rig->comm.get(),
                                                  l.rig->geom.get());
  Rng rng(seed);
  l.gauge->randomize_near_unit(rng, roughness);
  l.op = std::make_unique<WilsonDirac>(l.rig->ops.get(), l.rig->geom.get(),
                                       l.gauge.get(),
                                       WilsonParams{.kappa = kappa});
  l.b.emplace(l.op->make_field("b"));
  fill_gaussian(*l.b, rng);
  return l;
}

// --- mesh_cg: the engine bench ----------------------------------------------

RoundResult mesh_cg(u64 seed, Tracer& tr, const ReferenceClock& clock) {
  RoundResult out;
  Probe probe;
  machine::MachineConfig cfg;
  cfg.shape.extent = {4, 4, 4, 4, 2, 2};
  cfg.sim_threads = 2;

  const PhaseTimer setup_time(clock);
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<host::Qdaemon> qd;
  Lattice lat;
  std::optional<DistField> x;
  {
    ScopedSpan setup(tr, "bench.setup");
    m = construct(cfg, tr, probe);
    qd = boot(*m, tr, probe);
    const host::PartitionHandle part =
        allocate(*qd, cfg.shape.extent, tr, probe);
    ScopedSpan span(tr, "lattice.setup", &probe);
    lat = make_lattice(*m, *part.partition, {8, 8, 8, 16}, 0.15, 0.124, seed,
                       probe);
    x.emplace(lat.zero_field("x"));
  }
  out.setup_s = setup_time.wall_s();
  out.setup_ref_s = setup_time.reference_s();

  TracedDirac traced(*lat.op, tr, &probe);
  DiracOperator& op =
      tr.enabled() ? static_cast<DiracOperator&>(traced) : *lat.op;
  OpRecord rec;
  rec.name = "cg";
  CgResult r;
  const PhaseTimer solve_time(clock);
  {
    ScopedSpan solve(tr, "bench.solve", &probe);
    ScopedSpan span(tr, "lattice.solve.cg", &probe);
    CgParams params;
    params.fixed_iterations = 1;
    r = lattice::cg_solve(op, *x, *lat.b, params);
    span.arg("lattice.iterations", r.iterations);
  }
  out.solve_s = solve_time.wall_s();
  out.solve_ref_s = solve_time.reference_s();
  rec.end_cycle = m->engine().now();
  record_engine(out, *m);
  record_solve(rec, r, *x);

  ScopedSpan check(tr, "bench.check");
  rec.link_checksums = m->mesh().verify_link_checksums();
  require(rec, rec.link_checksums, "link checksums differ");
  require(rec, r.iterations == 1, "ran " + std::to_string(r.iterations) +
                                      " iterations instead of 1");
  out.ops.push_back(rec);
  return out;
}

// --- krylov_node: one node, every Krylov solver -----------------------------

RoundResult krylov_node(u64 seed, Tracer& tr, const ReferenceClock& clock) {
  RoundResult out;
  Probe probe;
  machine::MachineConfig cfg;
  cfg.shape.extent = {1, 1, 1, 1, 1, 1};
  cfg.sim_threads = 1;
  const double kappa = 0.124;
  const std::vector<double> shifts = {0.0, 0.01, 0.04, 0.16};

  const PhaseTimer setup_time(clock);
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<host::Qdaemon> qd;
  Lattice lat;
  std::unique_ptr<WilsonDirac> sloppy;
  std::optional<DistField> x_cg, x_eo, x_mixed;
  std::vector<DistField> x_shift;
  {
    ScopedSpan setup(tr, "bench.setup");
    m = construct(cfg, tr, probe);
    qd = boot(*m, tr, probe);
    const host::PartitionHandle part =
        allocate(*qd, cfg.shape.extent, tr, probe);
    ScopedSpan span(tr, "lattice.setup", &probe);
    lat = make_lattice(*m, *part.partition, {8, 8, 8, 8}, 0.15, kappa, seed,
                       probe);
    sloppy = std::make_unique<WilsonDirac>(
        lat.rig->ops.get(), lat.rig->geom.get(), lat.gauge.get(),
        WilsonParams{.kappa = kappa,
                     .precision = lattice::Precision::kHalf});
    x_cg.emplace(lat.zero_field("x.cg"));
    x_eo.emplace(lat.zero_field("x.eo"));
    for (std::size_t i = 0; i < shifts.size(); ++i) {
      x_shift.push_back(lat.zero_field("x.shift"));
    }
    x_mixed.emplace(lat.zero_field("x.mixed"));
  }
  out.setup_s = setup_time.wall_s();
  out.setup_ref_s = setup_time.reference_s();

  TracedDirac traced(*lat.op, tr, &probe);
  TracedDirac traced_sloppy(*sloppy, tr, &probe);
  DiracOperator& op =
      tr.enabled() ? static_cast<DiracOperator&>(traced) : *lat.op;
  DiracOperator& sloppy_op =
      tr.enabled() ? static_cast<DiracOperator&>(traced_sloppy) : *sloppy;
  CgParams params;
  params.tolerance = kTolerance;
  params.max_iterations = 1000;

  OpRecord cg, eo, ms, mixed;
  cg.name = "cg";
  eo.name = "eo";
  ms.name = "multishift";
  mixed.name = "mixed";
  CgResult r_cg, r_eo, r_mixed;
  lattice::MultishiftResult r_ms;
  const PhaseTimer solve_time(clock);
  {
    ScopedSpan solve(tr, "bench.solve", &probe);
    {
      ScopedSpan span(tr, "lattice.solve.cg", &probe);
      r_cg = lattice::cg_solve(op, *x_cg, *lat.b, params);
      span.arg("lattice.iterations", r_cg.iterations);
    }
    cg.end_cycle = m->engine().now();
    {
      // wilson_eo_solve takes the concrete WilsonDirac, so its Dirac time
      // stays in the solver's self time.
      ScopedSpan span(tr, "lattice.solve.eo", &probe);
      r_eo = lattice::wilson_eo_solve(*lat.op, *x_eo, *lat.b, params);
      span.arg("lattice.iterations", r_eo.iterations);
    }
    eo.end_cycle = m->engine().now();
    {
      ScopedSpan span(tr, "lattice.solve.multishift", &probe);
      lattice::MultishiftParams mp;
      mp.shifts = shifts;
      mp.tolerance = kTolerance;
      mp.max_iterations = 1000;
      r_ms = lattice::multishift_solve(op, x_shift, *lat.b, mp);
      span.arg("lattice.iterations", r_ms.iterations);
    }
    ms.end_cycle = m->engine().now();
    {
      ScopedSpan span(tr, "lattice.solve.mixed", &probe);
      lattice::MixedCgParams mp;
      mp.tolerance = kTolerance;
      mp.sloppy = lattice::Precision::kHalf;
      r_mixed = lattice::mixed_cg_solve(op, sloppy_op, *x_mixed, *lat.b, mp);
      span.arg("lattice.iterations", r_mixed.iterations);
    }
    mixed.end_cycle = m->engine().now();
  }
  out.solve_s = solve_time.wall_s();
  out.solve_ref_s = solve_time.reference_s();
  record_engine(out, *m);
  record_solve(cg, r_cg, *x_cg);
  record_solve(eo, r_eo, *x_eo);
  record_solve(mixed, r_mixed, *x_mixed);
  ms.residual_bits = qcdoc::sim::detail::kFnvOffset;
  ms.field_fnv = qcdoc::sim::detail::kFnvOffset;
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    ms.residual_bits = fnv_double(ms.residual_bits, r_ms.relative_residuals[i]);
    ms.field_fnv = field_fnv(x_shift[i], ms.field_fnv);
  }
  ms.iterations = r_ms.iterations;

  ScopedSpan check(tr, "bench.check");
  const bool links = m->mesh().verify_link_checksums();
  check_converged(cg, r_cg.converged,
                  normal_residual(*lat.op, *x_cg, *lat.b, 0.0));
  check_converged(eo, r_eo.converged,
                  direct_residual(*lat.op, *x_eo, *lat.b));
  double worst = 0;
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    worst = std::max(worst, normal_residual(*lat.op, x_shift[i], *lat.b,
                                            shifts[i]));
  }
  check_converged(ms, r_ms.converged, worst);
  check_converged(mixed, r_mixed.converged,
                  normal_residual(*lat.op, *x_mixed, *lat.b, 0.0));
  for (OpRecord* rec : {&cg, &eo, &ms, &mixed}) {
    rec->link_checksums = links;
    require(*rec, links, "link checksums differ");
    out.ops.push_back(*rec);
  }
  return out;
}

// --- faulted_cg: the fault campaign -----------------------------------------

/// Section-by-section equality of a snapshot and its decoded copy.
bool same_snapshot(const snapshot::SnapshotFile& a,
                   const snapshot::SnapshotFile& b) {
  if (a.generation() != b.generation() ||
      a.sections().size() != b.sections().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sections().size(); ++i) {
    const snapshot::Section& x = a.sections()[i];
    const snapshot::Section& y = b.sections()[i];
    if (x.tag != y.tag || x.version != y.version || x.flags != y.flags ||
        x.payload != y.payload) {
      return false;
    }
  }
  return true;
}

RoundResult faulted_cg(u64 seed, Tracer& tr, const ReferenceClock& clock) {
  RoundResult out;
  Probe probe;
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};
  cfg.sim_threads = 1;
  // A rate at which every wire sees bit errors during the solve; 1e-5
  // stalls the mesh.
  cfg.bit_error_rate = 1e-6;

  const PhaseTimer setup_time(clock);
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<host::Qdaemon> qd;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::ChecksumAuditor> auditor;
  host::PartitionHandle part;
  Lattice lat;
  std::optional<DistField> x;
  NodeId dead{0};
  {
    ScopedSpan setup(tr, "bench.setup");
    m = construct(cfg, tr, probe);
    qd = boot(*m, tr, probe);
    {
      // The seed picks the dead wire and the marginal one; the spiked
      // wire's far end is never the dead node, so the sweep sees both.
      ScopedSpan span(tr, "fault.arm", &probe);
      const int nodes = m->num_nodes();
      Rng wires(seed ^ 0xfa177edull);
      dead = NodeId{static_cast<qcdoc::u32>(wires.next_below(nodes))};
      const torus::LinkIndex dead_link{
          static_cast<int>(wires.next_below(torus::kLinksPerNode))};
      NodeId marginal = dead;
      torus::LinkIndex spike_link{0};
      NodeId spike_peer = dead;
      while (marginal == dead || spike_peer == dead) {
        marginal = NodeId{static_cast<qcdoc::u32>(wires.next_below(nodes))};
        spike_link = torus::LinkIndex{
            static_cast<int>(wires.next_below(torus::kLinksPerNode))};
        spike_peer = m->topology().neighbor(marginal, spike_link);
      }
      injector = std::make_unique<fault::FaultInjector>(&m->mesh());
      fault::FaultPlan plan;
      plan.link_death(m->engine().now(), dead, dead_link);
      plan.ber_spike(m->engine().now(), marginal, spike_link, 2e-3,
                     /*duration=*/1 << 22);
      injector->arm(plan);
      m->engine().run_until(m->engine().now() + 1);
      // Traffic over the spiked wire so its resend counters climb.
      auto& recv =
          m->scu(spike_peer).recv_side(torus::facing_link(spike_link));
      recv.set_data_sink([](u64) {});
      for (int i = 0; i < 300; ++i) {
        m->scu(marginal).send_side(spike_link).enqueue_data(
            0x9e3779b97f4a7c15ull * static_cast<u64>(i + 1));
      }
      m->engine().run_until_idle();
      recv.clear_data_sink();
    }
    {
      ScopedSpan span(tr, "host.sweep", &probe);
      qd->health().sweep();
    }
    if (!qd->is_quarantined(dead)) {
      throw std::runtime_error("health sweep did not quarantine node " +
                               std::to_string(dead.value));
    }
    part = allocate(*qd, {2, 2, 2, 2, 1, 1}, tr, probe);
    for (const NodeId n : part.partition->nodes()) {
      if (n == dead) throw std::runtime_error("partition holds the dead node");
    }
    {
      // The auditor baselines the link checksums after the set-up traffic
      // over the spiked wire, so only the solve's traffic is audited.
      ScopedSpan span(tr, "fault.arm", &probe);
      auditor = std::make_unique<fault::ChecksumAuditor>(&m->mesh());
    }
    ScopedSpan span(tr, "lattice.setup", &probe);
    lat = make_lattice(*m, *part.partition, {4, 4, 4, 4}, 0.1, 0.12, seed,
                       probe);
    x.emplace(lat.zero_field("x"));
  }
  out.setup_s = setup_time.wall_s();
  out.setup_ref_s = setup_time.reference_s();

  snapshot::MachineExtras extras;
  extras.health = &qd->health();
  extras.auditor = auditor.get();
  extras.injector = injector.get();
  std::vector<OpRecord> checkpoints;

  lattice::CgAuditParams audit;
  audit.interval = 5;
  audit.max_restarts = 6;
  audit.clean = [&] {
    ScopedSpan span(tr, "fault.audit", &probe);
    const bool clean = auditor->clean_since_last();
    span.arg("fault.audit_failures", clean ? 0 : 1);
    return clean;
  };
  audit.on_checkpoint = [&](const lattice::CgCheckpoint& ck) {
    OpRecord rec;
    rec.name = "checkpoint";
    rec.iterations = ck.iterations;
    snapshot::SnapshotFile file;
    {
      ScopedSpan span(tr, "snapshot.capture", &probe);
      const snapshot::Status st = snapshot::capture_machine(*m, extras, &file);
      require(rec, st.ok, "capture failed: " + st.reason);
      snapshot::ByteSink solver;
      solver.put_u32(static_cast<qcdoc::u32>(ck.iterations));
      solver.put_double(ck.rsq);
      solver.put_double(ck.rhs_norm2);
      solver.put_u32(static_cast<qcdoc::u32>(ck.restarts));
      file.add_section(snapshot::kSecSolver, std::move(solver));
      file.set_generation(checkpoints.size() + 1);
    }
    std::vector<u8> bytes;
    {
      ScopedSpan span(tr, "snapshot.encode", &probe);
      bytes = file.encode();
      span.arg("snapshot.bytes", static_cast<double>(bytes.size()));
    }
    snapshot::SnapshotFile back;
    snapshot::Status decoded;
    {
      ScopedSpan span(tr, "snapshot.decode", &probe);
      decoded = snapshot::SnapshotFile::decode(bytes, &back);
    }
    rec.decoded = decoded.ok && same_snapshot(file, back);
    require(rec, rec.decoded, "decode round trip: " + decoded.reason);
    checkpoints.push_back(rec);
    if (ck.iterations == audit.interval) {
      // Undetected corruption on a wire inside the partition, armed once the
      // first interval has passed its audit: the next audit fails and the
      // rollback discards that interval's iterations.  An odd count keeps
      // the additive checksum delta nonzero whatever the data.
      ScopedSpan span(tr, "fault.arm", &probe);
      fault::FaultPlan corruption;
      corruption.data_corruption(m->engine().now(),
                                 part.partition->nodes()[0],
                                 torus::LinkIndex{0}, /*count=*/3);
      injector->arm(corruption);
    }
  };

  TracedDirac traced(*lat.op, tr, &probe);
  DiracOperator& op =
      tr.enabled() ? static_cast<DiracOperator&>(traced) : *lat.op;
  OpRecord rec;
  rec.name = "cg_audited";
  CgResult r;
  const PhaseTimer solve_time(clock);
  {
    ScopedSpan solve(tr, "bench.solve", &probe);
    ScopedSpan span(tr, "lattice.solve.cg_audited", &probe);
    CgParams params;
    params.tolerance = kTolerance;
    params.max_iterations = 400;
    r = lattice::cg_solve_audited(op, *x, *lat.b, params, audit);
    span.arg("lattice.iterations", r.iterations);
    span.arg("lattice.restarts", r.restarts);
  }
  out.solve_s = solve_time.wall_s();
  out.solve_ref_s = solve_time.reference_s();
  rec.end_cycle = m->engine().now();
  record_engine(out, *m);
  record_solve(rec, r, *x);

  ScopedSpan check(tr, "bench.check");
  // The corrupted wire's lifetime checksums differ by design; what must
  // hold is that no corruption slipped past the solver's last audit.
  rec.link_checksums = m->mesh().verify_link_checksums();
  require(rec, auditor->clean_since_last(),
          "corruption after the last audit");
  require(rec, r.restarts >= 1 && r.audit_failures >= 1,
          "the injected corruption forced no rollback");
  check_converged(rec, r.converged,
                  normal_residual(*lat.op, *x, *lat.b, 0.0));
  out.ops.push_back(rec);
  out.ops.insert(out.ops.end(), checkpoints.begin(), checkpoints.end());
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mesh_cg", "krylov_node",
                                                 "faulted_cg"};
  return names;
}

RoundResult run_round(const std::string& workload, u64 seed, Tracer& tracer,
                      const ReferenceClock& clock) {
  if (workload == "mesh_cg") return mesh_cg(seed, tracer, clock);
  if (workload == "krylov_node") return krylov_node(seed, tracer, clock);
  if (workload == "faulted_cg") return faulted_cg(seed, tracer, clock);
  throw std::runtime_error("unknown workload " + workload);
}

}  // namespace perfbench
