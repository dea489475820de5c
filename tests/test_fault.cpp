// Fault injection, health monitoring and recovery (paper Sections 2.3, 4).
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"

namespace qcdoc {
namespace {

using torus::LinkIndex;

machine::MachineConfig small_config(std::array<int, 6> extents) {
  machine::MachineConfig cfg;
  cfg.shape.extent = extents;
  return cfg;
}

// --- Fault plans ------------------------------------------------------------

TEST(FaultPlan, RandomCampaignIsSeedDeterministic) {
  torus::Shape shape;
  shape.extent = {2, 2, 2, 2, 2, 2};
  const auto a = fault::FaultPlan::random_campaign(123, shape, 20, 1000, 50000);
  const auto b = fault::FaultPlan::random_campaign(123, shape, 20, 1000, 50000);
  const auto c = fault::FaultPlan::random_campaign(124, shape, 20, 1000, 50000);
  ASSERT_EQ(a.size(), 20u);
  ASSERT_EQ(a.size(), b.size());
  bool differs_from_c = a.size() != c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].link, b.events()[i].link);
    if (i < c.size() &&
        (a.events()[i].at != c.events()[i].at ||
         a.events()[i].kind != c.events()[i].kind ||
         !(a.events()[i].node == c.events()[i].node))) {
      differs_from_c = true;
    }
    // Events are sorted by time and inside the horizon.
    EXPECT_GE(a.events()[i].at, 1000u);
    EXPECT_LT(a.events()[i].at, 51000u);
    if (i > 0) {
      EXPECT_GE(a.events()[i].at, a.events()[i - 1].at);
    }
  }
  EXPECT_TRUE(differs_from_c);
}

// --- The injector against a live mesh ---------------------------------------

TEST(FaultInjector, BerSpikeAppliesAndRestoresAfterDuration) {
  machine::Machine m(small_config({2, 1, 1, 1, 1, 1}));
  m.power_on();
  auto& wire = m.mesh().wire(NodeId{0}, LinkIndex{0});
  const Cycle at = m.engine().now() + 100;

  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.ber_spike(at, NodeId{0}, LinkIndex{0}, 0.25, /*duration=*/200);
  injector.arm(plan);

  m.engine().run_until(at + 50);
  EXPECT_DOUBLE_EQ(wire.bit_error_rate(), 0.25);
  m.engine().run_until(at + 300);
  EXPECT_DOUBLE_EQ(wire.bit_error_rate(), 0.0);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.injected(fault::FaultKind::kBerSpike), 1u);
}

TEST(FaultInjector, NodeCrashKillsEveryOutgoingWire) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  m.power_on();
  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.node_crash(m.engine().now(), NodeId{3});
  injector.arm(plan);
  m.engine().run_until(m.engine().now() + 1);

  EXPECT_EQ(m.mesh().condition(NodeId{3}), net::NodeCondition::kCrashed);
  for (int l = 0; l < torus::kLinksPerNode; ++l) {
    EXPECT_TRUE(m.mesh().wire(NodeId{3}, LinkIndex{l}).failed());
  }
  EXPECT_EQ(m.mesh().condition(NodeId{0}), net::NodeCondition::kOk);
}

// --- Incremental checksum audit ---------------------------------------------

TEST(ChecksumAudit, DeltaAuditCatchesCorruptionOnceThenRebaselines) {
  machine::Machine m(small_config({2, 1, 1, 1, 1, 1}));
  m.power_on();
  const LinkIndex l0{0};
  auto& recv = m.scu(NodeId{1}).recv_side(torus::facing_link(l0));
  recv.set_data_sink([](u64) {});

  fault::ChecksumAuditor auditor(&m.mesh());
  auto send_words = [&](int n) {
    for (int i = 0; i < n; ++i) {
      m.scu(NodeId{0}).send_side(l0).enqueue_data(static_cast<u64>(777 + i));
    }
    m.engine().run_until_idle();
  };

  send_words(20);
  EXPECT_TRUE(auditor.clean_since_last());

  recv.force_corrupt(1);
  send_words(20);
  std::vector<std::string> mismatches;
  EXPECT_FALSE(auditor.clean_since_last(&mismatches));
  EXPECT_EQ(mismatches.size(), 1u);

  // The dirty interval was consumed: fresh traffic audits clean even though
  // the *cumulative* checksums will disagree forever.
  send_words(20);
  EXPECT_TRUE(auditor.clean_since_last());
  EXPECT_EQ(auditor.audits(), 3u);
  EXPECT_EQ(auditor.failures(), 1u);
  EXPECT_NE(m.scu(NodeId{0}).send_checksum(l0), recv.checksum());
}

// --- Boot with dead hardware ------------------------------------------------

TEST(Boot, DeadWireIsReportedAndEndpointsQuarantined) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  m.mesh().wire(NodeId{0}, LinkIndex{0}).fail();
  host::Qdaemon qd(&m);
  const auto& report = qd.boot();  // must terminate, not assert or spin
  EXPECT_FALSE(report.link_training_ok);
  ASSERT_EQ(report.untrained_links.size(), 1u);
  EXPECT_EQ(report.untrained_links[0].node, NodeId{0});

  const NodeId other = m.topology().neighbor(NodeId{0}, LinkIndex{0});
  EXPECT_EQ(qd.node_state(NodeId{0}), host::NodeBootState::kHardwareFailed);
  EXPECT_EQ(qd.node_state(other), host::NodeBootState::kHardwareFailed);
  EXPECT_TRUE(qd.is_quarantined(NodeId{0}));
  EXPECT_TRUE(qd.is_quarantined(other));
  EXPECT_EQ(qd.free_nodes(), 2);
}

// --- Health monitor ---------------------------------------------------------

TEST(Health, CrashedNodeIsQuarantinedAndJobsFailCleanly) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  host::Qdaemon qd(&m);
  qd.boot();
  torus::Shape whole;
  whole.extent = {2, 2, 1, 1, 1, 1};
  auto handle = qd.allocate_partition("all", whole, 2);
  ASSERT_TRUE(handle.has_value());

  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.node_crash(m.engine().now(), NodeId{3});
  injector.arm(plan);
  m.engine().run_until(m.engine().now() + 1);

  const auto sweep = qd.health().sweep();
  ASSERT_EQ(sweep.newly_failed.size(), 1u);
  EXPECT_EQ(sweep.newly_failed[0], NodeId{3});
  EXPECT_EQ(qd.health().health(NodeId{3}), host::NodeHealth::kFailed);
  EXPECT_TRUE(qd.is_quarantined(NodeId{3}));

  // A job on the partition covering the dead node fails cleanly with a
  // diagnostic, rather than hanging the machine.
  const auto job = qd.run_job(
      *handle, [](comms::Communicator&, std::vector<std::string>& out) {
        out.push_back("should not run");
      });
  EXPECT_FALSE(job.ok);
  ASSERT_FALSE(job.output.empty());
  EXPECT_NE(job.output[0].find("node 3"), std::string::npos);

  // Future allocations avoid the quarantined node.
  qd.release_partition(*handle);
  EXPECT_FALSE(qd.allocate_partition("again", whole, 2).has_value());
  torus::Shape half;
  half.extent = {2, 1, 1, 1, 1, 1};
  auto safe = qd.allocate_partition("half", half, 1);
  ASSERT_TRUE(safe.has_value());
  for (const NodeId n : safe->partition->nodes()) {
    EXPECT_FALSE(n == NodeId{3});
  }
}

// --- SCU receive-progress watchdog ------------------------------------------

TEST(Watchdog, StalledReceiverIsFlaggedAndQuarantined) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  host::Qdaemon qd(&m);
  qd.boot();
  host::WatchdogConfig wcfg;
  wcfg.check_period_cycles = 1 << 10;
  wcfg.stall_cycles = 1 << 12;
  host::ScuWatchdog& wd = qd.watchdog(wcfg);
  // One armed watch, run past its horizon.
  const Cycle watch = 1 << 13;
  const auto watch_once = [&] {
    wd.arm(watch);
    m.engine().run_until(m.engine().now() + watch + 64);
    EXPECT_FALSE(wd.armed()) << "watch must expire at the armed horizon";
  };
  const auto flagged = [&] {
    std::vector<NodeId> nodes;
    for (int i = 0; i < m.num_nodes(); ++i) {
      const NodeId n{static_cast<u32>(i)};
      if (wd.stalled(n)) nodes.push_back(n);
    }
    return nodes;
  };

  // Healthy traffic: receive counters advance, nobody is flagged.
  const LinkIndex l0{0};
  const NodeId receiver = m.topology().neighbor(NodeId{0}, l0);
  auto& recv = m.scu(receiver).recv_side(torus::facing_link(l0));
  recv.set_data_sink([](u64) {});
  auto& send = m.scu(NodeId{0}).send_side(l0);
  for (int i = 0; i < 16; ++i) send.enqueue_data(static_cast<u64>(i));
  watch_once();
  EXPECT_TRUE(send.data_drained());
  EXPECT_TRUE(flagged().empty());

  // The wire dies with data still queued behind it: the receiver's word
  // counters freeze while the sender's queue stays undrained.  Idle nodes
  // freeze too, but with no neighbour data pending they are never flagged.
  m.mesh().wire(NodeId{0}, l0).fail();
  for (int i = 0; i < 8; ++i) send.enqueue_data(static_cast<u64>(100 + i));
  watch_once();
  EXPECT_EQ(flagged(), std::vector<NodeId>{receiver});
  // The report escalates through the health monitor to quarantine.
  EXPECT_EQ(qd.health().health(receiver), host::NodeHealth::kFailed);
  EXPECT_TRUE(qd.is_quarantined(receiver));
  EXPECT_EQ(wd.nodes_flagged(), 1u);

  // Sticky: later correlations still see the stall but do not re-report.
  const u64 checks = wd.checks();
  watch_once();
  EXPECT_GT(wd.checks(), checks);
  EXPECT_FALSE(send.data_drained());
  EXPECT_EQ(flagged(), std::vector<NodeId>{receiver});
  EXPECT_EQ(wd.nodes_flagged(), 1u);
}

// The armed watchdog must catch a stall while the engine keeps running,
// and -- because its samplers are node-affine events and its correlation
// reads only host-side memory -- the whole run must stay bit-identical
// across thread counts (the bounded-affinity contract, DESIGN.md).
TEST(Watchdog, ArmedSamplingFlagsStallAndKeepsDigestThreadInvariant) {
  struct Run {
    u64 digest;
    u64 events;
    bool flagged;
    bool quarantined;
    u64 checks;
  };
  auto run = [](int threads) {
    machine::MachineConfig cfg = small_config({2, 2, 1, 1, 1, 1});
    cfg.sim_threads = threads;
    machine::Machine m(cfg);
    host::Qdaemon qd(&m);
    qd.boot();
    host::WatchdogConfig wcfg;
    wcfg.check_period_cycles = 1 << 12;
    wcfg.stall_cycles = 1 << 14;
    host::ScuWatchdog& wd = qd.watchdog(wcfg);

    const LinkIndex l0{0};
    const NodeId receiver = m.topology().neighbor(NodeId{0}, l0);
    m.scu(receiver).recv_side(torus::facing_link(l0)).set_data_sink([](u64) {});
    // Dead wire with data queued behind it: the receiver's counters freeze
    // while node 0's send side stays undrained -- the armed samplers must
    // observe both halves and the host correlation must flag the receiver.
    m.mesh().wire(NodeId{0}, l0).fail();
    for (int i = 0; i < 8; ++i) {
      m.scu(NodeId{0}).send_side(l0).enqueue_data(static_cast<u64>(i));
    }
    wd.arm(1 << 16);
    EXPECT_TRUE(wd.armed());
    m.engine().run_until(m.engine().now() + (1 << 16) + 64);
    EXPECT_FALSE(wd.armed()) << "watch must expire at the armed horizon";
    return Run{m.engine().trace_digest(), m.engine().events_executed(),
               wd.stalled(receiver), qd.is_quarantined(receiver), wd.checks()};
  };
  const Run ref = run(1);
  EXPECT_TRUE(ref.flagged);
  EXPECT_TRUE(ref.quarantined);
  EXPECT_GT(ref.checks, 0u);
  for (const int threads : {2, 4}) {
    const Run got = run(threads);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.flagged, ref.flagged) << threads << " threads";
    EXPECT_EQ(got.quarantined, ref.quarantined) << threads << " threads";
    EXPECT_EQ(got.checks, ref.checks) << threads << " threads";
  }
}

TEST(Health, MemCheckEscalationLadder) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  host::Qdaemon qd(&m);
  qd.boot();
  host::HealthConfig hcfg;
  hcfg.degraded_corrected_mem_delta = 2;
  hcfg.quarantine_mem_uncorrectable = 2;
  host::HealthMonitor& health = qd.health(hcfg);

  auto& mem = m.memory(NodeId{2});
  const memsys::Block b = mem.alloc_in(memsys::Region::kEdram, 64, "t");

  // Rung 1: a burst of corrected singles degrades the node.
  for (u64 w = 0; w < 3; ++w) mem.ecc().inject_upset(b.word_addr + 16 * w, 1);
  mem.ecc().scrub_step(/*rows=*/1 << 16, /*cycles_per_row=*/2);
  auto sweep = health.sweep();
  EXPECT_EQ(sweep.degraded, 1);
  EXPECT_EQ(sweep.mem_corrected, 3u);
  EXPECT_EQ(health.health(NodeId{2}), host::NodeHealth::kDegraded);
  EXPECT_FALSE(qd.is_quarantined(NodeId{2}));

  // Rung 2: an uncorrectable codeword (machine check) keeps it degraded
  // and is consumed by the sweep.
  mem.ecc().inject_upset(b.word_addr, 4);
  mem.ecc().inject_upset(b.word_addr + 1, 5);
  sweep = health.sweep();
  EXPECT_EQ(sweep.machine_checked, 1);
  EXPECT_EQ(sweep.mem_uncorrectable, 1u);
  EXPECT_EQ(health.health(NodeId{2}), host::NodeHealth::kDegraded);
  EXPECT_FALSE(mem.ecc().machine_check_pending());

  // Rung 3: enough lifetime uncorrectable errors fail and quarantine it.
  mem.ecc().inject_upset(b.word_addr + 32, 4);
  mem.ecc().inject_upset(b.word_addr + 33, 5);
  sweep = health.sweep();
  EXPECT_EQ(sweep.failed, 1);
  EXPECT_EQ(health.health(NodeId{2}), host::NodeHealth::kFailed);
  EXPECT_TRUE(qd.is_quarantined(NodeId{2}));
}

TEST(Health, HungNodeIsDetectedBySweep) {
  machine::Machine m(small_config({2, 2, 1, 1, 1, 1}));
  host::Qdaemon qd(&m);
  qd.boot();
  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.node_hang(m.engine().now(), NodeId{1});
  injector.arm(plan);
  m.engine().run_until(m.engine().now() + 1);
  const auto sweep = qd.health().sweep();
  EXPECT_EQ(sweep.failed, 1);
  EXPECT_EQ(qd.health().health(NodeId{1}), host::NodeHealth::kFailed);
  EXPECT_TRUE(qd.is_quarantined(NodeId{1}));
  EXPECT_EQ(sweep.healthy, 3);
}

}  // namespace
}  // namespace qcdoc

// --- Audited CG and the end-to-end campaign ---------------------------------

namespace qcdoc::lattice {
namespace {

using torus::LinkIndex;
using testing::LatticeRig;
using testing::fill_by_global_site;

double true_residual(DiracOperator& op, DistField& x, DistField& b) {
  FieldOps& ops = op.ops();
  DistField mx = op.make_field("check.mx");
  DistField r = op.make_field("check.r");
  DistField mdr = op.make_field("check.mdr");
  op.apply(mx, x);
  ops.copy(b, r);
  ops.axpy(-1.0, mx, r);
  op.apply_dag(mdr, r);
  const double num = ops.norm2(mdr);
  op.apply_dag(mdr, b);
  const double den = ops.norm2(mdr);
  return std::sqrt(num / den);
}

TEST(CgAudited, CleanAuditsMatchPlainCgExactly) {
  auto solve = [](bool audited, int* iterations, double* residual) {
    LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    Rng rng(41);
    gauge.randomize_near_unit(rng, 0.1);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.12});
    DistField x = op.make_field("x");
    DistField b = op.make_field("b");
    x.zero();
    fill_by_global_site(*rig.geom, b);
    CgParams params;
    params.tolerance = 1e-8;
    params.max_iterations = 400;
    CgResult result;
    if (audited) {
      CgAuditParams audit;
      audit.clean = [] { return true; };
      audit.interval = 7;
      result = cg_solve_audited(op, x, b, params, audit);
    } else {
      result = cg_solve(op, x, b, params);
    }
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.restarts, 0);
    *iterations = result.iterations;
    *residual = result.relative_residual;
  };
  int it_plain = 0, it_audited = 0;
  double res_plain = 0, res_audited = 0;
  solve(false, &it_plain, &res_plain);
  solve(true, &it_audited, &res_audited);
  // Checkpointing copies don't touch the iterates: identical arithmetic.
  EXPECT_EQ(it_plain, it_audited);
  EXPECT_EQ(res_plain, res_audited);
}

// The acceptance campaign: on a 2^6 machine, kill a link and spike another
// link's error rate; the health monitor must quarantine the dead node and
// retrain the marginal link; a partition allocated afterwards must avoid the
// quarantined node; and a CG job with undetected corruption injected must
// recover through the checksum-audit/restart path and converge -- all of it
// bit-identically across repeated runs.
struct CampaignOutcome {
  bool dead_node_quarantined = false;
  bool partition_avoids_dead_node = false;
  bool marginal_link_retrained = false;
  bool job_ok = false;
  bool converged = false;
  int iterations = 0;
  int restarts = 0;
  u64 audit_failures = 0;
  double residual = 0;
  double check_residual = 0;
  Cycle end_cycle = 0;
  u64 field_checksum = 0;  ///< FNV over every bit of the solution field
  u64 trace_digest = 0;    ///< the engine's event-order digest

  friend bool operator==(const CampaignOutcome&, const CampaignOutcome&) =
      default;
};

CampaignOutcome run_campaign(int sim_threads = 1) {
  CampaignOutcome out;
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};  // the full 64-node test mesh
  cfg.sim_threads = sim_threads;
  machine::Machine m(cfg);
  host::Qdaemon qd(&m);
  qd.boot();

  const NodeId dead{0};
  torus::Coord c1;
  c1.c = {1, 0, 0, 0, 0, 0};
  const NodeId marginal = m.topology().id(c1);
  const LinkIndex spike_link{4};  // dim 2, plus direction
  const NodeId spike_peer = m.topology().neighbor(marginal, spike_link);

  // Scheduled faults: one permanent link death, one bit-error-rate spike.
  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.link_death(m.engine().now(), dead, LinkIndex{0});
  plan.ber_spike(m.engine().now(), marginal, spike_link, 2e-3,
                 /*duration=*/1 << 22);
  injector.arm(plan);
  m.engine().run_until(m.engine().now() + 1);  // deliver the fault events

  // Exercise the marginal link so its resend counters climb.
  auto& spike_recv = m.scu(spike_peer).recv_side(torus::facing_link(spike_link));
  spike_recv.set_data_sink([](u64) {});
  for (int i = 0; i < 300; ++i) {
    m.scu(marginal).send_side(spike_link).enqueue_data(
        0x9e3779b97f4a7c15ull * static_cast<u64>(i + 1));
  }
  m.engine().run_until_idle();
  spike_recv.clear_data_sink();

  // One health sweep: the dead wire fails its node, the resend burst marks
  // the marginal link degraded and retrains it.
  qd.health().sweep();
  out.dead_node_quarantined = qd.is_quarantined(dead) &&
                              qd.health().health(dead) ==
                                  host::NodeHealth::kFailed;
  out.marginal_link_retrained =
      m.mesh().wire(marginal, spike_link).times_trained() >= 2;

  // Allocation must route around the quarantined node.
  torus::Shape box;
  box.extent = {2, 2, 2, 2, 1, 1};
  auto handle = qd.allocate_partition("cg", box, 4);
  if (!handle) return out;
  out.partition_avoids_dead_node = true;
  for (const NodeId n : handle->partition->nodes()) {
    if (n == dead) out.partition_avoids_dead_node = false;
  }

  // Undetected corruption against a wire inside the partition: the next
  // data words accepted on it land bit-flipped, invisible to parity.  An odd
  // count keeps the additive checksum delta nonzero no matter what the data
  // is (an even number of top-bit flips cancels modulo 2^64).
  fault::ChecksumAuditor auditor(&m.mesh());
  fault::FaultPlan corruption;
  corruption.data_corruption(m.engine().now(),
                             handle->partition->nodes()[0], LinkIndex{0},
                             /*count=*/3);
  injector.arm(corruption);

  const auto job = qd.run_job(
      *handle, [&](comms::Communicator& comm, std::vector<std::string>& log) {
        GlobalGeometry geom(handle->partition, {4, 4, 4, 4});
        machine::BspRunner bsp(&m);
        cpu::CpuModel cpu(m.mem_timing());
        FieldOps ops(&bsp, &cpu, &comm);
        GaugeField gauge(&comm, &geom);
        Rng rng(77);
        gauge.randomize_near_unit(rng, 0.1);
        WilsonDirac op(&ops, &geom, &gauge, WilsonParams{.kappa = 0.12});
        DistField x = op.make_field("x");
        DistField b = op.make_field("b");
        x.zero();
        fill_by_global_site(geom, b);
        CgParams params;
        params.tolerance = 1e-8;
        params.max_iterations = 400;
        CgAuditParams audit;
        audit.clean = [&] { return auditor.clean_since_last(); };
        audit.interval = 5;
        audit.max_restarts = 6;
        const CgResult r = cg_solve_audited(op, x, b, params, audit);
        out.converged = r.converged;
        out.iterations = r.iterations;
        out.restarts = r.restarts;
        out.audit_failures = r.audit_failures;
        out.residual = r.relative_residual;
        out.check_residual = true_residual(op, x, b);
        out.field_checksum = testing::field_fnv(x);
        log.push_back("cg restarts: " + std::to_string(r.restarts));
      });
  out.job_ok = job.ok;
  out.end_cycle = m.engine().now();
  out.trace_digest = m.engine().trace_digest();
  return out;
}

TEST(FaultCampaign, DetectQuarantineRecoverAndSolve) {
  const CampaignOutcome out = run_campaign();
  EXPECT_TRUE(out.dead_node_quarantined);
  EXPECT_TRUE(out.marginal_link_retrained);
  EXPECT_TRUE(out.partition_avoids_dead_node);
  EXPECT_TRUE(out.job_ok);
  EXPECT_TRUE(out.converged);
  // The injected corruption forced at least one rollback, and the solver
  // still reached the true solution.
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.audit_failures, 1u);
  EXPECT_LT(out.residual, 1e-7);
  EXPECT_LT(out.check_residual, 1e-6);
}

TEST(FaultCampaign, WholeCampaignIsBitReproducible) {
  const CampaignOutcome a = run_campaign();
  const CampaignOutcome b = run_campaign();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.field_checksum, b.field_checksum);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

// The same campaign at 2 and 4 threads: faults, health verdicts, CG
// rollbacks, the solution field and the event-order digest must all be
// bit-identical to the 1-thread run.
TEST(FaultCampaign, WholeCampaignIsBitIdenticalAcrossEngines) {
  const CampaignOutcome serial = run_campaign(1);
  for (const int threads : {2, 4}) {
    const CampaignOutcome par = run_campaign(threads);
    EXPECT_TRUE(par == serial) << threads << " threads";
    EXPECT_EQ(par.trace_digest, serial.trace_digest) << threads << " threads";
    EXPECT_EQ(par.field_checksum, serial.field_checksum)
        << threads << " threads";
    EXPECT_EQ(par.end_cycle, serial.end_cycle) << threads << " threads";
  }
}

// --- Memory soft-error soak (SECDED ECC + scrub + machine-check rollback) ---

// A 10-iteration CG on the 2^6 machine under sustained memory upsets.
// Correctable single-bit flips are invisible to compute (the ECC datapath
// corrects every read) and get scrubbed in the background; one targeted
// uncorrectable hit on the solution vector latches a machine check, which
// the audited solver turns into a checkpoint rollback.  The end state must
// be bit-equal to the fault-free run.
struct MemSoakOutcome {
  bool job_ok = false;
  int iterations = 0;
  int restarts = 0;
  u64 mem_checks = 0;
  u64 residual_bits = 0;
  u64 field_checksum = 0;
  u64 upsets = 0;
  u64 corrected = 0;
  u64 uncorrectable = 0;
  u64 scrub_rows = 0;
  u64 scrub_cycles = 0;
};

MemSoakOutcome run_mem_soak(bool faulted, int sim_threads = 1) {
  MemSoakOutcome out;
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};
  cfg.sim_threads = sim_threads;
  // Shrink the address space so the scrub cursor laps all of EDRAM and DDR
  // many times within one solve (the default 128 MB of DDR would need ~1 G
  // cycles per lap).
  cfg.mem.edram_words = 1 << 15;
  cfg.mem.ddr_words = 1 << 16;
  machine::Machine m(cfg);
  host::Qdaemon qd(&m);
  qd.boot();

  torus::Shape whole;
  whole.extent = cfg.shape.extent;
  auto handle = qd.allocate_partition("memsoak", whole, 4);
  if (!handle) return out;

  // The lattice fields all live in EDRAM; give every node a live DDR buffer
  // too so the campaign exercises both codeword geometries.
  for (const NodeId n : handle->partition->nodes()) {
    auto& mem = m.memory(n);
    const memsys::Block d =
        mem.alloc_in(memsys::Region::kDdr, 64, "soak.ddr");
    for (u64 w = 0; w < 64; ++w) {
      mem.write_word(d.word_addr + w, 0x5a5a0000ull + w);
    }
  }
  if (faulted) {
    memsys::ScrubConfig scrub;
    scrub.rows_per_period = 4096;  // full lap every ~5 bursts
    m.start_memory_scrubbers(scrub);
  }

  fault::FaultInjector injector(&m.mesh());
  fault::MemCheckAuditor mem_auditor(&m.mesh(), handle->partition->nodes());

  const auto job = qd.run_job(
      *handle, [&](comms::Communicator& comm, std::vector<std::string>& log) {
        GlobalGeometry geom(handle->partition, {4, 4, 4, 16});
        machine::BspRunner bsp(&m);
        cpu::CpuModel cpu(m.mem_timing());
        FieldOps ops(&bsp, &cpu, &comm);
        GaugeField gauge(&comm, &geom);
        Rng rng(2026);
        gauge.randomize_near_unit(rng, 0.12);
        WilsonDirac op(&ops, &geom, &gauge, WilsonParams{.kappa = 0.124});
        DistField x = op.make_field("x");
        DistField b = op.make_field("b");
        x.zero();
        fill_by_global_site(geom, b);

        CgParams params;
        params.fixed_iterations = 10;
        CgResult r;
        if (faulted) {
          const Cycle now = m.engine().now();
          // Sustained correctable upsets, entropy-addressed into every
          // node's allocated words, for the whole solve.
          injector.arm(fault::FaultPlan::sustained_mem_upsets(
              /*seed=*/99, cfg.shape, /*n=*/128, now, /*horizon=*/1 << 19,
              /*uncorrectable_fraction=*/0.0));
          // One targeted uncorrectable hit on the solution vector early in
          // the solve: detected at the next audit, rolled back, and the
          // checkpoint copy rewrites the poisoned word.
          fault::FaultPlan poison;
          poison.mem_upset(now + 50000, comm.node_of_rank(0),
                           x.block(0).word_addr + 3, /*bits=*/2, /*bit=*/11);
          injector.arm(poison);

          CgAuditParams audit;
          audit.mem_clean = [&] { return mem_auditor.clean_since_last(); };
          // interval >= fixed_iterations: a rollback goes all the way to
          // x0, so the clean rerun retraces the fault-free trajectory
          // bit for bit.
          audit.interval = params.fixed_iterations;
          r = cg_solve_audited(op, x, b, params, audit);
        } else {
          r = cg_solve(op, x, b, params);
        }
        out.iterations = r.iterations;
        out.restarts = r.restarts;
        out.mem_checks = r.mem_checks;
        out.residual_bits = std::bit_cast<u64>(r.relative_residual);
        out.field_checksum = testing::field_fnv(x);
        log.push_back("cg restarts: " + std::to_string(r.restarts));
      });
  out.job_ok = job.ok;
  const memsys::EccCounters total = m.mesh().total_ecc();
  out.upsets = total.upsets;
  out.corrected = total.corrected;
  out.uncorrectable = total.uncorrectable;
  out.scrub_rows = total.scrub_rows;
  out.scrub_cycles = total.scrub_cycles;
  return out;
}

TEST(MemSoak, SustainedUpsetsRollBackAndReachTheFaultFreeResidual) {
  const MemSoakOutcome clean = run_mem_soak(false);
  ASSERT_TRUE(clean.job_ok);
  EXPECT_EQ(clean.iterations, 10);
  EXPECT_EQ(clean.upsets, 0u);

  const MemSoakOutcome soaked = run_mem_soak(true);
  ASSERT_TRUE(soaked.job_ok);
  EXPECT_EQ(soaked.iterations, 10);
  // The uncorrectable hit forced at least one machine-check rollback...
  EXPECT_GE(soaked.restarts, 1);
  EXPECT_GE(soaked.mem_checks, 1u);
  EXPECT_GE(soaked.uncorrectable, 1u);
  // ...the sustained singles really happened and the scrubber corrected
  // some of them on its cycle budget...
  EXPECT_GT(soaked.upsets, 64u);
  EXPECT_GT(soaked.corrected, 0u);
  EXPECT_GT(soaked.scrub_rows, 0u);
  EXPECT_GT(soaked.scrub_cycles, 0u);
  // ...and the solve still landed on the bit-exact fault-free answer.
  EXPECT_EQ(soaked.residual_bits, clean.residual_bits);
  EXPECT_EQ(soaked.field_checksum, clean.field_checksum);
}

TEST(MemSoak, CampaignIsBitIdenticalAcrossEngines) {
  const MemSoakOutcome serial = run_mem_soak(true, 1);
  for (const int threads : {2, 4}) {
    const MemSoakOutcome par = run_mem_soak(true, threads);
    EXPECT_EQ(par.residual_bits, serial.residual_bits) << threads;
    EXPECT_EQ(par.field_checksum, serial.field_checksum) << threads;
    EXPECT_EQ(par.restarts, serial.restarts) << threads;
    EXPECT_EQ(par.mem_checks, serial.mem_checks) << threads;
    EXPECT_EQ(par.upsets, serial.upsets) << threads;
    EXPECT_EQ(par.corrected, serial.corrected) << threads;
    EXPECT_EQ(par.uncorrectable, serial.uncorrectable) << threads;
    EXPECT_EQ(par.scrub_rows, serial.scrub_rows) << threads;
  }
}

}  // namespace
}  // namespace qcdoc::lattice
