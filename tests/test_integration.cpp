// Full-stack integration: boot over Ethernet/JTAG, allocate a partition,
// run a QCD job through the communications API on the simulated network,
// verify checksums -- the life cycle described in paper Sections 2.3-4.
#include <gtest/gtest.h>

#include "host/diagnostics.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"

namespace qcdoc {
namespace {

using lattice::testing::fill_by_global_site;

TEST(Integration, BootPartitionSolveVerify) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {4, 2, 2, 1, 1, 1};
  machine::Machine m(cfg);

  // 1. Boot the machine through the qdaemon.
  host::Qdaemon daemon(&m);
  const auto& boot = daemon.boot();
  ASSERT_EQ(boot.nodes_ready, 16);
  ASSERT_TRUE(boot.partition_interrupt_ok);

  // 2. Allocate a 4-D partition of the full machine.
  torus::Shape box;
  box.extent = {4, 2, 2, 1, 1, 1};
  const auto handle = daemon.allocate_partition("qcd", box, 4);
  ASSERT_TRUE(handle.has_value());

  // 3. Run a Wilson CG solve as a job.
  double residual = -1.0;
  const auto job = daemon.run_job(
      *handle, [&](comms::Communicator& comm, std::vector<std::string>& out) {
        machine::BspRunner bsp(&m);
        cpu::CpuModel cpu_model(m.mem_timing());
        lattice::FieldOps ops(&bsp, &cpu_model, &comm);
        lattice::GlobalGeometry geom(&comm.partition(), {8, 4, 4, 4});
        lattice::GaugeField gauge(&comm, &geom);
        Rng rng(1234);
        gauge.randomize_near_unit(rng, 0.1);
        lattice::WilsonDirac op(&ops, &geom, &gauge,
                                lattice::WilsonParams{.kappa = 0.12});
        lattice::DistField x = op.make_field("x");
        lattice::DistField b = op.make_field("b");
        x.zero();
        fill_by_global_site(geom, b);
        lattice::CgParams params;
        params.tolerance = 1e-7;
        params.max_iterations = 300;
        const auto result = lattice::cg_solve(op, x, b, params);
        residual = result.relative_residual;
        out.push_back("iterations=" + std::to_string(result.iterations));
      });
  ASSERT_TRUE(job.ok);
  EXPECT_LT(residual, 1e-7);
  EXPECT_GT(job.cycles, 0u);

  // 4. End-of-run confirmation: every link checksum matches and no SCU
  // errors were recorded (paper: "No hardware errors on the SCU links were
  // reported").
  host::Diagnostics diag(&m, &daemon.ethernet());
  const auto checks = diag.verify_checksums();
  EXPECT_TRUE(checks.all_match);
  const auto scan = diag.scan_link_errors();
  EXPECT_EQ(scan.detected_errors, 0u);
  EXPECT_EQ(scan.undetected_errors, 0u);
}

TEST(Integration, TwoPartitionsRunIndependentJobs) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {4, 2, 2, 1, 1, 1};
  machine::Machine m(cfg);
  host::Qdaemon daemon(&m);
  daemon.boot();

  torus::Shape half;
  half.extent = {2, 2, 2, 1, 1, 1};
  const auto p1 = daemon.allocate_partition("left", half, 4);
  const auto p2 = daemon.allocate_partition("right", half, 4);
  ASSERT_TRUE(p1 && p2);

  auto qcd_job = [&m](comms::Communicator& comm,
                      std::vector<std::string>& out) {
    machine::BspRunner bsp(&m);
    cpu::CpuModel cpu_model(m.mem_timing());
    lattice::FieldOps ops(&bsp, &cpu_model, &comm);
    lattice::GlobalGeometry geom(&comm.partition(), {4, 4, 4, 2});
    lattice::GaugeField gauge(&comm, &geom);
    gauge.set_unit();
    out.push_back("plaquette=" + std::to_string(gauge.average_plaquette()));
  };
  const auto r1 = daemon.run_job(*p1, qcd_job);
  const auto r2 = daemon.run_job(*p2, qcd_job);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(Integration, FaultySerialLinkIsRepairedAndReported) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 1, 1, 1};
  cfg.bit_error_rate = 0.0;
  machine::Machine m(cfg);
  host::Qdaemon daemon(&m);
  daemon.boot();
  // One marginal wire in the machine.
  m.mesh().wire(NodeId{3}, torus::link_index(1, torus::Dir::kPlus))
      .set_bit_error_rate(1e-3);

  torus::Shape box;
  box.extent = {2, 2, 2, 1, 1, 1};
  const auto handle = daemon.allocate_partition("fault", box, 4);
  ASSERT_TRUE(handle.has_value());
  double norm = 0;
  const auto job = daemon.run_job(
      *handle, [&](comms::Communicator& comm, std::vector<std::string>&) {
        machine::BspRunner bsp(&m);
        cpu::CpuModel cpu_model(m.mem_timing());
        lattice::FieldOps ops(&bsp, &cpu_model, &comm);
        lattice::GlobalGeometry geom(&comm.partition(), {4, 4, 4, 2});
        lattice::GaugeField gauge(&comm, &geom);
        gauge.set_unit();
        lattice::WilsonDirac op(&ops, &geom, &gauge, lattice::WilsonParams{});
        lattice::DistField in = op.make_field("in");
        lattice::DistField out = op.make_field("out");
        fill_by_global_site(geom, in);
        for (int i = 0; i < 5; ++i) op.dslash(out, in);
        norm = ops.norm2(out);
      });
  ASSERT_TRUE(job.ok);
  // Same computation on a clean machine gives the same answer: the
  // automatic resend protocol repaired every detected error.
  machine::MachineConfig clean_cfg = cfg;
  machine::Machine clean(clean_cfg);
  host::Qdaemon clean_daemon(&clean);
  clean_daemon.boot();
  const auto clean_handle = clean_daemon.allocate_partition("clean", box, 4);
  double clean_norm = 0;
  clean_daemon.run_job(
      *clean_handle, [&](comms::Communicator& comm, std::vector<std::string>&) {
        machine::BspRunner bsp(&clean);
        cpu::CpuModel cpu_model(clean.mem_timing());
        lattice::FieldOps ops(&bsp, &cpu_model, &comm);
        lattice::GlobalGeometry geom(&comm.partition(), {4, 4, 4, 2});
        lattice::GaugeField gauge(&comm, &geom);
        gauge.set_unit();
        lattice::WilsonDirac op(&ops, &geom, &gauge, lattice::WilsonParams{});
        lattice::DistField in = op.make_field("in");
        lattice::DistField out = op.make_field("out");
        fill_by_global_site(geom, in);
        for (int i = 0; i < 5; ++i) op.dslash(out, in);
        clean_norm = ops.norm2(out);
      });
  host::Diagnostics diag(&m, &daemon.ethernet());
  const auto scan = diag.scan_link_errors();
  if (scan.undetected_errors == 0) {
    EXPECT_EQ(norm, clean_norm);  // bitwise identical despite the faults
    EXPECT_TRUE(diag.verify_checksums().all_match);
  } else {
    EXPECT_FALSE(diag.verify_checksums().all_match);
  }
  // The diagnostics point at the faulty region.
  if (scan.detected_errors > 0) {
    EXPECT_FALSE(scan.suspect_nodes.empty());
  }
}

}  // namespace
}  // namespace qcdoc
