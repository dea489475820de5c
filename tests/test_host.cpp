#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "host/config_store.h"
#include "host/diagnostics.h"
#include "host/qcsh.h"
#include "host/qdaemon.h"

namespace qcdoc::host {
namespace {

machine::MachineConfig small_machine(std::array<int, 6> extents) {
  machine::MachineConfig cfg;
  cfg.shape.extent = extents;
  return cfg;
}

TEST(Boot, BringsEveryNodeToReady) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  const BootReport& report = daemon.boot();
  EXPECT_EQ(report.nodes_ready, 4);
  EXPECT_TRUE(report.partition_interrupt_ok);
  EXPECT_TRUE(m.mesh().all_trained());
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(daemon.node_state(NodeId{static_cast<u32>(n)}),
              NodeBootState::kReady);
  }
}

TEST(Boot, PacketCountsMatchPaper) {
  // "each node receives about 100 UDP packets ... Then the run kernel is
  // loaded down, also taking about 100 UDP packets."
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  const BootReport& report = daemon.boot();
  EXPECT_EQ(report.jtag_packets, 4u * 100u);
  EXPECT_EQ(report.udp_packets, 4u * 100u);
}

TEST(Boot, DetectsSixDimensionalShape) {
  machine::Machine m(small_machine({4, 2, 2, 2, 1, 1}));
  Qdaemon daemon(&m);
  const BootReport& report = daemon.boot();
  EXPECT_EQ(report.detected_shape, m.topology().shape());
}

TEST(Qdaemon, AllocatesDisjointPartitions) {
  machine::Machine m(small_machine({4, 2, 2, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  torus::Shape half;
  half.extent = {2, 2, 2, 1, 1, 1};
  const auto p1 = daemon.allocate_partition("alice", half, 3);
  const auto p2 = daemon.allocate_partition("bob", half, 3);
  ASSERT_TRUE(p1.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(daemon.free_nodes(), 0);
  // Disjoint node sets.
  std::set<u32> seen;
  for (const NodeId n : p1->partition->nodes()) seen.insert(n.value);
  for (const NodeId n : p2->partition->nodes()) {
    EXPECT_EQ(seen.count(n.value), 0u);
  }
  // A third allocation must fail until one is released.
  EXPECT_FALSE(daemon.allocate_partition("carol", half, 3).has_value());
  daemon.release_partition(*p1);
  EXPECT_TRUE(daemon.allocate_partition("carol", half, 3).has_value());
}

TEST(Qdaemon, RemapsToRequestedDimensionality) {
  // "A user requests that the qdaemon remap their partition to a
  // dimensionality between one and six."
  machine::Machine m(small_machine({2, 2, 2, 2, 2, 2}));
  Qdaemon daemon(&m);
  daemon.boot();
  for (int dims = 1; dims <= 6; ++dims) {
    torus::Shape box;
    box.extent = {2, 2, 2, 2, 2, 2};
    const auto p = daemon.allocate_partition("p", box, dims);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->partition->logical_dims(), dims);
    EXPECT_EQ(p->partition->num_nodes(), 64);
    EXPECT_TRUE(p->partition->is_true_torus());
    daemon.release_partition(*p);
  }
}

TEST(Qdaemon, RunsJobOnPartition) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  torus::Shape box;
  box.extent = {2, 2, 1, 1, 1, 1};
  const auto p = daemon.allocate_partition("job", box, 2);
  ASSERT_TRUE(p.has_value());
  const JobResult result = daemon.run_job(
      *p, [](comms::Communicator& comm, std::vector<std::string>& out) {
        std::vector<double> contrib(static_cast<std::size_t>(comm.num_nodes()),
                                    1.0);
        const auto sum = comm.global_sum(contrib);
        out.push_back("sum=" + std::to_string(static_cast<int>(sum.value)));
      });
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(result.output[0], "sum=4");
}

TEST(Diagnostics, ChecksumsCleanOnQuietMachine) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  Diagnostics diag(&m, &daemon.ethernet());
  const auto report = diag.verify_checksums();
  EXPECT_TRUE(report.all_match);
  EXPECT_EQ(report.links_checked, 4 * 12);
}

TEST(Diagnostics, JtagPeekPokeRoundTrip) {
  machine::Machine m(small_machine({2, 1, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  Diagnostics diag(&m, &daemon.ethernet());
  const auto block = m.memory(NodeId{1}).alloc(4, "probe");
  const Cycle before = m.engine().now();
  diag.jtag_poke(NodeId{1}, block.word_addr, 0xfeedfaceull);
  EXPECT_EQ(diag.jtag_peek(NodeId{1}, block.word_addr), 0xfeedfaceull);
  EXPECT_GT(m.engine().now(), before);  // probing takes real packet time
}

TEST(Diagnostics, LinkErrorScanFlagsFaultyWiring) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  // Inject a marginal wire on node 0 and push traffic over it.
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  m.mesh().wire(NodeId{0}, link).set_bit_error_rate(5e-3);
  const NodeId peer = m.topology().neighbor(NodeId{0}, link);
  auto src = m.memory(NodeId{0}).alloc(256, "src");
  auto dst = m.memory(peer).alloc(256, "dst");
  m.scu(peer).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, 256, 1, 0});
  m.scu(NodeId{0}).send_dma(link).start(
      scu::DmaDescriptor{src.word_addr, 256, 1, 0});
  EXPECT_TRUE(m.mesh().drain());

  Diagnostics diag(&m, &daemon.ethernet());
  const auto scan = diag.scan_link_errors();
  EXPECT_GT(scan.detected_errors + scan.resends, 0u);
  ASSERT_FALSE(scan.suspect_nodes.empty());
}

}  // namespace
}  // namespace qcdoc::host

namespace qcdoc::host {
namespace {

TEST(Boot, HardwareFailuresAreTrackedAndQuarantined) {
  machine::Machine m(small_machine({4, 2, 1, 1, 1, 1}));
  BootParams params;
  params.failing_nodes = {NodeId{3}, NodeId{5}};
  Qdaemon daemon(&m, net::EthernetConfig{}, params);
  const auto& report = daemon.boot();
  EXPECT_EQ(report.nodes_ready, 6);
  ASSERT_EQ(report.failed_nodes.size(), 2u);
  EXPECT_EQ(daemon.node_state(NodeId{3}), NodeBootState::kHardwareFailed);
  EXPECT_EQ(daemon.node_state(NodeId{0}), NodeBootState::kReady);
  // Failed nodes are never allocatable.
  EXPECT_EQ(daemon.free_nodes(), 6);
  torus::Shape whole;
  whole.extent = {4, 2, 1, 1, 1, 1};
  EXPECT_FALSE(daemon.allocate_partition("all", whole, 2).has_value());
  // But a box avoiding them works.
  torus::Shape half;
  half.extent = {1, 2, 1, 1, 1, 1};
  EXPECT_TRUE(daemon.allocate_partition("small", half, 1).has_value());
}

TEST(Qcsh, ScriptAllocatesRunsAndReleases) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  Qcsh shell(&daemon);
  shell.register_application(
      "sum", [](comms::Communicator& comm, const std::vector<std::string>&,
                std::vector<std::string>& out) {
        std::vector<double> one(static_cast<std::size_t>(comm.num_nodes()),
                                1.0);
        out.push_back("nodes=" +
                      std::to_string(static_cast<int>(
                          comm.global_sum(one).value)));
      });
  const auto stream = shell.run_script(R"(
# a user session
boot
alloc mine 2x2x1x1x1x1 4
run mine sum
partitions
release mine
partitions
)");
  ASSERT_GE(stream.size(), 5u);
  EXPECT_NE(stream[0].find("booted 4 nodes"), std::string::npos);
  EXPECT_NE(stream[1].find("partition 'mine'"), std::string::npos);
  EXPECT_EQ(stream[2], "nodes=4");
  EXPECT_EQ(stream[3], "mine: 2x2x1x1x1x1");
  EXPECT_NE(stream[4].find("released"), std::string::npos);
  EXPECT_EQ(stream[5], "(none)");
  EXPECT_EQ(shell.exit_code(), 0);
}

/// Runs `setup` and then `line` on a fresh 4-node machine's shell, and
/// expects `line` to be refused: one error line, exit code 1 and no node
/// taken.
void expect_refused(const std::vector<std::string>& setup,
                    const std::string& line) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  Qcsh shell(&daemon);
  for (const std::string& cmd : setup) shell.execute(cmd);
  ASSERT_EQ(shell.exit_code(), 0) << line;
  const int free_before = daemon.free_nodes();
  EXPECT_EQ(shell.execute(line).size(), 1u) << line;
  EXPECT_EQ(shell.exit_code(), 1) << line;
  EXPECT_EQ(daemon.free_nodes(), free_before) << line;
}

TEST(Qcsh, ReportsErrorsWithNonzeroExit) {
  machine::Machine m(small_machine({2, 1, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  Qcsh shell(&daemon);
  const auto out = shell.execute("frobnicate");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("unknown command"), std::string::npos);
  EXPECT_NE(shell.exit_code(), 0);
  EXPECT_FALSE(shell.execute("alloc bad 2xbroken 4").empty());
  EXPECT_FALSE(shell.execute("run nothing nowhere").empty());

  expect_refused({}, "alloc a 2x2x1x1x1x1 4");  // before boot
  expect_refused({"boot"}, "alloc t 2x2x1x1x1x1junk 4");
  expect_refused({"boot"}, "alloc t 2x2x1x1x1x1x7 4");
  expect_refused({"boot"}, "alloc t 2x2x1x1x1x1 4junk");
  // Reusing a name would orphan the first partition's nodes.
  expect_refused({"boot", "alloc x 1x2x1x1x1x1 2"}, "alloc x 1x2x1x1x1x1 2");
}

TEST(Qcsh, StatusCountsNodeStates) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  BootParams params;
  params.failing_nodes = {NodeId{1}};
  Qdaemon daemon(&m, net::EthernetConfig{}, params);
  Qcsh shell(&daemon);
  shell.execute("boot");
  const auto status = shell.execute("status");
  bool saw_ready = false, saw_failed = false;
  for (const auto& line : status) {
    if (line.find("ready: 3") != std::string::npos) saw_ready = true;
    if (line.find("failed nodes: 1") != std::string::npos) saw_failed = true;
  }
  EXPECT_TRUE(saw_ready);
  EXPECT_TRUE(saw_failed);
}

}  // namespace
}  // namespace qcdoc::host

namespace qcdoc::host {
namespace {

struct StoreRig {
  machine::Machine m;
  std::unique_ptr<Qdaemon> daemon;
  std::unique_ptr<torus::Partition> partition;
  std::unique_ptr<comms::Communicator> comm;
  std::unique_ptr<lattice::GlobalGeometry> geom;

  StoreRig()
      : m(small_machine({2, 2, 1, 1, 1, 1})) {
    daemon = std::make_unique<Qdaemon>(&m);
    daemon->boot();
    partition = std::make_unique<torus::Partition>(
        torus::Partition::whole_machine(m.topology(),
                                        torus::FoldSpec::identity(4)));
    comm = std::make_unique<comms::Communicator>(&m, partition.get());
    geom = std::make_unique<lattice::GlobalGeometry>(partition.get(),
                                                     lattice::Coord4{4, 4, 2, 2});
  }
};

TEST(ConfigStore, SaveLoadRoundTripPreservesEveryLink) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(71);
  gauge.randomize(rng);
  const double plaq = gauge.average_plaquette();

  const auto saved = store.save(gauge, "conf.0001");
  EXPECT_TRUE(saved.ok);
  EXPECT_GT(saved.bytes, 0u);
  EXPECT_GT(saved.seconds, 0.0);
  EXPECT_TRUE(store.exists("conf.0001"));
  EXPECT_EQ(store.stored_plaquette("conf.0001"), plaq);

  lattice::GaugeField restored(rig.comm.get(), rig.geom.get());
  restored.set_unit();
  const auto loaded = store.load(&restored, "conf.0001");
  EXPECT_TRUE(loaded.ok);
  // Bit-for-bit identical links.
  for (int r = 0; r < rig.geom->ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      for (int mu = 0; mu < lattice::kNd; ++mu) {
        const auto a = gauge.link(r, s, mu);
        const auto b = restored.link(r, s, mu);
        for (std::size_t k = 0; k < 9; ++k) {
          ASSERT_EQ(a.m[k], b.m[k]);
        }
      }
    }
  }
}

TEST(ConfigStore, RejectsWrongGeometryAndMissingNames) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  const auto missing = store.load(&gauge, "missing");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("no configuration"), std::string::npos);
  EXPECT_TRUE(store.save(gauge, "conf").ok);
  lattice::GlobalGeometry other(rig.partition.get(), {8, 4, 2, 2});
  lattice::GaugeField wrong(rig.comm.get(), &other);
  const auto skew = store.load(&wrong, "conf");
  EXPECT_FALSE(skew.ok);
  EXPECT_NE(skew.error.find("dimensions"), std::string::npos);
}

TEST(ConfigStore, RejectsTruncatedPayload) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(72);
  gauge.randomize(rng);
  EXPECT_TRUE(store.save(gauge, "conf").ok);

  // A torn NFS write: the payload ends early but the header still claims
  // the full volume.  Load must refuse before copying a single site.
  ASSERT_TRUE(store.truncate_stored("conf", 100));
  lattice::GaugeField target(rig.comm.get(), rig.geom.get());
  target.set_unit();
  const auto report = store.load(&target, "conf");
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("truncated"), std::string::npos);
  // The target field was not touched.
  EXPECT_EQ(target.average_plaquette(), 1.0);
}

TEST(ConfigStore, RejectsFlippedChecksumAndCorruptPayload) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(73);
  gauge.randomize(rng);
  EXPECT_TRUE(store.save(gauge, "ck").ok);
  EXPECT_TRUE(store.save(gauge, "data").ok);

  // Flipping a header-checksum bit and flipping a payload bit must both be
  // caught by the same verification, with the same diagnostic layer.
  ASSERT_TRUE(store.flip_stored_checksum_bit("ck", 17));
  ASSERT_TRUE(store.flip_stored_payload_bit("data", 1234, 3));
  lattice::GaugeField target(rig.comm.get(), rig.geom.get());
  target.set_unit();
  const auto ck = store.load(&target, "ck");
  EXPECT_FALSE(ck.ok);
  EXPECT_NE(ck.error.find("checksum"), std::string::npos);
  const auto data = store.load(&target, "data");
  EXPECT_FALSE(data.ok);
  EXPECT_NE(data.error.find("checksum"), std::string::npos);
}

TEST(ConfigStore, RejectsHeaderDimensionSkewAgainstPayload) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  EXPECT_TRUE(store.save(gauge, "conf").ok);

  // Header claims a smaller volume than the payload carries.  Geometry
  // matches the (doctored) header, so only the payload-size check between
  // header parse and site copy can catch it.
  ASSERT_TRUE(store.override_stored_dims("conf", {4, 4, 2, 1}));
  lattice::GlobalGeometry half(rig.partition.get(), {4, 4, 2, 1});
  lattice::GaugeField target(rig.comm.get(), &half);
  target.set_unit();
  const auto report = store.load(&target, "conf");
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("oversized"), std::string::npos);
}

TEST(ConfigStore, IoTimeScalesWithConfigurationSize) {
  StoreRig rig;
  ConfigStore store(&rig.m, &rig.daemon->ethernet());
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  const auto small_io = store.save(gauge, "small");

  lattice::GlobalGeometry big_geom(rig.partition.get(), {8, 8, 4, 4});
  lattice::GaugeField big(rig.comm.get(), &big_geom);
  big.set_unit();
  const auto big_io = store.save(big, "big");
  EXPECT_GT(big_io.bytes, small_io.bytes);
  EXPECT_GT(big_io.cycles, small_io.cycles);
  EXPECT_EQ(store.list().size(), 2u);
}

}  // namespace
}  // namespace qcdoc::host

namespace qcdoc::host {
namespace {

TEST(Qdaemon, RejectsBoxesThatDoNotTileTheMachine) {
  machine::Machine m(small_machine({4, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  torus::Shape bad;
  bad.extent = {3, 2, 1, 1, 1, 1};  // 3 does not divide 4
  EXPECT_FALSE(daemon.allocate_partition("bad", bad, 2).has_value());
  torus::Shape too_big;
  too_big.extent = {8, 2, 1, 1, 1, 1};  // larger than the machine
  EXPECT_FALSE(daemon.allocate_partition("big", too_big, 2).has_value());
}

TEST(Qdaemon, ReleaseIsIdempotentAndUnknownHandlesAreIgnored) {
  machine::Machine m(small_machine({2, 2, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  torus::Shape box;
  box.extent = {2, 2, 1, 1, 1, 1};
  const auto p = daemon.allocate_partition("p", box, 2);
  ASSERT_TRUE(p.has_value());
  daemon.release_partition(*p);
  daemon.release_partition(*p);  // double release: no crash, no effect
  EXPECT_EQ(daemon.free_nodes(), 4);
  PartitionHandle bogus;
  bogus.id = 999;
  daemon.release_partition(bogus);
  EXPECT_EQ(daemon.free_nodes(), 4);
}

TEST(Qdaemon, RunJobWithNullAppFailsCleanly) {
  machine::Machine m(small_machine({2, 1, 1, 1, 1, 1}));
  Qdaemon daemon(&m);
  daemon.boot();
  torus::Shape box;
  box.extent = {2, 1, 1, 1, 1, 1};
  const auto p = daemon.allocate_partition("p", box, 1);
  ASSERT_TRUE(p.has_value());
  const auto result = daemon.run_job(*p, nullptr);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace qcdoc::host
