#include <gtest/gtest.h>

#include <map>

#include "cpu/timing.h"
#include "host/qdaemon.h"
#include "machine/bsp.h"
#include "machine/cost.h"
#include "machine/machine.h"
#include "machine/packaging.h"
#include "machine/qcdsp.h"
#include "net/cluster_net.h"

namespace qcdoc::machine {
namespace {

TEST(Packaging, PaperCounts4096NodeMachine) {
  // Section 4: 2048 daughterboards, 64 motherboards, 4 cabinets, 768 cables.
  const auto plan = plan_for_nodes(4096, 1e9);
  EXPECT_EQ(plan.daughterboards, 2048);
  EXPECT_EQ(plan.motherboards, 64);
  EXPECT_EQ(plan.crates, 8);
  EXPECT_EQ(plan.racks, 4);
  EXPECT_EQ(plan.cables, 768);
  EXPECT_NEAR(plan.peak_flops / 1e12, 4.096, 1e-9);
}

TEST(Packaging, RackIsOneTeraflopsUnderTenKilowatts) {
  // Section 2.4: a water-cooled rack of 1024 nodes gives 1.0 Tflops peak
  // and consumes less than 10,000 watts.
  const auto plan = plan_for_nodes(1024, 1e9);
  EXPECT_EQ(plan.racks, 1);
  EXPECT_NEAR(plan.peak_flops / 1e12, 1.024, 1e-9);
  EXPECT_LT(plan.power_watts, 10000.0);
}

TEST(Packaging, TenThousandNodesInSixtySquareFeet) {
  const auto plan = plan_for_nodes(10240, 1e9);
  EXPECT_NEAR(plan.footprint_sqft, 60.0, 5.0);
}

TEST(Packaging, TwelveK288MachineIsTenTeraflops) {
  const auto plan = plan_for_nodes(12288, 420e6 * cpu::kFlopsPerCycle);
  EXPECT_GT(plan.peak_flops / 1e12, 10.0);  // "10+ Teraflops"
}

TEST(PaperConstants, DerivedQuantitiesMatchPaper) {
  const double clock_hz = MachineConfig{}.clock_hz;  // 500 MHz design point
  EXPECT_DOUBLE_EQ(clock_hz * cpu::kFlopsPerCycle, 1e9);  // 1 Gflops/node
  const double packet_efficiency =
      static_cast<double>(scu::kWordBits) / scu::kWordFrameBits;
  EXPECT_NEAR(packet_efficiency, 8.0 / 9.0, 1e-12);
  // 24 links x 500 Mbit/s x 8/9 = 1.333 GB/s (paper: "1.3 GBytes/second").
  const double link_raw_Bps = clock_hz / 8.0;  // one bit per cycle
  EXPECT_NEAR(2.0 * torus::kLinksPerNode * link_raw_Bps * packet_efficiency /
                  1e9,
              1.333, 0.01);
  // 128-bit words to the data cache every cycle: 8 GB/s.
  EXPECT_NEAR(memsys::kEdramBytesPerCycle * clock_hz / 1e9, 8.0, 1e-9);
}

TEST(PackageMap, MotherboardIs64NodeHypercube) {
  torus::Shape shape;
  shape.extent = {8, 4, 4, 2, 2, 2};
  const torus::Torus t(shape);
  const PackageMap map(t);
  EXPECT_EQ(map.motherboards(), 16);  // 1024 / 64
  // Count nodes on motherboard 0.
  int on_mb0 = 0;
  for (int n = 0; n < t.num_nodes(); ++n) {
    if (map.locate(NodeId{static_cast<u32>(n)}).motherboard == 0) ++on_mb0;
  }
  EXPECT_EQ(on_mb0, 64);
  // Nodes on the same motherboard differ only in the low bit of each dim.
  const auto loc0 = map.locate(NodeId{0});
  EXPECT_EQ(loc0.motherboard, 0);
  EXPECT_EQ(loc0.crate, 0);
  EXPECT_EQ(loc0.rack, 0);
}

TEST(PackageMap, DaughterboardsPairTwoNodes) {
  torus::Shape shape;
  shape.extent = {4, 4, 2, 2, 1, 1};
  const torus::Torus t(shape);
  const PackageMap map(t);
  // Every (motherboard, daughterboard) slot must hold exactly 2 nodes.
  std::map<std::pair<int, int>, int> slot_count;
  for (int n = 0; n < t.num_nodes(); ++n) {
    const auto loc = map.locate(NodeId{static_cast<u32>(n)});
    slot_count[{loc.motherboard, loc.daughterboard}]++;
  }
  for (const auto& [slot, count] : slot_count) EXPECT_EQ(count, 2);
}

TEST(Cost, Reproduces4096NodeMachineCost) {
  // Section 4: $1,610,442 parts, $1,709,601 with prorated R&D.
  const CostModel cost;
  const auto plan = plan_for_nodes(4096, 1e9);
  EXPECT_NEAR(cost.parts_cost(plan), 1610442.0, 1500.0);
  EXPECT_NEAR(cost.total_cost(plan), 1709601.0, 1500.0);
}

TEST(Cost, PricePerMflopsAtPaperClockSpeeds) {
  // Section 4: $1.29 at 360 MHz, $1.10 at 420 MHz, $1.03 at 450 MHz, all
  // at 45% sustained efficiency on the 4096-node machine.
  const CostModel cost;
  const auto plan = plan_for_nodes(4096, 1e9);
  EXPECT_NEAR(cost.usd_per_sustained_mflops(plan, 360e6, 0.45), 1.29, 0.01);
  EXPECT_NEAR(cost.usd_per_sustained_mflops(plan, 420e6, 0.45), 1.10, 0.01);
  EXPECT_NEAR(cost.usd_per_sustained_mflops(plan, 450e6, 0.45), 1.03, 0.01);
}

TEST(Cost, VolumeDiscountApproachesDollarTarget) {
  // "For the full size 12,288 machines, the cost per node will be reduced
  // ... very close to our targeted $1 per sustained Megaflops."
  const CostModel cost;
  const auto plan = plan_for_nodes(12288, 1e9);
  const double usd = cost.usd_per_sustained_mflops(plan, 450e6, 0.45);
  EXPECT_LT(usd, 1.05);
  EXPECT_GT(usd, 0.85);
}

TEST(Machine, BuildsAndTrains) {
  MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 1, 1, 1};
  Machine m(cfg);
  EXPECT_EQ(m.num_nodes(), 8);
  const Cycle training = m.power_on();
  EXPECT_GT(training, 0u);
  EXPECT_TRUE(m.mesh().all_trained());
}

TEST(Machine, ClockScalingAffectsDdrCyclesPerByte) {
  MachineConfig slow_cfg;
  slow_cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  slow_cfg.clock_hz = 360e6;
  Machine slow(slow_cfg);
  MachineConfig fast_cfg = slow_cfg;
  fast_cfg.clock_hz = 500e6;
  Machine fast(fast_cfg);
  // DDR is a fixed-frequency part: at a faster core clock it delivers
  // fewer bytes per cycle.
  EXPECT_GT(slow.mem_timing().ddr_bytes_per_cycle,
            fast.mem_timing().ddr_bytes_per_cycle);
  // EDRAM scales with the clock: same cycles for the same bytes.
  EXPECT_DOUBLE_EQ(
      slow.mem_timing().stream_cycles(memsys::Region::kEdram, 4096, 2),
      fast.mem_timing().stream_cycles(memsys::Region::kEdram, 4096, 2));
}

TEST(Machine, ClockReachesEthernetAndClusterNetCycles) {
  // Seconds for one host-to-node packet through the qdaemon's Ethernet tree
  // and for one commodity-cluster message, read back from cycles.
  struct Cost {
    double packet_s;
    double message_s;
  };
  auto cost = [](double clock_hz) {
    MachineConfig cfg;
    cfg.shape.extent = {2, 1, 1, 1, 1, 1};
    cfg.clock_hz = clock_hz;
    Machine m(cfg);
    host::Qdaemon daemon(&m);
    const Cycle start = m.engine().now();
    Cycle delivered = 0;
    daemon.ethernet().host_to_node(NodeId{1}, 1024, net::EthKind::kUdp,
                                   [&] { delivered = m.engine().now(); });
    m.engine().run_until_idle();
    const net::ClusterNet cluster(m.config().clock_hz);
    return Cost{m.seconds(delivered - start),
                m.seconds(cluster.message_cycles(1024))};
  };
  const Cost slow = cost(360e6);
  const Cost fast = cost(500e6);
  EXPECT_GT(slow.packet_s, 85e-6);  // 1070 bytes at 100 Mbit take 85.6 us
  // Both clocks cost the same seconds, so cycles go as the clock.  A packet
  // rounds four conversions (two links, two hub hops) to a whole cycle, a
  // message one.
  const double cycle_360 = 1.0 / 360e6;
  EXPECT_NEAR(slow.packet_s, fast.packet_s, 4 * cycle_360);
  EXPECT_NEAR(slow.message_s, fast.message_s, cycle_360);
}

TEST(Bsp, AccountsPhases) {
  MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  Machine m(cfg);
  m.power_on();
  BspRunner bsp(&m);
  const Cycle t0 = bsp.now();
  bsp.compute(1000);
  EXPECT_EQ(bsp.now(), t0 + 1000);
  bsp.global_op(500);
  EXPECT_EQ(bsp.now(), t0 + 1500);
  EXPECT_DOUBLE_EQ(bsp.compute_cycles(), 1000.0);
  EXPECT_DOUBLE_EQ(bsp.global_cycles(), 500.0);
}

TEST(Bsp, OverlapHidesCommunicationUnderCompute) {
  MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  Machine m(cfg);
  m.power_on();
  BspRunner bsp(&m);

  auto src = m.memory(NodeId{0}).alloc(8, "src");
  auto dst = m.memory(NodeId{1}).alloc(8, "dst");
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const Cycle t0 = bsp.now();
  bsp.overlap(100000, [&] {
    m.scu(NodeId{1})
        .recv_dma(torus::facing_link(link))
        .start(scu::DmaDescriptor{dst.word_addr, 8, 1, 0});
    m.scu(NodeId{0}).send_dma(link).start(
        scu::DmaDescriptor{src.word_addr, 8, 1, 0});
  });
  // 8 words is far cheaper than 100k cycles of compute: fully hidden.
  EXPECT_EQ(bsp.now() - t0, 100000u);
  EXPECT_DOUBLE_EQ(bsp.comm_cycles(), 0.0);
  EXPECT_GT(bsp.overlap_hidden_cycles(), 0.0);
}

}  // namespace
}  // namespace qcdoc::machine

namespace qcdoc::machine {
namespace {

TEST(Qcdsp, PublishedFiguresAndGenerationalGain) {
  const QcdspModel qcdsp;
  // 12,288 DSP nodes at 50 Mflops ~ 0.6 Tflops peak (the "1 Teraflops with
  // 20,000 nodes" scale).
  EXPECT_NEAR(qcdsp.rbrc_peak_tflops(), 0.61, 0.01);
  EXPECT_EQ(qcdsp.mesh_dims, 4);
  const CostModel cost;
  const auto plan = plan_for_nodes(4096, 1e9);
  // "a price performance of $10/sustained Megaflops" vs QCDOC's ~$1: the
  // generational improvement the paper is named for.
  const double gain = qcdsp.qcdoc_improvement(cost, plan, 450e6, 0.45);
  EXPECT_GT(gain, 9.0);
  EXPECT_LT(gain, 11.0);
}

}  // namespace
}  // namespace qcdoc::machine
