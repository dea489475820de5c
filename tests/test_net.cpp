#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>

#include "net/cluster_net.h"
#include "net/ethernet.h"
#include "net/mesh_net.h"

namespace qcdoc::net {
namespace {

MeshConfig small_mesh(std::array<int, 6> extents) {
  MeshConfig cfg;
  cfg.shape.extent = extents;
  cfg.hssl.training_cycles = 32;
  return cfg;
}

TEST(MeshNet, AllLinksTrainAfterPowerOn) {
  const MeshConfig cfg = small_mesh({2, 2, 2, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  EXPECT_FALSE(mesh.all_trained());
  mesh.power_on();
  engine.run_until_idle();
  EXPECT_TRUE(mesh.all_trained());
  EXPECT_EQ(mesh.total_stat("hssl.trained"), 8u * 12u);
}

TEST(MeshNet, SupervisorPacketCrossesTheMesh) {
  const MeshConfig cfg = small_mesh({2, 2, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();

  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId b = mesh.topology().neighbor(a, link);
  u64 received = 0;
  torus::LinkIndex recv_link{-1};
  mesh.scu(b).set_supervisor_handler(
      [&](torus::LinkIndex l, u64 w) {
        received = w;
        recv_link = l;
      });
  mesh.scu(a).send_supervisor(link, 0x1234abcdull);
  engine.run_until_idle();
  EXPECT_EQ(received, 0x1234abcdull);
  EXPECT_EQ(recv_link, torus::facing_link(link));
}

TEST(MeshNet, DmaBetweenNeighborsThroughTheTorus) {
  const MeshConfig cfg = small_mesh({4, 2, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();

  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId b = mesh.topology().neighbor(a, link);
  auto src = mesh.memory(a).alloc(64, "src");
  auto dst = mesh.memory(b).alloc(64, "dst");
  for (u64 i = 0; i < 64; ++i) mesh.memory(a).write_word(src.word_addr + i, i);

  mesh.scu(b).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, 64, 1, 0});
  mesh.scu(a).send_dma(link).start(scu::DmaDescriptor{src.word_addr, 64, 1, 0});
  EXPECT_TRUE(mesh.drain());
  for (u64 i = 0; i < 64; ++i) {
    EXPECT_EQ(mesh.memory(b).read_word(dst.word_addr + i), i);
  }
  EXPECT_TRUE(mesh.verify_link_checksums());
}

TEST(MeshNet, ChecksumVerificationDetectsTampering) {
  const MeshConfig cfg = small_mesh({2, 1, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();
  // Data that never went over a wire: fake a mismatch by sending on one
  // side only with a receiver that ignores words is impossible by
  // construction; instead inject undetectable corruption via a high error
  // rate wire and heavy traffic.
  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  mesh.wire(a, link).set_bit_error_rate(0.02);
  const NodeId b = mesh.topology().neighbor(a, link);
  auto src = mesh.memory(a).alloc(512, "src");
  auto dst = mesh.memory(b).alloc(512, "dst");
  Rng rng(9);
  for (u64 i = 0; i < 512; ++i) {
    mesh.memory(a).write_word(src.word_addr + i, rng.next_u64());
  }
  mesh.scu(b).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, 512, 1, 0});
  mesh.scu(a).send_dma(link).start(
      scu::DmaDescriptor{src.word_addr, 512, 1, 0});
  EXPECT_TRUE(mesh.drain());
  const u64 undetected = mesh.total_stat("scu.undetected_errors");
  std::vector<std::string> mismatches;
  const bool ok = mesh.verify_link_checksums(&mismatches);
  if (undetected > 0) {
    EXPECT_FALSE(ok);
    EXPECT_FALSE(mismatches.empty());
  } else {
    EXPECT_TRUE(ok);
  }
  // Either way the protocol recovered *detected* errors.
  EXPECT_GT(mesh.total_stat("scu.detected_errors"), 0u);
}

TEST(MeshNet, TotalStatSumsEveryLinksCounterAndRejectsUnknownNames) {
  const MeshConfig cfg = small_mesh({2, 1, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();
  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  mesh.wire(a, link).set_bit_error_rate(0.02);
  const NodeId b = mesh.topology().neighbor(a, link);
  auto src = mesh.memory(a).alloc(512, "src");
  auto dst = mesh.memory(b).alloc(512, "dst");
  Rng rng(9);
  for (u64 i = 0; i < 512; ++i) {
    mesh.memory(a).write_word(src.word_addr + i, rng.next_u64());
  }
  mesh.scu(b).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, 512, 1, 0});
  mesh.scu(a).send_dma(link).start(
      scu::DmaDescriptor{src.word_addr, 512, 1, 0});
  EXPECT_TRUE(mesh.drain());

  // Each name reads one typed accessor, summed over every directed link.
  using Read = std::function<u64(NodeId, torus::LinkIndex)>;
  const auto wire = [&](u64 (hssl::Hssl::*get)() const) -> Read {
    return [&mesh, get](NodeId n, torus::LinkIndex l) {
      return (mesh.wire(n, l).*get)();
    };
  };
  const auto send = [&](u64 (scu::SendSide::*get)() const) -> Read {
    return [&mesh, get](NodeId n, torus::LinkIndex l) {
      return (mesh.scu(n).send_side(l).*get)();
    };
  };
  const auto recv = [&](u64 (scu::RecvSide::*get)() const) -> Read {
    return [&mesh, get](NodeId n, torus::LinkIndex l) {
      return (mesh.scu(n).recv_side(l).*get)();
    };
  };
  const std::pair<const char*, Read> counters[] = {
      {"hssl.frames", wire(&hssl::Hssl::frames)},
      {"hssl.bits", wire(&hssl::Hssl::bits)},
      {"hssl.bits_flipped", wire(&hssl::Hssl::bits_flipped)},
      {"hssl.trained", wire(&hssl::Hssl::times_trained)},
      {"hssl.retrains", wire(&hssl::Hssl::retrains)},
      {"scu.data_received", recv(&scu::RecvSide::words_received)},
      {"scu.acks", send(&scu::SendSide::acks)},
      {"scu.nack_resends", send(&scu::SendSide::nack_resends)},
      {"scu.timeout_resends", send(&scu::SendSide::timeout_resends)},
      {"scu.sup_resends", send(&scu::SendSide::sup_resends)},
      {"scu.detected_errors", recv(&scu::RecvSide::detected_errors)},
      {"scu.undetected_errors", recv(&scu::RecvSide::undetected_errors)},
      {"scu.pirq_received", recv(&scu::RecvSide::pirq_received)},
  };
  for (const auto& [name, read] : counters) {
    u64 sum = 0;
    for (int i = 0; i < mesh.num_nodes(); ++i) {
      for (int l = 0; l < torus::kLinksPerNode; ++l) {
        sum += read(NodeId{static_cast<u32>(i)}, torus::LinkIndex{l});
      }
    }
    EXPECT_EQ(mesh.total_stat(name), sum) << name;
  }
  for (const char* name : {"hssl.frames", "hssl.bits", "hssl.bits_flipped",
                           "scu.detected_errors"}) {
    EXPECT_GT(mesh.total_stat(name), 0u) << name;
  }
  EXPECT_GT(mesh.total_stat("scu.nack_resends") +
                mesh.total_stat("scu.timeout_resends"),
            0u);
  EXPECT_THROW((void)mesh.total_stat("scu.no_such_counter"),
               std::invalid_argument);
}

TEST(MeshNet, PartitionInterruptFloodsWholeMachine) {
  auto cfg = small_mesh({2, 2, 2, 2, 1, 1});
  cfg.pirq_window_cycles = 4096;
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();

  int nodes_interrupted = 0;
  u8 seen_mask = 0;
  mesh.pirq().set_interrupt_handler([&](NodeId, u8 mask) {
    ++nodes_interrupted;
    seen_mask |= mask;
  });
  mesh.pirq().raise(NodeId{5}, 0x3);
  engine.run_until_idle();
  EXPECT_EQ(nodes_interrupted, 16);
  EXPECT_EQ(seen_mask, 0x3);
}

TEST(MeshNet, PartitionInterruptDeliveredWithinWindows) {
  auto cfg = small_mesh({2, 2, 2, 1, 1, 1});
  cfg.pirq_window_cycles = 8192;
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();
  const Cycle raised_at = engine.now();
  Cycle delivered_at = 0;
  int count = 0;
  mesh.pirq().set_interrupt_handler([&](NodeId, u8) {
    delivered_at = engine.now();
    ++count;
  });
  mesh.pirq().raise(NodeId{0}, 0x1);
  engine.run_until_idle();
  EXPECT_EQ(count, 8);
  // Sampling happens at a window boundary within two windows of the raise.
  EXPECT_LE(delivered_at - raised_at, 2 * cfg.pirq_window_cycles);
  EXPECT_EQ(delivered_at % cfg.pirq_window_cycles, 0u);
}

TEST(EthernetTree, PacketDeliveryAndAccounting) {
  sim::Engine engine;
  EthernetTree eth(&engine, 500e6, EthernetConfig{}, 4);
  int delivered = 0;
  for (int n = 0; n < 4; ++n) {
    eth.host_to_node(NodeId{static_cast<u32>(n)}, 1024, EthKind::kJtag,
                     [&] { ++delivered; });
  }
  engine.run_until_idle();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(eth.jtag_packets(), 4u);
  // 1070-byte frames at 100 Mbit take ~85.6 us of node-link serialization.
  EXPECT_GT(engine.now(), 0u);
}

TEST(EthernetTree, HostLinkIsSharedNodeLinksAreNot) {
  sim::Engine engine;
  EthernetConfig cfg;
  cfg.host_links = 1;
  EthernetTree eth(&engine, 500e6, cfg, 2);
  Cycle t0 = 0, t1 = 0;
  eth.host_to_node(NodeId{0}, 1024, EthKind::kUdp,
                   [&] { t0 = engine.now(); });
  eth.host_to_node(NodeId{1}, 1024, EthKind::kUdp,
                   [&] { t1 = engine.now(); });
  engine.run_until_idle();
  // The second packet serializes behind the first on the shared host link,
  // but its node link is independent: skew is one host-link serialization.
  EXPECT_GT(t1, t0);
  EXPECT_LT(t1 - t0, t0);
}

TEST(ClusterNet, MatchesPaperLatencyBand) {
  const double clock_hz = 500e6;
  const ClusterNet net(clock_hz);
  // "5-10 us just to begin a transfer": a minimal message costs at least
  // the start latency.
  const double us =
      static_cast<double>(net.message_cycles(8)) / clock_hz * 1e6;
  EXPECT_GE(us, 5.0);
  EXPECT_LE(us, 10.5);
}

TEST(ClusterNet, HaloExchangeSerializesStartups) {
  const ClusterNet net(500e6);
  const auto one = net.halo_exchange_cycles(1, 4096);
  const auto eight = net.halo_exchange_cycles(8, 4096);
  EXPECT_GT(eight, 7 * one);  // startups dominate small transfers
}

TEST(ClusterNet, AllreduceScalesLogarithmically) {
  const ClusterNet net(500e6);
  const auto small = net.allreduce_cycles(16, 1);
  const auto large = net.allreduce_cycles(256, 1);
  EXPECT_EQ(large, 2 * small);  // log2: 4 levels -> 8 levels
}

}  // namespace
}  // namespace qcdoc::net

namespace qcdoc::net {
namespace {

/// The oracle for quiescent()'s O(1) counter: every SCU's per-link scan.
bool every_scu_quiescent(MeshNet& mesh) {
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (!mesh.scu(NodeId{static_cast<u32>(n)}).quiescent()) return false;
  }
  return true;
}

TEST(MeshNet, QuiescenceCounterMatchesExhaustiveScan) {
  const MeshConfig cfg = small_mesh({2, 2, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();
  EXPECT_TRUE(mesh.quiescent());
  EXPECT_TRUE(every_scu_quiescent(mesh));

  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId b = mesh.topology().neighbor(a, link);
  auto src = mesh.memory(a).alloc(32, "src");
  auto dst = mesh.memory(b).alloc(32, "dst");
  mesh.scu(b).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, 32, 1, 0});
  mesh.scu(a).send_dma(link).start(scu::DmaDescriptor{src.word_addr, 32, 1, 0});
  // The O(1) counter and the exhaustive scan must agree at every event.
  while (!mesh.quiescent()) {
    ASSERT_EQ(mesh.quiescent(), every_scu_quiescent(mesh));
    ASSERT_TRUE(engine.step());
  }
  EXPECT_TRUE(every_scu_quiescent(mesh));
}

TEST(MeshNet, UntrainedCountTracksEveryWireStateChange) {
  const MeshConfig cfg = small_mesh({2, 2, 1, 1, 1, 1});
  const long wires = 4 * torus::kLinksPerNode;
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  // all_trained() reads the count; untrained_links() scans the wires.
  auto expect_count = [&](long n, const char* step) {
    EXPECT_EQ(mesh.untrained_count(), n) << step;
    EXPECT_EQ(mesh.untrained_count(),
              static_cast<long>(mesh.untrained_links().size()))
        << step;
    EXPECT_EQ(mesh.all_trained(), n == 0) << step;
  };
  expect_count(wires, "construction");
  mesh.power_on();
  expect_count(wires, "power-on, training");
  engine.run_until_idle();
  expect_count(0, "trained");

  hssl::Hssl& w = mesh.wire(NodeId{1}, torus::LinkIndex{3});
  w.fail();
  expect_count(1, "fail() of a trained wire");
  w.fail();
  expect_count(1, "fail() of an already-failed wire");
  w.retrain();
  ASSERT_EQ(w.state(), hssl::LinkState::kTraining);
  expect_count(1, "retrain() of a failed wire");
  w.retrain();
  expect_count(1, "retrain() mid-training");
  engine.run_until_idle();
  expect_count(0, "retrained");
  w.retrain();
  expect_count(1, "retrain() of a trained wire");
  engine.run_until_idle();
  expect_count(0, "retrained again");

  // A wire that fails before power-on never trains.
  sim::Engine cold_engine({.num_nodes = cfg.shape.volume()});
  MeshNet cold(&cold_engine, cfg);
  cold.wire(NodeId{2}, torus::LinkIndex{0}).fail();
  EXPECT_EQ(cold.untrained_count(), wires) << "fail() of a down wire";
  EXPECT_EQ(cold.untrained_links().size(), static_cast<std::size_t>(wires));
  cold.power_on();
  cold_engine.run_until_idle();
  EXPECT_EQ(cold.untrained_count(), 1);
  EXPECT_EQ(cold.untrained_links().size(), 1u);
}

TEST(Dma, ZeroWordDescriptorIsRejectedAndTheLinkStaysUsable) {
  // A zero-word transfer could never drain or land: it must be refused
  // before it marks an engine active, or drain() would report a stall.
  const MeshConfig cfg = small_mesh({2, 1, 1, 1, 1, 1});
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();

  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId b = mesh.topology().neighbor(a, link);
  auto& send = mesh.scu(a).send_dma(link);
  auto& recv = mesh.scu(b).recv_dma(torus::facing_link(link));
  auto src = mesh.memory(a).alloc(16, "src");
  auto dst = mesh.memory(b).alloc(16, "dst");
  EXPECT_THROW(recv.start(scu::DmaDescriptor{dst.word_addr, 0, 1, 0}),
               std::invalid_argument);
  EXPECT_THROW(send.start(scu::DmaDescriptor{src.word_addr, 16, 0, 0}),
               std::invalid_argument);
  EXPECT_FALSE(send.active());
  EXPECT_FALSE(recv.active());
  EXPECT_EQ(send.transfers_started(), 0u);
  EXPECT_TRUE(mesh.quiescent());
  EXPECT_TRUE(
      mesh.scu(b).recv_side(torus::facing_link(link)).in_idle_receive());

  for (u64 i = 0; i < 16; ++i) {
    mesh.memory(a).write_word(src.word_addr + i, i + 1);
  }
  recv.start(scu::DmaDescriptor{dst.word_addr, 16, 1, 0});
  send.start(scu::DmaDescriptor{src.word_addr, 16, 1, 0});
  EXPECT_TRUE(mesh.drain());
  for (u64 i = 0; i < 16; ++i) {
    EXPECT_EQ(mesh.memory(b).read_word(dst.word_addr + i), i + 1);
  }
}

// Property sweep: the protocol must deliver correct data (or flag the run
// via checksums) across a wide range of injected error rates.
class ErrorRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErrorRateSweep, DataIntegrityOrChecksumMismatch) {
  const double ber = GetParam();
  auto cfg = small_mesh({2, 1, 1, 1, 1, 1});
  cfg.hssl.bit_error_rate = ber;
  sim::Engine engine({.num_nodes = cfg.shape.volume()});
  MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();

  const NodeId a{0};
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId b = mesh.topology().neighbor(a, link);
  const u64 n = 256;
  auto src = mesh.memory(a).alloc(n, "src");
  auto dst = mesh.memory(b).alloc(n, "dst");
  Rng rng(123);
  for (u64 i = 0; i < n; ++i) {
    mesh.memory(a).write_word(src.word_addr + i, rng.next_u64());
  }
  mesh.scu(b).recv_dma(torus::facing_link(link))
      .start(scu::DmaDescriptor{dst.word_addr, static_cast<u32>(n), 1, 0});
  mesh.scu(a).send_dma(link).start(
      scu::DmaDescriptor{src.word_addr, static_cast<u32>(n), 1, 0});
  ASSERT_TRUE(mesh.drain());

  bool data_ok = true;
  for (u64 i = 0; i < n; ++i) {
    if (mesh.memory(b).read_word(dst.word_addr + i) !=
        mesh.memory(a).read_word(src.word_addr + i)) {
      data_ok = false;
      break;
    }
  }
  const bool checksums_ok = mesh.verify_link_checksums();
  // The machine guarantee: either the data arrived intact, or the
  // end-of-run checksum comparison flags the corruption.
  if (!data_ok) {
    EXPECT_FALSE(checksums_ok);
  }
  if (checksums_ok &&
      mesh.total_stat("scu.undetected_errors") == 0) {
    EXPECT_TRUE(data_ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ErrorRateSweep,
                         ::testing::Values(0.0, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3));

}  // namespace
}  // namespace qcdoc::net
