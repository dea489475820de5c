#include <gtest/gtest.h>

#include "comms/comms.h"
#include "comms/global_sum.h"
#include "machine/bsp.h"

namespace qcdoc::comms {
namespace {

struct CommFixture {
  machine::Machine m;
  torus::Partition partition;
  Communicator comm;

  explicit CommFixture(std::array<int, 6> extents,
                       torus::FoldSpec fold = torus::FoldSpec::identity(4))
      : m([&] {
          machine::MachineConfig cfg;
          cfg.shape.extent = extents;
          return cfg;
        }()),
        partition(torus::Partition::whole_machine(m.topology(), fold)),
        comm(&m, &partition) {
    m.power_on();
  }
};

TEST(Communicator, ShiftMovesDataAroundARing) {
  CommFixture f({4, 1, 1, 1, 1, 1}, torus::FoldSpec::identity(1));
  const int n = f.comm.num_nodes();
  std::vector<scu::DmaDescriptor> sends(static_cast<std::size_t>(n));
  std::vector<scu::DmaDescriptor> recvs(static_cast<std::size_t>(n));
  std::vector<memsys::Block> src(static_cast<std::size_t>(n));
  std::vector<memsys::Block> dst(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& mem = f.m.memory(f.comm.node_of_rank(r));
    src[static_cast<std::size_t>(r)] = mem.alloc(8, "src");
    dst[static_cast<std::size_t>(r)] = mem.alloc(8, "dst");
    sends[static_cast<std::size_t>(r)] = scu::DmaDescriptor{
        src[static_cast<std::size_t>(r)].word_addr, 8, 1, 0};
    recvs[static_cast<std::size_t>(r)] = scu::DmaDescriptor{
        dst[static_cast<std::size_t>(r)].word_addr, 8, 1, 0};
  }
  // The same shift re-runs over the same links with fresh words each
  // round, as a halo exchange does every solver iteration.
  for (u64 round = 0; round < 5; ++round) {
    for (int r = 0; r < n; ++r) {
      auto& mem = f.m.memory(f.comm.node_of_rank(r));
      for (u64 i = 0; i < 8; ++i) {
        mem.write_word(src[static_cast<std::size_t>(r)].word_addr + i,
                       round * 1000 + static_cast<u64>(r) * 100 + i);
      }
    }
    f.comm.post_shift(0, torus::Dir::kPlus, sends, recvs);
    ASSERT_TRUE(f.m.mesh().drain());
    // Rank r's data landed at rank r+1.
    for (int r = 0; r < n; ++r) {
      const int from = (r - 1 + n) % n;
      auto& mem = f.m.memory(f.comm.node_of_rank(r));
      for (u64 i = 0; i < 8; ++i) {
        EXPECT_EQ(
            mem.read_word(dst[static_cast<std::size_t>(r)].word_addr + i),
            round * 1000 + static_cast<u64>(from) * 100 + i)
            << "round " << round;
      }
    }
  }
  EXPECT_TRUE(f.m.mesh().verify_link_checksums());
}

TEST(Communicator, GlobalSumMatchesDirectSum) {
  CommFixture f({2, 2, 2, 2, 1, 1});
  std::vector<double> values;
  Rng rng(31);
  for (int r = 0; r < f.comm.num_nodes(); ++r) {
    values.push_back(rng.next_gaussian());
  }
  const auto result = f.comm.global_sum(values);
  const double direct = partition_global_sum(f.partition, values);
  EXPECT_EQ(result.value, direct);  // bitwise: canonical order
  EXPECT_GT(result.cycles, 0u);
}

TEST(Communicator, GlobalSumIsBitReproducible) {
  CommFixture f({2, 2, 2, 2, 1, 1});
  std::vector<double> values;
  Rng rng(32);
  for (int r = 0; r < f.comm.num_nodes(); ++r) {
    values.push_back(rng.next_gaussian() * 1e-3);
  }
  const double a = f.comm.global_sum(values).value;
  const double b = f.comm.global_sum(values).value;
  EXPECT_EQ(a, b);
}

TEST(Communicator, DoubledGlobalModeIsFaster) {
  CommFixture f({8, 2, 2, 2, 1, 1});
  std::vector<double> values(static_cast<std::size_t>(f.comm.num_nodes()), 1.0);
  const auto doubled = f.comm.global_sum(values, true);
  const auto single = f.comm.global_sum(values, false);
  EXPECT_LT(doubled.cycles, single.cycles);
  EXPECT_DOUBLE_EQ(doubled.value, single.value);
}

TEST(GlobalSum, DimensionWiseTimingMatchesRingModel) {
  CommFixture f({4, 4, 1, 1, 1, 1});
  const scu::GlobalOpTiming t;
  const Cycle cycles = partition_global_sum_cycles(f.partition, t, true);
  // Two dimensions of extent 4 plus two trivial ones.
  std::vector<double> ring(4, 0.0);
  const Cycle one_ring = scu::ring_allreduce(t, ring, true).completion_cycles;
  EXPECT_EQ(cycles, 2 * one_ring);
}

TEST(GlobalSum, MultiWordSumsPipelinedNotRepeated) {
  CommFixture f({4, 4, 1, 1, 1, 1});
  const scu::GlobalOpTiming t;
  const Cycle one = partition_global_sum_cycles(f.partition, t, true, 1);
  const Cycle four = partition_global_sum_cycles(f.partition, t, true, 4);
  EXPECT_GT(four, one);
  EXPECT_LT(four, 4 * one);  // pipelining beats four separate sums
}

}  // namespace
}  // namespace qcdoc::comms
