#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "common/log.h"
#include "common/ring.h"
#include "common/rng.h"

namespace qcdoc {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, PerNodeStreamsAreIndependent) {
  Rng a(7, NodeId{0});
  Rng b(7, NodeId{1});
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, AdjacentNodeStreamsUncorrelatedInLowBits) {
  // Average parity agreement between adjacent nodes should be ~50%.
  int agree = 0;
  const int n = 2000;
  Rng a(123, NodeId{10});
  Rng b(123, NodeId{11});
  for (int i = 0; i < n; ++i) {
    if ((a.next_u64() & 1) == (b.next_u64() & 1)) ++agree;
  }
  EXPECT_GT(agree, n / 2 - 150);
  EXPECT_LT(agree, n / 2 + 150);
}

TEST(Rng, UniformDoublesInRange) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NextBelowIsBoundedAndCoversResidues) {
  Rng r(5);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = r.next_below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentChild) {
  Rng parent(99);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Log, SinkCapturesMessagesAtOrAboveLevel) {
  std::vector<std::string> captured;
  Log::set_sink([&](LogLevel, const std::string& m) { captured.push_back(m); });
  Log::set_level(LogLevel::kWarn);
  QCDOC_DEBUG << "hidden";
  QCDOC_WARN << "shown " << 42;
  Log::set_sink(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "shown 42");
}

TEST(Ring, MatchesDequeAcrossWrapAndGrowth) {
  // A random push/pop mix against std::deque, the container Ring replaces
  // on the link path: same FIFO order and indexing through every wrap of
  // the head and every doubling.
  Ring<u64> ring;
  std::deque<u64> ref;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    if (ref.empty() || rng.next_below(3) != 0) {
      const u64 v = rng.next_u64();
      ring.push_back(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(ring.front(), ref.front()) << i;
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      const std::size_t k = rng.next_below(ref.size());
      ASSERT_EQ(ring[k], ref[k]) << i;
    }
  }
}

TEST(Ring, KeepsItsCapacity) {
  Ring<int> bounded(3);  // rounded up to 4
  EXPECT_EQ(bounded.capacity(), 4u);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) bounded.push_back(round + i);
    EXPECT_EQ(bounded.front(), round);
    while (!bounded.empty()) bounded.pop_front();
  }
  EXPECT_EQ(bounded.capacity(), 4u);
  for (int i = 0; i < 9; ++i) bounded.push_back(i);
  EXPECT_EQ(bounded.capacity(), 16u);
  bounded.clear();
  EXPECT_TRUE(bounded.empty());
  EXPECT_EQ(bounded.capacity(), 16u);
}

}  // namespace
}  // namespace qcdoc
