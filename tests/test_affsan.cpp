// AFFSAN, the affinity-ownership sanitizer (DESIGN.md section 6).
//
// The kill tests prove the sanitizer actually fires: a deliberately injected
// cross-affinity write -- a node-0 event mutating node 1's wire without a
// declared touched set -- must trap with AffinityViolation at 1, 2 and 4
// engine threads (with workers, the trap is thrown on a worker and rethrown
// at the window barrier).  Without
// QCDOC_AFFSAN the same access must pass silently: the macros compile away.
#include <gtest/gtest.h>

#include <stdexcept>

#include "machine/machine.h"
#include "net/mesh_net.h"
#include "sim/affinity_guard.h"
#include "torus/coords.h"

namespace qcdoc {
namespace {

using sim::affsan::ScopedTouch;

machine::MachineConfig two_node_config(int threads) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  cfg.sim_threads = threads;
  return cfg;
}

// --- Registry unit tests (no machine required) -----------------------------

TEST(AffSanRegistry, OwnerLookupCoversTheRegionAndNothingElse) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  char buf[64];
  const std::size_t before = sim::affsan::region_count();
  sim::affsan::own(buf, sizeof(buf), 3, "test-region");
  EXPECT_EQ(sim::affsan::region_count(), before + 1);

  sim::Affinity owner = 0;
  ASSERT_TRUE(sim::affsan::owner_of(buf, &owner));
  EXPECT_EQ(owner, 3u);
  ASSERT_TRUE(sim::affsan::owner_of(buf + sizeof(buf) - 1, &owner));
  EXPECT_FALSE(sim::affsan::owner_of(buf + sizeof(buf), &owner));

  sim::affsan::disown(buf);
  EXPECT_EQ(sim::affsan::region_count(), before);
  EXPECT_FALSE(sim::affsan::owner_of(buf, &owner));
}

TEST(AffSanRegistry, CheckPassesOutsideEventsAndForTheOwner) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  char buf[16];
  sim::affsan::own(buf, sizeof(buf), 2, "test-region");

  // No event context on this thread: host driver code may touch anything.
  EXPECT_NO_THROW(sim::affsan::check(buf, __FILE__, __LINE__));

  const int dummy_engine = 0;
  {
    // An event on the owning affinity passes...
    const sim::detail::ScopedExecCtx ctx(&dummy_engine, 100, 2);
    EXPECT_NO_THROW(sim::affsan::check(buf, __FILE__, __LINE__));
  }
  {
    // ...another affinity traps...
    const sim::detail::ScopedExecCtx ctx(&dummy_engine, 100, 1);
    EXPECT_THROW(sim::affsan::check(buf, __FILE__, __LINE__),
                 sim::AffinityViolation);
    // ...unless a touched-set scope covers the owner (exactly it, or all).
    {
      const ScopedTouch touch(2);
      EXPECT_NO_THROW(sim::affsan::check(buf, __FILE__, __LINE__));
    }
    {
      const ScopedTouch touch(5);  // wrong affinity: still a trap
      EXPECT_THROW(sim::affsan::check(buf, __FILE__, __LINE__),
                   sim::AffinityViolation);
    }
    {
      const ScopedTouch touch_all;
      EXPECT_NO_THROW(sim::affsan::check(buf, __FILE__, __LINE__));
    }
    EXPECT_THROW(sim::affsan::check(buf, __FILE__, __LINE__),
                 sim::AffinityViolation);
  }
  sim::affsan::disown(buf);
}

TEST(AffSanRegistry, ViolationReportCarriesProvenance) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  char buf[16];
  sim::affsan::own(buf, sizeof(buf), 4, "scu::Scu");
  const int dummy_engine = 0;
  const sim::detail::ScopedExecCtx ctx(&dummy_engine, /*now=*/1234,
                                       /*affinity=*/7, /*src=*/
                                       sim::kHostAffinity, /*seq=*/42);
  try {
    sim::affsan::check(buf, "some_file.cpp", 99);
    FAIL() << "expected AffinityViolation";
  } catch (const sim::AffinityViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scu::Scu"), std::string::npos) << what;
    EXPECT_NE(what.find("owner node 4"), std::string::npos) << what;
    EXPECT_NE(what.find("node 7"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle 1234"), std::string::npos) << what;
    EXPECT_NE(what.find("scheduled by host"), std::string::npos) << what;
    EXPECT_NE(what.find("seq 42"), std::string::npos) << what;
    EXPECT_NE(what.find("some_file.cpp:99"), std::string::npos) << what;
  }
  sim::affsan::disown(buf);
}

// --- Kill tests against a live machine -------------------------------------

// A node-0 event reaches into node 1's outgoing wire.  This is exactly the
// bug class the sanitizer exists for; it must trap at every thread count.
void expect_injected_write_traps(int threads) {
  machine::Machine m(two_node_config(threads));
  m.power_on();

  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const sim::EngineRef node0(&m.engine(), 0);
  node0.schedule(4096, [&m, link] {
    m.mesh().wire(NodeId{1}, link).set_bit_error_rate(0.5);
  });
  EXPECT_THROW(m.engine().run_until_idle(), sim::AffinityViolation);
}

TEST(AffSanKill, InjectedCrossAffinityWriteTrapsAt1Thread) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  expect_injected_write_traps(1);
}

TEST(AffSanKill, InjectedCrossAffinityWriteTrapsAt2Threads) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  expect_injected_write_traps(2);
}

TEST(AffSanKill, InjectedCrossAffinityWriteTrapsAt4Threads) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  expect_injected_write_traps(4);
}

TEST(AffSanKill, SameWriteWithDeclaredTouchedSetPasses) {
  if (!sim::affsan::enabled()) GTEST_SKIP() << "built without QCDOC_AFFSAN";
  machine::Machine m(two_node_config(1));
  m.power_on();

  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const sim::EngineRef host(&m.engine());
  // qcdoc-lint: touches(node) test declares the write it injects
  host.schedule(4096, [&m, link] {
    QCDOC_AFFSAN_TOUCH(sim::detail::rank_affinity(2));
    m.mesh().wire(NodeId{1}, link).set_bit_error_rate(0.5);
  });
  EXPECT_NO_THROW(m.engine().run_until_idle());
  EXPECT_EQ(m.mesh().wire(NodeId{1}, link).bit_error_rate(), 0.5);
}

TEST(AffSanKill, MacrosCompileAwayWithoutTheSanitizer) {
  if (sim::affsan::enabled()) GTEST_SKIP() << "built with QCDOC_AFFSAN";
  // The injected write from the kill test must pass silently: no regions
  // are registered, checks never run, and the regular build pays nothing.
  machine::Machine m(two_node_config(1));
  m.power_on();
  EXPECT_EQ(sim::affsan::region_count(), 0u);

  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const sim::EngineRef node0(&m.engine(), 0);
  node0.schedule(4096, [&m, link] {
    m.mesh().wire(NodeId{1}, link).set_bit_error_rate(0.5);
  });
  EXPECT_NO_THROW(m.engine().run_until_idle());
}

}  // namespace
}  // namespace qcdoc
