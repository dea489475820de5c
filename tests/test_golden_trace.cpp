// Golden-trace regression tests (the determinism headline).
//
// A fixed workload -- boot a 2^6 = 64-node machine through the qdaemon and
// run a 10-iteration Wilson CG solve -- is summarized in five numbers: the
// engine's event-order digest, the event count, the final cycle, the bit
// pattern of the CG residual, and an FNV-1a checksum of every double in the
// solution field.  The committed golden file pins all five; the serial and
// parallel engines (any thread count) must reproduce them exactly.  A
// mismatch means event order, timing, or arithmetic changed -- either an
// intentional model change (regenerate, see below) or a determinism bug.
//
// Regenerate after an intentional model change with:
//   QCDOC_REGEN_GOLDEN=1 ./test_golden_trace
// and commit the updated tests/golden/ file.  The regeneration always uses
// the serial engine, the reference semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"
#include "sim/engine.h"

#ifndef QCDOC_GOLDEN_DIR
#define QCDOC_GOLDEN_DIR "tests/golden"
#endif

namespace qcdoc::lattice {
namespace {

constexpr const char* kGoldenFile =
    QCDOC_GOLDEN_DIR "/boot_cg10_2x6.golden";

struct TraceSummary {
  u64 digest = 0;
  u64 events = 0;
  u64 end_cycle = 0;
  u64 residual_bits = 0;
  u64 field_checksum = 0;

  friend bool operator==(const TraceSummary&, const TraceSummary&) = default;
};

TraceSummary run_workload(int threads) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};
  cfg.sim_threads = threads;
  machine::Machine m(cfg);
  host::Qdaemon qd(&m);
  qd.boot();

  torus::Shape whole;
  whole.extent = cfg.shape.extent;
  const auto handle = qd.allocate_partition("golden", whole, 4);
  SolverRig rig(&m, handle->partition, {4, 4, 4, 16});

  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(2026);
  gauge.randomize_near_unit(rng, 0.12);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 WilsonParams{.kappa = 0.124});
  DistField x = op.make_field("x");
  DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  CgParams params;
  params.fixed_iterations = 10;
  const CgResult r = cg_solve(op, x, b, params);
  EXPECT_EQ(r.iterations, 10);

  TraceSummary s;
  s.digest = m.engine().trace_digest();
  s.events = m.engine().events_executed();
  s.end_cycle = m.engine().now();
  s.residual_bits = std::bit_cast<u64>(r.relative_residual);
  s.field_checksum = testing::field_fnv(x);
  return s;
}

void write_golden(const TraceSummary& s) {
  std::ofstream out(kGoldenFile);
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
  out << "# Golden trace: 2^6 machine qdaemon boot + 10-iteration Wilson CG\n"
      << "# (4^3 x 16 global lattice, kappa 0.124, seed 2026).  Regenerate\n"
      << "# with QCDOC_REGEN_GOLDEN=1 ./test_golden_trace after intentional\n"
      << "# model changes only.\n";
  char line[64];
  std::snprintf(line, sizeof(line), "digest %016llx\n",
                static_cast<unsigned long long>(s.digest));
  out << line;
  std::snprintf(line, sizeof(line), "events %016llx\n",
                static_cast<unsigned long long>(s.events));
  out << line;
  std::snprintf(line, sizeof(line), "end_cycle %016llx\n",
                static_cast<unsigned long long>(s.end_cycle));
  out << line;
  std::snprintf(line, sizeof(line), "residual_bits %016llx\n",
                static_cast<unsigned long long>(s.residual_bits));
  out << line;
  std::snprintf(line, sizeof(line), "field_checksum %016llx\n",
                static_cast<unsigned long long>(s.field_checksum));
  out << line;
}

TraceSummary read_golden() {
  std::ifstream in(kGoldenFile);
  EXPECT_TRUE(in.good()) << "missing golden file " << kGoldenFile
                         << " -- regenerate with QCDOC_REGEN_GOLDEN=1";
  std::map<std::string, u64> kv;
  std::string key;
  while (in >> key) {
    if (key[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    std::string hex;
    in >> hex;
    kv[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  TraceSummary s;
  s.digest = kv["digest"];
  s.events = kv["events"];
  s.end_cycle = kv["end_cycle"];
  s.residual_bits = kv["residual_bits"];
  s.field_checksum = kv["field_checksum"];
  return s;
}

void check_against_golden(int threads) {
  const TraceSummary got = run_workload(threads);
  if (std::getenv("QCDOC_REGEN_GOLDEN")) {
    ASSERT_EQ(threads, 1) << "golden files are regenerated serially";
    write_golden(got);
    GTEST_SKIP() << "regenerated " << kGoldenFile;
  }
  const TraceSummary want = read_golden();
  EXPECT_EQ(got.digest, want.digest) << "event order diverged";
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.end_cycle, want.end_cycle) << "simulated time diverged";
  EXPECT_EQ(got.residual_bits, want.residual_bits)
      << "CG arithmetic diverged";
  EXPECT_EQ(got.field_checksum, want.field_checksum)
      << "solution field diverged";
}

TEST(GoldenTrace, SerialEngineReproducesCommittedTrace) {
  check_against_golden(1);
}

TEST(GoldenTrace, ParallelEngine2ThreadsReproducesCommittedTrace) {
  if (std::getenv("QCDOC_REGEN_GOLDEN")) GTEST_SKIP();
  check_against_golden(2);
}

TEST(GoldenTrace, ParallelEngine4ThreadsReproducesCommittedTrace) {
  if (std::getenv("QCDOC_REGEN_GOLDEN")) GTEST_SKIP();
  check_against_golden(4);
}

}  // namespace
}  // namespace qcdoc::lattice
