#include <gtest/gtest.h>

#include <cstring>

#include "cpu/timing.h"
#include "fault/fault.h"
#include "machine/machine.h"
#include "memsys/memsys.h"
#include "memsys/scrub.h"

namespace qcdoc::memsys {
namespace {

TEST(NodeMemory, AllocPrefersEdramThenSpills) {
  MemConfig cfg;
  cfg.edram_words = 100;
  cfg.ddr_words = 1000;
  NodeMemory mem(cfg);
  const Block a = mem.alloc(60, "a");
  EXPECT_EQ(a.region, Region::kEdram);
  const Block b = mem.alloc(60, "b");  // does not fit the remaining EDRAM
  EXPECT_EQ(b.region, Region::kDdr);
  const Block c = mem.alloc(40, "c");  // still fits EDRAM
  EXPECT_EQ(c.region, Region::kEdram);
  EXPECT_EQ(mem.edram_words_used(), 100u);
  EXPECT_EQ(mem.ddr_words_used(), 60u);
}

TEST(NodeMemory, ReadWriteRoundTrip) {
  NodeMemory mem;
  const Block b = mem.alloc(16, "b");
  for (u64 i = 0; i < 16; ++i) mem.write_word(b.word_addr + i, i * i);
  for (u64 i = 0; i < 16; ++i) EXPECT_EQ(mem.read_word(b.word_addr + i), i * i);
}

TEST(NodeMemory, DoubleViewAliasesWords) {
  NodeMemory mem;
  const Block b = mem.alloc(8, "b");
  auto d = mem.doubles(b);
  d[0] = 3.25;
  // The word view sees the same bits.
  u64 bits = mem.read_word(b.word_addr);
  double via_word;
  std::memcpy(&via_word, &bits, sizeof(via_word));
  EXPECT_DOUBLE_EQ(via_word, 3.25);
}

TEST(NodeMemory, SpansSurviveLaterAllocations) {
  NodeMemory mem;
  const Block a = mem.alloc(32, "a");
  auto sa = mem.doubles(a);
  sa[5] = 1.5;
  for (int i = 0; i < 50; ++i) mem.alloc(1024, "filler");
  EXPECT_DOUBLE_EQ(sa[5], 1.5);  // no invalidation
  EXPECT_DOUBLE_EQ(mem.doubles(a)[5], 1.5);
}

TEST(NodeMemory, RegionOfAddress) {
  MemConfig cfg;
  cfg.edram_words = 64;
  NodeMemory mem(cfg);
  EXPECT_EQ(mem.region_of(0), Region::kEdram);
  EXPECT_EQ(mem.region_of(63), Region::kEdram);
  EXPECT_EQ(mem.region_of(64), Region::kDdr);
}

TEST(MemTiming, EdramStreamsAtFullBandwidthForTwoStreams) {
  const MemTiming t(500e6);
  // 1600 bytes at 16 B/cycle = 100 cycles, no penalty for <= 2 streams.
  EXPECT_DOUBLE_EQ(t.stream_cycles(Region::kEdram, 1600, 2), 100.0);
  // More streams than the two prefetch engines pay page misses.
  EXPECT_GT(t.stream_cycles(Region::kEdram, 1600, 6), 100.0);
}

TEST(MemTiming, DdrIsSlowerThanEdram) {
  const MemTiming t(500e6);
  EXPECT_GT(t.stream_cycles(Region::kDdr, 4096, 1),
            t.stream_cycles(Region::kEdram, 4096, 2));
  // Multi-stream DDR thrashes pages.
  EXPECT_GT(t.stream_cycles(Region::kDdr, 4096, 4),
            t.stream_cycles(Region::kDdr, 4096, 1));
}

TEST(CpuModel, FpuBoundKernel) {
  const MemTiming mem(500e6);
  cpu::CpuParams params;
  params.fpu_issue_efficiency = 1.0;
  cpu::CpuModel model(mem, params);
  cpu::KernelProfile p;
  p.fmadd_flops = 2000;  // 1000 cycles of perfect fmadds
  EXPECT_DOUBLE_EQ(model.kernel_cycles(p), 1000.0);
  EXPECT_DOUBLE_EQ(model.efficiency(p), 1.0);
}

TEST(CpuModel, IssueEfficiencyDegradesFpu) {
  const MemTiming mem(500e6);
  cpu::CpuParams params;
  params.fpu_issue_efficiency = 0.5;
  cpu::CpuModel model(mem, params);
  cpu::KernelProfile p;
  p.fmadd_flops = 2000;
  EXPECT_DOUBLE_EQ(model.kernel_cycles(p), 2000.0);
  EXPECT_DOUBLE_EQ(model.efficiency(p), 0.5);
}

TEST(CpuModel, DdrTrafficIsAdditiveEdramIsNot) {
  const MemTiming mem(500e6);
  cpu::CpuParams params;
  params.fpu_issue_efficiency = 1.0;
  cpu::CpuModel model(mem, params);
  cpu::KernelProfile base;
  base.fmadd_flops = 20000;  // 10000 fpu cycles
  cpu::KernelProfile with_edram = base;
  with_edram.edram_bytes = 16000;  // 1000 cycles, hidden under compute
  with_edram.streams = 2;
  EXPECT_DOUBLE_EQ(model.kernel_cycles(with_edram),
                   model.kernel_cycles(base));
  cpu::KernelProfile with_ddr = base;
  with_ddr.ddr_bytes = 16000;  // exposed stall
  with_ddr.streams = 1;
  EXPECT_GT(model.kernel_cycles(with_ddr), model.kernel_cycles(base));
}

TEST(CpuModel, SinglePrecisionHelpsOnlyMemoryBoundKernels) {
  const MemTiming mem(500e6);
  cpu::CpuModel model(mem);
  cpu::KernelProfile dp;
  dp.fmadd_flops = 100;
  dp.load_bytes = 6400;  // strongly load/store bound
  cpu::KernelProfile sp = dp;
  sp.load_bytes /= 2;
  EXPECT_LT(model.kernel_cycles(sp), model.kernel_cycles(dp));
}

// --- SECDED ECC + scrubbing (memsys/ecc.h, memsys/scrub.h) -----------------

// 4 EDRAM rows of 16 words plus 8 DDR bursts of 4 words: 12 codeword rows.
MemConfig tiny_ecc_config() {
  MemConfig cfg;
  cfg.edram_words = 64;
  cfg.ddr_words = 32;
  return cfg;
}

TEST(Ecc, SingleBitUpsetIsInvisibleAndScrubCorrects) {
  NodeMemory mem(tiny_ecc_config());
  const Block b = mem.alloc_in(Region::kEdram, 16, "b");
  for (u64 i = 0; i < 16; ++i) mem.write_word(b.word_addr + i, 1000 + i);
  mem.ecc().inject_upset(b.word_addr + 3, 17);
  // Correctable: every read goes through the ECC datapath, so software
  // never sees the flipped bit.
  EXPECT_EQ(mem.read_word(b.word_addr + 3), 1003u);
  EXPECT_EQ(mem.ecc().dirty_codewords(), 1u);
  EXPECT_FALSE(mem.ecc().machine_check_pending());
  // A full scrub sweep corrects and counts it.
  mem.ecc().scrub_step(/*rows=*/12, /*cycles_per_row=*/2);
  EXPECT_EQ(mem.ecc().counters().corrected, 1u);
  EXPECT_EQ(mem.ecc().dirty_codewords(), 0u);
  EXPECT_EQ(mem.read_word(b.word_addr + 3), 1003u);
  EXPECT_EQ(mem.ecc().counters().scrub_rows, 12u);
  EXPECT_EQ(mem.ecc().counters().scrub_cycles, 24u);
}

TEST(Ecc, DoubleBitUpsetCorruptsStorageAndLatchesMachineCheck) {
  NodeMemory mem(tiny_ecc_config());
  const Block b = mem.alloc_in(Region::kEdram, 16, "b");
  mem.write_word(b.word_addr, 42);
  mem.ecc().inject_upset(b.word_addr, 3);
  mem.ecc().inject_upset(b.word_addr, 9);
  // Beyond SECDED: the corruption is real and the controller raises a
  // machine check.
  EXPECT_EQ(mem.read_word(b.word_addr), 42u ^ (1ull << 3) ^ (1ull << 9));
  EXPECT_TRUE(mem.ecc().machine_check_pending());
  EXPECT_EQ(mem.ecc().counters().uncorrectable, 1u);
  EXPECT_EQ(mem.ecc().poisoned_codewords(), 1u);
  const auto checks = mem.ecc().consume_machine_checks();
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].word_addr, b.word_addr);
  EXPECT_EQ(checks[0].region, Region::kEdram);
  EXPECT_FALSE(mem.ecc().machine_check_pending());
}

TEST(Ecc, RowGeometryDecidesEscalation) {
  // Two single-bit flips in one 16-word EDRAM row exceed SECDED; the same
  // two flips one row apart stay independently correctable.
  {
    NodeMemory mem(tiny_ecc_config());
    const Block b = mem.alloc_in(Region::kEdram, 32, "b");
    mem.ecc().inject_upset(b.word_addr + 0, 1);
    mem.ecc().inject_upset(b.word_addr + 15, 2);  // same row
    EXPECT_EQ(mem.ecc().counters().uncorrectable, 1u);
  }
  {
    NodeMemory mem(tiny_ecc_config());
    const Block b = mem.alloc_in(Region::kEdram, 32, "b");
    mem.ecc().inject_upset(b.word_addr + 0, 1);
    mem.ecc().inject_upset(b.word_addr + 16, 2);  // next row
    EXPECT_EQ(mem.ecc().counters().uncorrectable, 0u);
    mem.ecc().scrub_step(12, 2);
    EXPECT_EQ(mem.ecc().counters().corrected, 2u);
  }
}

TEST(Ecc, DdrBurstsAreSmallerCodewords) {
  NodeMemory mem(tiny_ecc_config());
  const Block b = mem.alloc_in(Region::kDdr, 8, "b");
  // Words 0 and 3 share one 4-word DDR burst and escalate...
  mem.ecc().inject_upset(b.word_addr + 0, 5);
  mem.ecc().inject_upset(b.word_addr + 3, 6);
  EXPECT_EQ(mem.ecc().counters().uncorrectable, 1u);
  const auto checks = mem.ecc().consume_machine_checks();
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].region, Region::kDdr);
  // ...while word 4 lives in the next burst and stays correctable.
  mem.ecc().inject_upset(b.word_addr + 4, 5);
  EXPECT_EQ(mem.ecc().counters().uncorrectable, 1u);
}

TEST(Ecc, ProgramRewriteClearsPoisonedWords) {
  NodeMemory mem(tiny_ecc_config());
  const Block b = mem.alloc_in(Region::kEdram, 16, "b");
  mem.write_word(b.word_addr + 1, 7);
  mem.write_word(b.word_addr + 2, 8);
  mem.ecc().inject_upset(b.word_addr + 1, 0);
  mem.ecc().inject_upset(b.word_addr + 2, 0);  // same row: uncorrectable
  EXPECT_EQ(mem.ecc().poisoned_codewords(), 1u);
  // The program overwrites both words (a checkpoint-rollback copy does
  // exactly this); the write path regenerates the check bits.
  mem.write_word(b.word_addr + 1, 100);
  mem.write_word(b.word_addr + 2, 200);
  mem.ecc().scrub_step(12, 2);
  EXPECT_EQ(mem.ecc().counters().cleared_by_rewrite, 2u);
  EXPECT_EQ(mem.ecc().dirty_codewords(), 0u);
  EXPECT_EQ(mem.ecc().poisoned_codewords(), 0u);
  EXPECT_EQ(mem.read_word(b.word_addr + 1), 100u);
}

TEST(Ecc, ScrubWalksOnABudget) {
  NodeMemory mem(tiny_ecc_config());
  const Block b = mem.alloc_in(Region::kDdr, 32, "b");
  // A flip in the last DDR burst is reached only by the third 4-row burst
  // of the cursor walk.
  mem.write_word(b.word_addr + 30, 5);
  mem.ecc().inject_upset(b.word_addr + 30, 11);
  EXPECT_EQ(mem.ecc().scrub_step(4, 2), 4u);
  EXPECT_EQ(mem.ecc().counters().corrected, 0u);
  EXPECT_EQ(mem.ecc().scrub_step(4, 2), 4u);
  EXPECT_EQ(mem.ecc().counters().corrected, 0u);
  EXPECT_EQ(mem.ecc().scrub_step(4, 2), 4u);
  EXPECT_EQ(mem.ecc().counters().corrected, 1u);
  EXPECT_EQ(mem.ecc().counters().scrub_rows, 12u);
  EXPECT_EQ(mem.ecc().counters().scrub_cycles, 24u);
}

TEST(Ecc, AllocatedWordIndexing) {
  NodeMemory mem(tiny_ecc_config());
  const Block a = mem.alloc_in(Region::kEdram, 8, "a");
  const Block d = mem.alloc_in(Region::kDdr, 8, "d");
  EXPECT_EQ(mem.allocated_words(), 16u);
  EXPECT_EQ(mem.nth_allocated_word(0), a.word_addr);
  EXPECT_EQ(mem.nth_allocated_word(7), a.word_addr + 7);
  EXPECT_EQ(mem.nth_allocated_word(8), d.word_addr);
  EXPECT_EQ(mem.nth_allocated_word(15), d.word_addr + 7);
}

struct UpsetRunSummary {
  u64 digest = 0;
  u64 events = 0;
  u64 upsets = 0;
  u64 corrected = 0;
  u64 uncorrectable = 0;
  u64 scrub_rows = 0;

  friend bool operator==(const UpsetRunSummary&,
                         const UpsetRunSummary&) = default;
};

// A sustained entropy-addressed upset campaign with scrubbing on, at a
// given simulation thread count.  Every node gets live EDRAM and DDR data
// for the upsets to land in.
UpsetRunSummary run_upset_campaign(int threads) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 1, 1, 1};
  cfg.sim_threads = threads;
  machine::Machine m(cfg);
  for (int i = 0; i < m.num_nodes(); ++i) {
    NodeMemory& mem = m.memory(NodeId{static_cast<u32>(i)});
    const Block e = mem.alloc_in(Region::kEdram, 128, "soak.edram");
    const Block d = mem.alloc_in(Region::kDdr, 128, "soak.ddr");
    for (u64 w = 0; w < 128; ++w) {
      mem.write_word(e.word_addr + w, w);
      mem.write_word(d.word_addr + w, ~w);
    }
  }
  m.start_memory_scrubbers();
  fault::FaultInjector injector(&m.mesh());
  injector.arm(fault::FaultPlan::sustained_mem_upsets(
      /*seed=*/77, cfg.shape, /*n=*/48, /*start=*/1024, /*horizon=*/1 << 16,
      /*uncorrectable_fraction=*/0.25));
  m.engine().run_until((1 << 16) + (1 << 15));

  UpsetRunSummary s;
  s.digest = m.engine().trace_digest();
  s.events = m.engine().events_executed();
  const EccCounters total = m.mesh().total_ecc();
  s.upsets = total.upsets;
  s.corrected = total.corrected;
  s.uncorrectable = total.uncorrectable;
  s.scrub_rows = total.scrub_rows;
  return s;
}

TEST(Ecc, UpsetReplayBitIdenticalAcrossEngines) {
  const UpsetRunSummary serial = run_upset_campaign(1);
  EXPECT_GE(serial.upsets, 48u);  // uncorrectable events flip 2 bits
  EXPECT_LE(serial.upsets, 96u);
  EXPECT_GT(serial.corrected, 0u);
  EXPECT_GT(serial.uncorrectable, 0u);
  EXPECT_GT(serial.scrub_rows, 0u);
  EXPECT_EQ(run_upset_campaign(2), serial);
  EXPECT_EQ(run_upset_campaign(4), serial);
}

TEST(Ecc, ScrubberSweepIsDeterministic) {
  // Fault-free scrubbing is pure overhead: two identical runs walk the
  // same rows in the same order and correct nothing.
  const UpsetRunSummary a = [] {
    machine::MachineConfig cfg;
    cfg.shape.extent = {2, 2, 1, 1, 1, 1};
    machine::Machine m(cfg);
    m.start_memory_scrubbers();
    m.engine().run_until(1 << 16);
    UpsetRunSummary s;
    s.digest = m.engine().trace_digest();
    s.events = m.engine().events_executed();
    s.scrub_rows = m.mesh().total_ecc().scrub_rows;
    return s;
  }();
  const UpsetRunSummary b = [] {
    machine::MachineConfig cfg;
    cfg.shape.extent = {2, 2, 1, 1, 1, 1};
    machine::Machine m(cfg);
    m.start_memory_scrubbers();
    m.engine().run_until(1 << 16);
    UpsetRunSummary s;
    s.digest = m.engine().trace_digest();
    s.events = m.engine().events_executed();
    s.scrub_rows = m.mesh().total_ecc().scrub_rows;
    return s;
  }();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.scrub_rows, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(KernelProfile, AdditionAndScaling) {
  cpu::KernelProfile a, b;
  a.fmadd_flops = 10;
  a.load_bytes = 100;
  b.fmadd_flops = 5;
  b.other_flops = 3;
  const auto c = a + b;
  EXPECT_DOUBLE_EQ(c.fmadd_flops, 15.0);
  EXPECT_DOUBLE_EQ(c.flops(), 18.0);
  const auto d = c.scaled(2.0);
  EXPECT_DOUBLE_EQ(d.fmadd_flops, 30.0);
  EXPECT_DOUBLE_EQ(d.load_bytes, 200.0);
}

}  // namespace
}  // namespace qcdoc::memsys
