// Reporting and timing-model analysis tests.
#include <gtest/gtest.h>

#include "cpu/timing.h"
#include "perf/report.h"

namespace qcdoc::perf {
namespace {

TEST(Report, FormatTableAlignsAndPrintsRows) {
  std::vector<Row> rows = {
      {"E1", "wilson", 40.0, 39.8, "%"},
      {"E6", "machine total", 1610442.0, 1610442.0, "USD"},
  };
  const std::string table = format_table(rows);
  EXPECT_NE(table.find("experiment"), std::string::npos);
  EXPECT_NE(table.find("wilson"), std::string::npos);
  EXPECT_NE(table.find("39.8"), std::string::npos);
  EXPECT_NE(table.find("USD"), std::string::npos);
  // One header plus two data lines.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);
}

TEST(Report, EfficiencyAndSustainedFromCgResult) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  machine::Machine m(cfg);
  EXPECT_DOUBLE_EQ(machine_peak_flops_per_cycle(m), 4.0);  // 2 nodes x 2

  lattice::CgResult r;
  r.flops = 4000.0;
  r.cycles = 2000;
  EXPECT_DOUBLE_EQ(cg_efficiency(m, r), 0.5);
  // 4000 flops in 2000 cycles at 500 MHz = 4 us -> 1000 Mflops sustained.
  EXPECT_NEAR(cg_sustained_mflops(m, r), 1000.0, 1e-9);
}

}  // namespace
}  // namespace qcdoc::perf

namespace qcdoc::cpu {
namespace {

TEST(KernelBreakdown, IdentifiesTheBindingResource) {
  const memsys::MemTiming mem(500e6);
  CpuParams params;
  params.fpu_issue_efficiency = 1.0;
  CpuModel model(mem, params);

  KernelProfile fpu_bound;
  fpu_bound.fmadd_flops = 20000;  // 10000 fpu cycles
  fpu_bound.load_bytes = 800;     // 100 lsu cycles
  EXPECT_STREQ(model.analyze(fpu_bound).bound, "fpu");

  KernelProfile lsu_bound;
  lsu_bound.fmadd_flops = 200;
  lsu_bound.load_bytes = 80000;  // 10000 lsu cycles
  EXPECT_STREQ(model.analyze(lsu_bound).bound, "lsu");

  KernelProfile edram_bound;
  edram_bound.fmadd_flops = 200;
  edram_bound.edram_bytes = 320000;  // 20000 edram cycles
  edram_bound.streams = 2;
  EXPECT_STREQ(model.analyze(edram_bound).bound, "edram");
}

TEST(KernelBreakdown, DdrIsAdditiveToTheBound) {
  const memsys::MemTiming mem(500e6);
  CpuModel model(mem);
  KernelProfile p;
  p.fmadd_flops = 20000;
  p.issue_efficiency = 1.0;
  const double base = model.kernel_cycles(p);
  p.ddr_bytes = 5200;  // 1000 cycles at 5.2 B/cycle
  p.streams = 1;
  const auto b = model.analyze(p);
  EXPECT_NEAR(b.total_cycles, base + 1000.0, 1.0);
  EXPECT_NEAR(b.ddr_cycles, 1000.0, 1.0);
}

TEST(KernelBreakdown, PerKernelIssueEfficiencyOverridesGlobal) {
  const memsys::MemTiming mem(500e6);
  CpuParams params;
  params.fpu_issue_efficiency = 0.5;
  CpuModel model(mem, params);
  KernelProfile p;
  p.fmadd_flops = 1000;  // 500 raw fpu cycles
  EXPECT_DOUBLE_EQ(model.kernel_cycles(p), 1000.0);  // /0.5
  p.issue_efficiency = 1.0;
  EXPECT_DOUBLE_EQ(model.kernel_cycles(p), 500.0);
}

}  // namespace
}  // namespace qcdoc::cpu
