#include "cpu/timing.h"

#include <algorithm>

namespace qcdoc::cpu {

KernelBreakdown CpuModel::analyze(const KernelProfile& p) const {
  KernelBreakdown b;
  const double issue = p.issue_efficiency > 0 ? p.issue_efficiency
                                              : params_.fpu_issue_efficiency;
  b.fpu_cycles =
      (p.fmadd_flops / kFlopsPerCycle + p.other_flops) / issue;
  b.lsu_cycles = (p.load_bytes + p.store_bytes) / kLsuBytesPerCycle;
  b.edram_cycles =
      mem_.stream_cycles(memsys::Region::kEdram, p.edram_bytes, p.streams);
  b.ddr_cycles =
      p.ddr_bytes > 0
          ? mem_.stream_cycles(memsys::Region::kDdr, p.ddr_bytes, p.streams)
          : 0.0;
  b.overhead_cycles = p.overhead_cycles;
  // EDRAM prefetch overlaps with the issue pipes; DDR stalls are exposed.
  const double issue_bound = std::max({b.fpu_cycles, b.lsu_cycles, b.edram_cycles});
  b.total_cycles = issue_bound + b.ddr_cycles + b.overhead_cycles;
  b.bound = issue_bound == b.fpu_cycles   ? "fpu"
            : issue_bound == b.lsu_cycles ? "lsu"
                                          : "edram";
  return b;
}

}  // namespace qcdoc::cpu
