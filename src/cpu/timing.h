// PPC 440 + FPU64 timing model (paper Section 2.1).
//
// The core issues one fused multiply-add per cycle (2 flops, 1 Gflops peak
// at 500 MHz) alongside one load/store.  Three resources bound a kernel:
//
//   fpu:   fmadd pairs at 1/cycle, isolated flops at 1/cycle, degraded by a
//          single calibrated issue-efficiency factor covering FPU dependency
//          chains (5-cycle latency), register pressure and non-pairable ops.
//   lsu:   one 64-bit access per cycle.
//   edram: the prefetching controller streams 16 bytes/cycle and overlaps
//          with compute (that is its purpose), so it maxes with fpu/lsu.
//
// DDR traffic does NOT overlap: external line fills behind the PLB stall
// the core (there is no prefetch engine in front of DDR), so DDR cycles are
// additive.  This asymmetry is what produces the paper's efficiency cliff
// from ~46% (working set in EDRAM) to ~30% (spilled to DDR).
//
// Calibration: `fpu_issue_efficiency` is fitted ONCE against the paper's
// Wilson figure (40% on a 4^4 local volume) and then frozen; clover, ASQTAD
// and domain-wall efficiencies, the single-precision uplift and the DDR
// cliff are predictions.
#pragma once

#include "common/types.h"
#include "cpu/profile.h"
#include "memsys/memsys.h"

namespace qcdoc::cpu {

/// The FPU retires one fused multiply-add, two flops, per cycle.
inline constexpr int kFlopsPerCycle = 2;
/// The load/store unit moves one 64-bit word per cycle.
inline constexpr double kLsuBytesPerCycle = 8.0;

struct CpuParams {
  double fpu_issue_efficiency = 0.68;  ///< calibrated on Wilson (see above)
};

/// Where a kernel's cycles go: which resource binds it and by how much.
struct KernelBreakdown {
  double fpu_cycles = 0;     ///< issue-limited floating point
  double lsu_cycles = 0;     ///< load/store pipe
  double edram_cycles = 0;   ///< prefetched EDRAM streaming (overlapped)
  double ddr_cycles = 0;     ///< exposed DDR stalls (additive)
  double overhead_cycles = 0;
  double total_cycles = 0;
  const char* bound = "";    ///< "fpu", "lsu" or "edram"
};

class CpuModel {
 public:
  explicit CpuModel(const memsys::MemTiming& mem,
                    CpuParams params = CpuParams{})
      : mem_(mem), params_(params) {}

  /// Cycles to execute a kernel with this profile.
  double kernel_cycles(const KernelProfile& p) const {
    return analyze(p).total_cycles;
  }

  /// Full resource breakdown (the roofline view of a kernel).
  KernelBreakdown analyze(const KernelProfile& p) const;

  /// Fraction of peak floating-point throughput achieved.
  double efficiency(const KernelProfile& p) const {
    const double c = kernel_cycles(p);
    return c > 0 ? p.flops() / (kFlopsPerCycle * c) : 0.0;
  }

 private:
  memsys::MemTiming mem_;
  CpuParams params_;
};

}  // namespace qcdoc::cpu
