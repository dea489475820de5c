// E16 (extension): kernel roofline -- which resource bounds each Dirac
// kernel on the QCDOC node, and why the efficiency ladder looks the way it
// does.
//
// The paper's efficiency ordering (clover > wilson > asqtad; DWF expected
// best; DDR spills collapse to ~30%) is a statement about the balance
// between the 2-flop/cycle FPU, the load/store pipe, the 16 B/cycle
// prefetching EDRAM and the non-overlapped DDR path.  This bench prints the
// per-site cycle breakdown of every kernel in both residencies.
#include "bench_util.h"
#include "lattice/clover.h"
#include "lattice/dwf.h"
#include "lattice/rig.h"
#include "lattice/staggered.h"
#include "lattice/wilson.h"

using namespace qcdoc;
using namespace qcdoc::lattice;

namespace {

void print_row(const char* name, const cpu::CpuModel& model,
               const cpu::KernelProfile& p, double sites) {
  const auto b = model.analyze(p);
  std::printf("%-14s %8.0f %8.0f %8.0f %8.0f %8.0f %9.0f %7s %8.1f%%\n", name,
              b.fpu_cycles / sites, b.lsu_cycles / sites,
              b.edram_cycles / sites, b.ddr_cycles / sites,
              b.overhead_cycles / sites, b.total_cycles / sites, b.bound,
              100.0 * p.flops() / (2.0 * b.total_cycles));
}

}  // namespace

int main() {
  bench::print_header(
      "E16: bench_kernel_roofline -- per-site cycle breakdown of the kernels",
      "the efficiency ladder follows the FPU/LSU/EDRAM balance; DDR "
      "residency adds exposed stalls (the ~30% collapse)");

  SolverRig rig({2, 2, 2, 2, 1, 1}, {8, 8, 8, 8});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  const double v = rig.geom->local().volume();

  WilsonDirac wilson(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
  CloverDirac clover(rig.ops.get(), rig.geom.get(), &gauge, CloverParams{});
  AsqtadDirac asqtad(rig.ops.get(), rig.geom.get(), &gauge, AsqtadParams{});
  DwfDirac dwf(rig.ops.get(), rig.geom.get(), &gauge, DwfParams{.ls = 8});

  std::printf("%-14s %8s %8s %8s %8s %8s %9s %7s %9s\n", "kernel (per",
              "fpu", "lsu", "edram", "ddr", "ovrhead", "total", "bound",
              "kernel");
  std::printf("%-14s %8s %8s %8s %8s %8s %9s %7s %9s\n", " site cycles)",
              "", "", "", "", "", "", "", "eff");

  const auto& model = *rig.cpu;
  print_row("wilson", model, wilson.site_profile(memsys::Region::kEdram), v);
  print_row("clover term", model, clover.clover_profile(), v);
  print_row("asqtad", model, asqtad.site_profile(memsys::Region::kEdram), v);
  print_row("dwf (per s)", model,
            dwf.site_profile(memsys::Region::kEdram).scaled(1.0 / 8.0), v);

  std::printf("\nsame kernels with spinors resident in DDR:\n");
  print_row("wilson/ddr", model, wilson.site_profile(memsys::Region::kDdr), v);
  print_row("asqtad/ddr", model, asqtad.site_profile(memsys::Region::kDdr), v);

  std::printf(
      "\nall kernels are FPU-issue bound while the working set stays in "
      "EDRAM -- the\nprefetching controller does its job -- and pick up "
      "additive stalls once spinors\nspill to DDR, which is exactly the "
      "paper's volume/efficiency cliff.\n");
  return 0;
}
