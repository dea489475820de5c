// Self-test of the benchmark's instrumentation: a solve through TracedDirac
// must give the same residual bits and solution bits as the same solve
// through the bare operator, and must record one span per Dirac
// application.  With a path argument the recorded trace is written there,
// so the Python self-tests can parse it back.
//
//   perfbench_selftest [trace.json]
#include <bit>
#include <cstdio>
#include <fstream>

#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "traced_dirac.h"

namespace {

using namespace qcdoc;
using namespace qcdoc::lattice;

struct Outcome {
  u64 residual_bits = 0;
  u64 field_fnv = sim::detail::kFnvOffset;
  int iterations = 0;
};

Outcome solve(perfbench::Tracer* tracer) {
  SolverRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  perfbench::Probe probe{rig.m.get(), rig.bsp.get(), rig.ops.get()};
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(11);
  gauge.randomize_near_unit(rng, 0.1);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 WilsonParams{.kappa = 0.12});
  DistField x = op.make_field("x");
  DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  CgParams params;
  params.tolerance = 1e-8;
  CgResult r;
  if (tracer != nullptr) {
    perfbench::TracedDirac traced(op, *tracer, &probe);
    perfbench::ScopedSpan span(*tracer, "lattice.solve.cg", &probe);
    r = cg_solve(traced, x, b, params);
    span.arg("lattice.iterations", r.iterations);
  } else {
    r = cg_solve(op, x, b, params);
  }
  Outcome out;
  out.residual_bits = std::bit_cast<u64>(r.relative_residual);
  out.iterations = r.iterations;
  for (int rank = 0; rank < x.ranks(); ++rank) {
    for (const double v : x.data(rank)) {
      out.field_fnv = sim::detail::fnv1a(out.field_fnv, std::bit_cast<u64>(v));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Outcome bare = solve(nullptr);
  perfbench::Tracer tracer;
  tracer.set_enabled(true);
  const Outcome wrapped = solve(&tracer);

  int dirac_spans = 0;
  for (const perfbench::Span& s : tracer.spans()) {
    if (s.name == "lattice.dirac") ++dirac_spans;
  }
  bool ok = true;
  if (bare.residual_bits != wrapped.residual_bits ||
      bare.field_fnv != wrapped.field_fnv ||
      bare.iterations != wrapped.iterations) {
    std::printf("FAIL: wrapped solve differs (residual %016llx vs %016llx, "
                "field %016llx vs %016llx)\n",
                static_cast<unsigned long long>(bare.residual_bits),
                static_cast<unsigned long long>(wrapped.residual_bits),
                static_cast<unsigned long long>(bare.field_fnv),
                static_cast<unsigned long long>(wrapped.field_fnv));
    ok = false;
  }
  // CG applies M and M^dagger once per iteration, plus the initial residual.
  if (dirac_spans < 2 * wrapped.iterations) {
    std::printf("FAIL: %d Dirac spans for %d iterations\n", dirac_spans,
                wrapped.iterations);
    ok = false;
  }
  if (argc > 1) {
    std::ofstream(argv[1]) << tracer.chrome_json();
  }
  std::printf("%s: %d iterations, %d Dirac spans, residual bits %016llx\n",
              ok ? "PASS" : "FAIL", wrapped.iterations, dirac_spans,
              static_cast<unsigned long long>(wrapped.residual_bits));
  return ok ? 0 : 1;
}
