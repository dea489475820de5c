// A Dirac operator that forwards to a real one and records one
// "lattice.dirac" span per application.  Solvers take a DiracOperator&, so
// wrapping the operator is how the benchmark times Dirac applications from
// outside the library.  The wrapper shares the wrapped operator's field
// operations and geometry, so fields it makes and the arithmetic it runs are
// those of the wrapped operator.
#pragma once

#include "lattice/dirac.h"
#include "trace.h"

namespace perfbench {

class TracedDirac : public qcdoc::lattice::DiracOperator {
 public:
  TracedDirac(qcdoc::lattice::DiracOperator& inner, Tracer& tracer,
              const Probe* probe)
      : DiracOperator(&inner.ops(), &inner.geometry()),
        inner_(inner),
        tracer_(tracer),
        probe_(probe) {}

  const char* name() const override { return inner_.name(); }
  int site_doubles() const override { return inner_.site_doubles(); }
  int halo_doubles() const override { return inner_.halo_doubles(); }
  int halo_slabs() const override { return inner_.halo_slabs(); }
  int halo_slabs_minus() const override { return inner_.halo_slabs_minus(); }
  double flops_per_apply() const override { return inner_.flops_per_apply(); }

  void apply(qcdoc::lattice::DistField& out,
             qcdoc::lattice::DistField& in) override {
    ScopedSpan span(tracer_, "lattice.dirac", probe_);
    inner_.apply(out, in);
  }
  void apply_dag(qcdoc::lattice::DistField& out,
                 qcdoc::lattice::DistField& in) override {
    ScopedSpan span(tracer_, "lattice.dirac", probe_);
    inner_.apply_dag(out, in);
  }

 private:
  qcdoc::lattice::DiracOperator& inner_;
  Tracer& tracer_;
  const Probe* probe_;
};

}  // namespace perfbench
