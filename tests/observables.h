// Gauge observables and gauge transformations.
//
// The measurements a QCD campaign on QCDOC actually produces: Wilson loops
// (the static quark potential / confinement signal), the Polyakov loop (the
// deconfinement order parameter), and gauge transformations -- which double
// as the sharpest correctness tool available, since every physical
// observable must be exactly invariant under them.
//
// Like the plaquette, these are host-orchestrated measurements (global
// access); the timed production kernels are the Dirac solvers.  Only the
// Observables suite in test_lattice.cpp uses them, so they are built into
// that test rather than the library.
#pragma once

#include "lattice/gauge.h"

namespace qcdoc::lattice {

/// Average R x T Wilson loop, Re Tr W / 3, over all sites and all
/// (spatial, temporal) plane orientations with extent R in the spatial and
/// T in the temporal (mu = 3) direction.
double wilson_loop(const GaugeField& gauge, int r_extent, int t_extent);

/// Average Polyakov loop: Tr of the product of temporal links winding the
/// lattice, averaged over spatial sites.  Order parameter for
/// deconfinement; identically 1 for a free field.
Complex polyakov_loop(const GaugeField& gauge);

/// Apply a random gauge transformation g(x):
///   U_mu(x) -> g(x) U_mu(x) g^+(x + mu).
/// All gauge-invariant observables (plaquette, Wilson loops, Polyakov loop,
/// Dirac spectra) must be unchanged.
void random_gauge_transform(GaugeField* gauge, Rng& rng);

/// One microcanonical overrelaxation sweep (Cabibbo-Marinari SU(2)
/// subgroups, a -> (v^+)^2): moves the configuration as far as possible
/// while exactly preserving the action -- the plaquette is invariant to
/// rounding.  Production updates mixed heatbath and overrelaxation sweeps
/// to decorrelate faster at fixed acceptance.
void overrelax_sweep(GaugeField* gauge);

}  // namespace qcdoc::lattice
