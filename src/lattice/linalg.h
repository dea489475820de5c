// Distributed linear algebra over DistFields.
//
// The Krylov solvers are dominated by the Dirac operator, but their axpy /
// norm / inner-product "glue" is bandwidth-bound on the EDRAM and their
// inner products need machine-wide sums -- both of which the paper's
// architecture specifically provides for (prefetching EDRAM controller,
// SCU global mode).  Every operation here executes functionally on the
// simulated node memories AND advances the machine clock via the CPU timing
// model / global-operation model.
#pragma once

#include <array>
#include <initializer_list>

#include "comms/comms.h"
#include "cpu/timing.h"
#include "lattice/field.h"
#include "machine/bsp.h"

namespace qcdoc::lattice {

/// Flop/byte traffic attributed to one storage precision.  The solvers
/// report per-precision deltas of these counters, which is how the timing
/// model's mixed-precision predictions stay honest: half-precision spinors
/// really do move ~2.25 bytes/word where double moves 8.
struct PrecisionTraffic {
  double flops = 0;
  double load_bytes = 0;
  double store_bytes = 0;
  double edram_bytes = 0;  ///< share of traffic served by on-chip EDRAM
  double ddr_bytes = 0;    ///< share stalling on external DDR

  double bytes() const { return load_bytes + store_bytes; }
  PrecisionTraffic& operator+=(const PrecisionTraffic& o);
  PrecisionTraffic operator-(const PrecisionTraffic& o) const;
};

using TrafficByPrecision = std::array<PrecisionTraffic, kNumPrecisions>;

TrafficByPrecision operator-(const TrafficByPrecision& a,
                             const TrafficByPrecision& b);
double total_bytes(const TrafficByPrecision& t);
double total_flops(const TrafficByPrecision& t);

class FieldOps {
 public:
  FieldOps(machine::BspRunner* bsp, const cpu::CpuModel* cpu,
           comms::Communicator* comm)
      : bsp_(bsp), cpu_(cpu), comm_(comm) {}

  /// y += a x
  void axpy(double a, const DistField& x, DistField& y);
  /// y = x + a y
  void xpay(const DistField& x, double a, DistField& y);
  /// y = a x + b y (fused multi-shift update; one stream pass).
  void axpby(double a, const DistField& x, double b, DistField& y);
  /// y = a x
  void scale_copy(double a, const DistField& x, DistField& y);
  void copy(const DistField& x, DistField& y);
  void zero(DistField& y);

  /// ||x||^2 over the whole machine (local reduction + SCU global sum).
  double norm2(const DistField& x);
  /// Re <x, y> over the whole machine.
  double dot_re(const DistField& x, const DistField& y);

  // Complex-scalar operations (fields are arrays of re/im pairs).  These
  // serve the non-Hermitian Krylov solvers (BiCGStab), which need complex
  // inner products -- two words through the SCU global-sum rings, pipelined.
  /// <x, y> = sum conj(x) y.
  Complex cdot(const DistField& x, const DistField& y);
  /// y += a x with complex a.
  void caxpy(const Complex& a, const DistField& x, DistField& y);
  /// y = x + a y with complex a.
  void cxpay(const DistField& x, const Complex& a, DistField& y);

  /// Total flops this FieldOps has accounted (for efficiency reports).
  double flops() const { return flops_; }

  /// Running flop/byte ledger split by storage precision.  Vector ops feed
  /// it automatically; Dirac operators feed it via account_kernel.  Solvers
  /// snapshot it before/after a solve and report the delta.
  const TrafficByPrecision& traffic() const { return traffic_; }

  /// Credit one kernel's per-node profile, replicated over `ranks` nodes,
  /// to the given precision bucket (and to the total flop counter).
  void account_kernel(const cpu::KernelProfile& per_node, int ranks,
                      Precision p);

  machine::BspRunner& bsp() { return *bsp_; }
  const cpu::CpuModel& cpu() const { return *cpu_; }
  comms::Communicator& comm() { return *comm_; }

 private:
  /// Profile of a streaming vector op over the read operands plus an
  /// optional written field.  Byte widths follow each operand's storage
  /// precision (8/4/2.25 per double); the memory region is attributed to
  /// the first read operand (or the written field for write-only ops),
  /// matching the historical single-width accounting bit-for-bit when every
  /// operand is double.  Also feeds the per-precision traffic ledger and
  /// the total flop counter.
  cpu::KernelProfile stream_profile(std::initializer_list<const DistField*> reads,
                                    const DistField* write,
                                    double fmadd_per_double,
                                    double other_per_double);
  double global_sum(double local_partial_flops_hint, std::vector<double> partials);

  machine::BspRunner* bsp_;
  const cpu::CpuModel* cpu_;
  comms::Communicator* comm_;
  double flops_ = 0;
  TrafficByPrecision traffic_{};
};

}  // namespace qcdoc::lattice
