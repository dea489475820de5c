// E9: the "three in the air" acknowledgement window (ablation).
//
// Paper Section 2.2: "up to three, 64 bit data words can be sent before an
// acknowledgement is given.  This 'three in the air' protocol allows full
// bandwidth to be achieved between nodes, and amortizes the time for a
// round-trip handshake."  Sweeping the window shows why three: one and two
// words in flight leave the wire idle during the handshake; three saturate
// the 72-bit serialization.
#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "scu/link.h"
#include "sim/engine.h"

using namespace qcdoc;
using namespace qcdoc::scu;

namespace {

/// Achieved payload bandwidth (fraction of the 64/72 wire limit) for a
/// window size.
double bandwidth_fraction(int window) {
  sim::Engine engine;
  sim::StatSet stats;
  hssl::HsslConfig hc;
  hc.training_cycles = 16;
  Rng rng(42);
  LinkParams params;
  params.ack_window = window;
  auto wab = std::make_unique<hssl::Hssl>(&engine, hc, rng.split(), &stats);
  auto wba = std::make_unique<hssl::Hssl>(&engine, hc, rng.split(), &stats);
  SendSide send_a(&engine, wab.get(), params, &stats);
  SendSide send_b(&engine, wba.get(), params, &stats);
  RecvSide recv_a(&engine, params, &stats, rng.split());
  RecvSide recv_b(&engine, params, &stats, rng.split());
  send_a.set_remote(&recv_b);
  send_b.set_remote(&recv_a);
  recv_b.set_reverse(&send_b);
  recv_a.set_reverse(&send_a);
  wab->power_on();
  wba->power_on();

  recv_b.set_data_sink([](u64) {});
  const int n = 500;
  for (int i = 0; i < n; ++i) send_a.enqueue_data(static_cast<u64>(i));
  engine.run_until_idle();
  const double cycles = static_cast<double>(engine.now() - 16);
  const double ideal = n * 72.0;  // back-to-back 72-bit frames
  return ideal / cycles;
}

}  // namespace

int main() {
  bench::print_header(
      "E9: bench_ack_window -- 'three in the air' ablation",
      "window 3 sustains full link bandwidth; smaller windows stall on the "
      "acknowledgement round trip");

  std::vector<perf::Row> rows;
  for (int w = 1; w <= 4; ++w) {
    const double frac = bandwidth_fraction(w);
    char qty[48];
    std::snprintf(qty, sizeof(qty), "window %d", w);
    rows.push_back({"E9", qty, w >= 3 ? 100.0 : 0.0, 100.0 * frac,
                    "% of serialization limit"});
  }
  bench::print_rows(rows);
  std::printf(
      "\nper-link payload at window 3: %.1f MB/s of %.1f MB/s wire limit "
      "(500 MHz)\n",
      bandwidth_fraction(3) * 64.0 / 72.0 * 500e6 / 8 / 1e6,
      64.0 / 72.0 * 500e6 / 8 / 1e6);
  return 0;
}
