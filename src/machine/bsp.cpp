#include "machine/bsp.h"

#include <algorithm>

#include "common/log.h"

namespace qcdoc::machine {

void BspRunner::compute(double cycles) {
  const Cycle start = now();
  machine_->engine().run_until(start + static_cast<Cycle>(cycles + 0.5));
  compute_cycles_ += cycles;
}

Cycle BspRunner::communicate() {
  const Cycle start = now();
  if (!machine_->mesh().drain()) {
    QCDOC_ERROR << "mesh stalled during communication phase";
    return ~Cycle{0};
  }
  const Cycle elapsed = now() - start;
  comm_cycles_ += static_cast<double>(elapsed);
  return elapsed;
}

Cycle BspRunner::overlap(double compute_cycles,
                         const std::function<void()>& post) {
  const Cycle start = now();
  post();
  if (!machine_->mesh().drain()) {
    QCDOC_ERROR << "mesh stalled during overlapped phase";
    return ~Cycle{0};
  }
  const Cycle comm_end = now();
  const Cycle compute_end = start + static_cast<Cycle>(compute_cycles + 0.5);
  const Cycle phase_end = std::max(comm_end, compute_end);
  machine_->engine().run_until(phase_end);

  const double comm = static_cast<double>(comm_end - start);
  compute_cycles_ += compute_cycles;
  if (comm > compute_cycles) {
    comm_cycles_ += comm - compute_cycles;  // exposed communication
    hidden_cycles_ += compute_cycles;
  } else {
    hidden_cycles_ += comm;  // fully hidden under compute
  }
  return phase_end - start;
}

void BspRunner::global_op(Cycle cycles) {
  machine_->engine().run_until(now() + cycles);
  global_cycles_ += static_cast<double>(cycles);
}

}  // namespace qcdoc::machine
