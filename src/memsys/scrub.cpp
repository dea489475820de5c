#include "memsys/scrub.h"

namespace qcdoc::memsys {

MemScrubber::MemScrubber(sim::EngineRef engine, NodeMemory* mem,
                         ScrubConfig cfg)
    : engine_(engine), mem_(mem), cfg_(cfg) {}

void MemScrubber::start() {
  if (running_) return;
  running_ = true;
  engine_.schedule(cfg_.period_cycles, [this] { burst(); });
}

void MemScrubber::burst() {
  if (!running_) return;
  mem_->ecc().scrub_step(cfg_.rows_per_period, cfg_.cycles_per_row);
  engine_.schedule(cfg_.period_cycles, [this] { burst(); });
}

}  // namespace qcdoc::memsys
