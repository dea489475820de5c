#include "sim/stats.h"

namespace qcdoc::sim {

void StatSet::add(const std::string& name, u64 delta) { counters_[name] += delta; }

u64 StatSet::get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

}  // namespace qcdoc::sim
