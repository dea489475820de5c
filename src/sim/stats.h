// Named statistics registry.
//
// Every hardware model publishes counters (packets sent, resends, page
// misses, stall cycles...) into a StatSet owned by its machine, so benches
// and diagnostics read one uniform interface.
#pragma once

#include <map>
#include <string>

#include "common/types.h"

namespace qcdoc::sim {

class StatSet {
 public:
  /// Add `delta` to counter `name`, creating it at zero if absent.
  void add(const std::string& name, u64 delta = 1);
  /// Stable pointer to the counter cell, creating it at zero if absent.
  /// std::map nodes never move, so hot paths (per-word, per-frame counters
  /// bumped tens of millions of times per solve) resolve the cell once at
  /// construction and increment through the pointer instead of paying a
  /// string-keyed tree lookup per event.
  u64* cell(const std::string& name) { return &counters_[name]; }
  /// Value of `name`, or 0 if never touched.
  u64 get(const std::string& name) const;

 private:
  std::map<std::string, u64> counters_;
};

}  // namespace qcdoc::sim
