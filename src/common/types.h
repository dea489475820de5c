// Basic types shared across the QCDOC model.  Each paper hardware figure is
// a named constant beside the model that reads it (memsys, scu, hssl, cpu,
// net); the node clock is MachineConfig::clock_hz.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

namespace qcdoc {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Simulated time is counted in CPU cycles of the node clock.
using Cycle = std::uint64_t;

/// Identifies one processing node (ASIC + DIMM) within a machine.
struct NodeId {
  u32 value = 0;
  friend bool operator==(NodeId, NodeId) = default;
  friend auto operator<=>(NodeId, NodeId) = default;
};

}  // namespace qcdoc
