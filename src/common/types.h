// Basic types and hardware constants shared across the QCDOC model.
//
// All quantities that appear in the SC'04 paper are collected in HwParams so
// that every bench/test refers to a single authoritative set of numbers.
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

/// Simulated time is counted in CPU cycles of the node clock.  The global
/// 40 MHz clock and wall-clock conversions are derived from HwParams.
using Cycle = std::uint64_t;

/// Hardware parameters of one QCDOC configuration.  Defaults describe the
/// design-point 500 MHz machine; the paper also reports 360/420/450 MHz
/// operation for real installations.
struct HwParams {
  // --- Clocks ---------------------------------------------------------
  double cpu_clock_hz = 500e6;    ///< node clock; serial links run at this rate
  double global_clock_hz = 40e6;  ///< motherboard-distributed global clock

  // --- Processor (PPC 440 + FPU64) -------------------------------------
  int flops_per_cycle = 2;        ///< one fused multiply-add per cycle
  std::size_t icache_bytes = 32 * 1024;
  std::size_t dcache_bytes = 32 * 1024;
  std::size_t dcache_line_bytes = 32;

  // --- Memory system ----------------------------------------------------
  std::size_t edram_bytes = 4 * 1024 * 1024;  ///< on-chip embedded DRAM
  int edram_row_bits = 1024;                  ///< EDRAM read/write width
  int edram_cpu_word_bits = 128;              ///< data-cache connection width
  int edram_prefetch_streams = 2;             ///< concurrent prefetch streams
  Cycle edram_page_miss_cycles = 11;          ///< stream-switch penalty
  double ddr_bandwidth_Bps = 2.6e9;           ///< external DDR SDRAM
  std::size_t ddr_bytes = 128ull * 1024 * 1024;  ///< per-node DIMM (128MB-2GB)
  Cycle ddr_page_miss_cycles = 25;

  // --- Serial Communications Unit --------------------------------------
  int mesh_dims = 6;             ///< six-dimensional torus
  int links_per_node = 12;       ///< nearest neighbours in 6-D
  int scu_packet_header_bits = 8;
  int scu_data_bits = 64;        ///< normal-transfer payload word
  int scu_ack_window = 3;        ///< "three in the air" protocol
  Cycle scu_dma_setup_cycles = 150;   ///< DMA fetch + SCU injection path
  Cycle scu_dma_landing_cycles = 66;  ///< receive-side DMA store path
  int scu_global_passthrough_bits = 8;  ///< bits buffered before forwarding

  // --- Host / Ethernet ---------------------------------------------------
  double ethernet_bps = 100e6;       ///< per-node 100 Mbit Ethernet
  double cluster_net_latency_s = 7.5e-6;  ///< commodity net: "5-10 us to begin"
  double cluster_net_bandwidth_Bps = 125e6;  ///< GigE-class comparator

  // --- Derived -----------------------------------------------------------
  double peak_flops_per_node() const { return cpu_clock_hz * flops_per_cycle; }
  double seconds(Cycle c) const { return static_cast<double>(c) / cpu_clock_hz; }
  /// Serial-link payload efficiency: 64 data bits per 72-bit packet.
  double link_packet_efficiency() const {
    return static_cast<double>(scu_data_bits) /
           static_cast<double>(scu_data_bits + scu_packet_header_bits);
  }
  /// Raw per-link bandwidth in bytes/second (1 bit per CPU cycle).
  double link_raw_Bps() const { return cpu_clock_hz / 8.0; }
  /// Aggregate SCU bandwidth over 24 unidirectional links (paper: 1.3 GB/s).
  double scu_aggregate_Bps() const {
    return 2.0 * links_per_node * link_raw_Bps() * link_packet_efficiency();
  }
  /// CPU-to-EDRAM bandwidth (paper: 8 GB/s at 500 MHz).
  double edram_bandwidth_Bps() const {
    return cpu_clock_hz * edram_cpu_word_bits / 8.0;
  }
};

/// Identifies one processing node (ASIC + DIMM) within a machine.
struct NodeId {
  u32 value = 0;
  friend bool operator==(NodeId, NodeId) = default;
  friend auto operator<=>(NodeId, NodeId) = default;
};

}  // namespace qcdoc
