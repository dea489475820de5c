// E5: bandwidths of the three data paths.
//
// Paper: "The total bandwidth is 1.3 GBytes/second at 500 MHz" for the 24
// SCU links (Section 2.2); "a maximum bandwidth of 8 GBytes/second between
// the processor and EDRAM"; "a controller for external DDR SDRAM, with a
// bandwidth of 2.6 GBytes/second" (Section 2.1).
#include "bench_util.h"
#include "machine/machine.h"
#include "scu/packet.h"

using namespace qcdoc;

int main() {
  bench::print_header(
      "E5: bench_bandwidth -- SCU / EDRAM / DDR bandwidths at 500 MHz",
      "aggregate SCU 1.3 GB/s (24 bit-serial links, 72-bit packets); "
      "CPU<->EDRAM 8 GB/s; DDR 2.6 GB/s");

  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();

  // Measure one link by streaming a long transfer.
  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId a{0};
  const NodeId b = m.topology().neighbor(a, link);
  const u64 words = 4096;
  auto src = m.memory(a).alloc(words, "src");
  auto dst = m.memory(b).alloc(words, "dst");
  auto& recv = m.scu(b).recv_dma(torus::facing_link(link));
  recv.start(scu::DmaDescriptor{dst.word_addr, static_cast<u32>(words), 1, 0});
  const Cycle start = m.engine().now();
  m.scu(a).send_dma(link).start(
      scu::DmaDescriptor{src.word_addr, static_cast<u32>(words), 1, 0});
  if (!m.mesh().drain()) {
    std::fprintf(stderr, "stalled link: transfer never completed\n");
    return 1;
  }
  const double seconds = m.seconds(m.engine().now() - start);
  const double link_Bps = static_cast<double>(words * 8) / seconds;
  const double aggregate_GBps = link_Bps * 24 / 1e9;

  const double clock_hz = m.config().clock_hz;
  const double edram_GBps = memsys::kEdramBytesPerCycle * clock_hz / 1e9;
  const double ddr_GBps =
      m.mem_timing().ddr_bytes_per_cycle * clock_hz / 1e9;
  const double packet_efficiency =
      static_cast<double>(scu::kWordBits) / scu::kWordFrameBits;

  std::vector<perf::Row> rows = {
      {"E5", "per-link payload", 64.0 / 72 * 500 / 8, link_Bps / 1e6, "MB/s"},
      {"E5", "aggregate SCU (24 links)", 1.3, aggregate_GBps, "GB/s"},
      {"E5", "CPU <-> EDRAM", 8.0, edram_GBps, "GB/s"},
      {"E5", "DDR SDRAM", 2.6, ddr_GBps, "GB/s"},
      {"E5", "packet efficiency", 8.0 / 9.0, packet_efficiency, "fraction"},
  };
  bench::print_rows(rows);
  return 0;
}
