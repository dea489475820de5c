// E3: nearest-neighbour memory-to-memory latency.
//
// Paper Section 2.2: "This leads to a memory-to-memory transfer time of
// about 600 ns for a nearest neighbor transfer ... for transfers as small
// as 24, 64 bit words to a neighbor, the latency of 600 ns for the first
// word is still small compared to the 3.3 us time for the remaining 23
// words.  Our 600 ns memory-to-memory latency is to be compared to times
// of 5-10 us just to begin a transfer when using standard networks like
// Ethernet."
#include "bench_util.h"
#include "machine/machine.h"
#include "net/cluster_net.h"

using namespace qcdoc;

int main() {
  bench::print_header(
      "E3: bench_link_latency -- nearest-neighbour SCU transfer",
      "~600 ns memory-to-memory first word; 24 words = 600 ns + 3.3 us; "
      "commodity networks need 5-10 us just to begin a transfer");

  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 1, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();

  const auto link = torus::link_index(0, torus::Dir::kPlus);
  const NodeId a{0};
  const NodeId b = m.topology().neighbor(a, link);
  auto src = m.memory(a).alloc(24, "src");
  auto dst = m.memory(b).alloc(24, "dst");
  for (u64 i = 0; i < 24; ++i) m.memory(a).write_word(src.word_addr + i, i);

  auto& recv = m.scu(b).recv_dma(torus::facing_link(link));
  recv.start(scu::DmaDescriptor{dst.word_addr, 24, 1, 0});
  const Cycle start = m.engine().now();
  m.scu(a).send_dma(link).start(scu::DmaDescriptor{src.word_addr, 24, 1, 0});
  if (!m.mesh().drain()) {
    std::fprintf(stderr, "stalled link: transfer never completed\n");
    return 1;
  }

  const double first_us = m.microseconds(recv.first_word_landed_at() - start);
  const double rest_us =
      m.microseconds(recv.last_word_landed_at() - recv.first_word_landed_at());

  const net::ClusterNet cluster(m.config().clock_hz);
  const double eth_start_us = m.microseconds(cluster.message_cycles(8));

  std::vector<perf::Row> rows = {
      {"E3", "first word mem-to-mem", 0.600, first_us, "us"},
      {"E3", "remaining 23 words", 3.3, rest_us, "us"},
      {"E3", "Ethernet transfer start", 7.5, eth_start_us, "us (5-10 paper)"},
      {"E3", "QCDOC/cluster latency ratio", 7.5 / 0.6, eth_start_us / first_us,
       "x"},
  };
  bench::print_rows(rows);
  return 0;
}
