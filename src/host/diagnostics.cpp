#include "host/diagnostics.h"

namespace qcdoc::host {

ChecksumReport Diagnostics::verify_checksums() const {
  ChecksumReport report;
  report.links_checked =
      machine_->num_nodes() * torus::kLinksPerNode;
  report.all_match =
      machine_->mesh().verify_link_checksums(&report.mismatches);
  return report;
}

LinkErrorScan Diagnostics::scan_link_errors() const {
  LinkErrorScan scan;
  for (int i = 0; i < machine_->num_nodes(); ++i) {
    const NodeId n{static_cast<u32>(i)};
    scu::Scu& node_scu = machine_->mesh().scu(n);
    u64 detected = 0;
    u64 undetected = 0;
    u64 resends = 0;
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      detected += node_scu.recv_side(link).detected_errors();
      undetected += node_scu.recv_side(link).undetected_errors();
      resends += node_scu.send_side(link).resends();
    }
    scan.detected_errors += detected;
    scan.undetected_errors += undetected;
    scan.resends += resends;
    if (detected + undetected + resends > 0) scan.suspect_nodes.push_back(n);
  }
  return scan;
}

void Diagnostics::jtag_round_trip(NodeId n) {
  // One command packet down, one response packet up; run to delivery.
  bool done = false;
  eth_->host_to_node(n, 64, net::EthKind::kJtag, [this, n, &done] {
    eth_->node_to_host(n, 64, [&done] { done = true; });
  });
  machine_->engine().run_while([&] { return !done; });
}

u64 Diagnostics::jtag_peek(NodeId n, u64 word_addr) {
  jtag_round_trip(n);
  return machine_->memory(n).read_word(word_addr);
}

void Diagnostics::jtag_poke(NodeId n, u64 word_addr, u64 value) {
  jtag_round_trip(n);
  machine_->memory(n).write_word(word_addr, value);
}

}  // namespace qcdoc::host
