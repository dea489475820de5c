#include "snapshot/machine_state.h"

#include <limits>
#include <string>

#include "memsys/scrub.h"
#include "torus/coords.h"

namespace qcdoc::snapshot {

namespace {

using machine::Machine;

// Bump a section's version (and teach its layout both) when its bytes
// change without a whole-format bump.
constexpr SectionSpec kMeta{kSecMeta, 1, 0};
constexpr SectionSpec kEngine{kSecEngine, 1, 0};
constexpr SectionSpec kMemory{kSecMemory, 1, 0};
constexpr SectionSpec kEcc{kSecEcc, 1, 0};
constexpr SectionSpec kScu{kSecScu, 1, 0};
constexpr SectionSpec kHealth{kSecHealth, 1, kSectionOptional};
constexpr SectionSpec kAudit{kSecAudit, 1, kSectionOptional};
constexpr SectionSpec kService{kSecService, 1, kSectionOptional};

// Each *_fields template below is the one statement of its section's
// layout: capture runs it over a ByteSink, restore over a ByteSource.  Every
// field starts out as the machine's own value, so on a sink the checks
// against the machine pass and only the fields are written; on a source the
// checks compare the file with the replayed machine, and the state is
// applied once the fields it needs have decoded cleanly.

template <class IO>
void rng_fields(IO& io, Rng::State& st) {
  for (u64& w : st.s) io.field(w);
  io.field(st.have_spare);
  io.field(st.spare_bits);
}

// --- META -------------------------------------------------------------------

template <class IO>
Status meta_fields(IO& io, Machine& m, bool& scrubbing,
                   memsys::ScrubConfig& scfg) {
  const machine::MachineConfig& cfg = m.config();
  for (int d = 0; d < torus::kMaxDims; ++d) {
    const int want = cfg.shape.extent[static_cast<size_t>(d)];
    u32 extent = static_cast<u32>(want);
    io.field(extent);
    if (!io.ok()) return io.status();
    if (static_cast<int>(extent) != want) {
      return Status::fail("geometry mismatch: snapshot mesh " +
                          std::to_string(extent) + " in dim " +
                          std::to_string(d) + ", machine has " +
                          std::to_string(want));
    }
  }
  double clock_hz = cfg.clock_hz, ber = cfg.bit_error_rate;
  u64 seed = cfg.seed, edram = cfg.mem.edram_words, ddr = cfg.mem.ddr_words;
  u64 row = cfg.mem.ecc.edram_row_words, burst = cfg.mem.ecc.ddr_burst_words;
  io.field(clock_hz);
  io.field(ber);
  io.field(seed);
  io.field(edram);
  io.field(ddr);
  io.field(row);
  io.field(burst);
  if (!io.ok()) return io.status();
  if (clock_hz != cfg.clock_hz || ber != cfg.bit_error_rate) {
    return Status::fail("config mismatch: snapshot clock/BER differ");
  }
  if (seed != cfg.seed) {
    return Status::fail("seed mismatch: snapshot has " + std::to_string(seed) +
                        ", machine has " + std::to_string(cfg.seed) +
                        " (RNG streams would diverge)");
  }
  if (edram != cfg.mem.edram_words || ddr != cfg.mem.ddr_words ||
      row != cfg.mem.ecc.edram_row_words ||
      burst != cfg.mem.ecc.ddr_burst_words) {
    return Status::fail("memory geometry mismatch (EDRAM/DDR/ECC sizes)");
  }
  scrubbing = m.mesh().scrubbing();
  if (scrubbing) scfg = m.mesh().scrubber(NodeId{0}).config();
  io.field(scrubbing);
  io.field(scfg.period_cycles);
  io.field(scfg.rows_per_period);
  io.field(scfg.cycles_per_row);
  return io.finish();
}

// --- ENGINE -----------------------------------------------------------------

template <class IO>
Status engine_fields(IO& io, Machine& m) {
  sim::EngineClockState st = m.engine().capture_clock();
  io.field(st.now);
  io.field(st.events_executed);
  io.count(st.streams);
  for (sim::EngineStreamState& s : st.streams) {
    io.field(s.rank);
    io.field(s.scheduled);
    io.field(s.executed);
    io.field(s.digest);
  }
  if (Status s = io.finish(); !s) return s;
  if constexpr (IO::kReading) {
    try {
      m.engine().restore_clock(st);
    } catch (const std::logic_error& e) {
      return Status::fail(std::string("engine restore: ") + e.what());
    }
  }
  return Status::good();
}

// --- MEMORY -----------------------------------------------------------------

template <class IO>
Status memory_fields(IO& io, Machine& m) {
  u32 n = static_cast<u32>(m.num_nodes());
  io.field(n);
  if (!io.ok()) return io.status();
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("node count mismatch: snapshot has " +
                        std::to_string(n) + ", machine has " +
                        std::to_string(m.num_nodes()));
  }
  for (u32 i = 0; i < n; ++i) {
    const NodeId node{i};
    net::NodeCondition condition = m.mesh().condition(node);
    io.field(condition, net::NodeCondition::kCrashed, "node condition");
    if (!io.ok()) return io.status();
    if constexpr (IO::kReading) m.mesh().set_condition(node, condition);
    // Capture streams each allocation's words straight from node memory.
    std::vector<memsys::NodeMemory::ChunkView> chunks =
        m.memory(node).chunks();
    u64 chunk_count = chunks.size();
    io.field(chunk_count);
    if (!io.ok()) return io.status();
    if (chunk_count != chunks.size()) {
      return Status::fail(
          "allocation layout mismatch on node " + std::to_string(i) +
          ": snapshot has " + std::to_string(chunk_count) +
          " allocations, replayed machine has " +
          std::to_string(chunks.size()) +
          " (the restoring process must replay the identical allocation "
          "sequence before restoring)");
    }
    for (memsys::NodeMemory::ChunkView& c : chunks) {
      io.field(c.base);
      io.field(c.words);
      if (!io.ok()) return io.status();
      if (IO::kReading && !m.memory(node).restore_chunk(c.base, c.words)) {
        return Status::fail("allocation layout mismatch on node " +
                            std::to_string(i) + " at word address " +
                            std::to_string(c.base));
      }
    }
  }
  return io.finish();
}

// --- ECC --------------------------------------------------------------------

template <class IO>
Status ecc_fields(IO& io, Machine& m) {
  u32 n = static_cast<u32>(m.num_nodes());
  io.field(n);
  if (!io.ok()) return io.status();
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("ECC section node count mismatch");
  }
  for (u32 i = 0; i < n; ++i) {
    memsys::NodeMemory& mem = m.memory(NodeId{i});
    memsys::EccModel& ecc = mem.ecc();
    memsys::EccState st = ecc.capture_state();
    io.field(st.counters.upsets);
    io.field(st.counters.corrected);
    io.field(st.counters.uncorrectable);
    io.field(st.counters.cleared_by_rewrite);
    io.field(st.counters.scrub_rows);
    io.field(st.counters.scrub_cycles);
    io.count(st.codewords);
    for (memsys::EccState::CodewordState& cw : st.codewords) {
      io.field(cw.key);
      io.field(cw.poisoned);
      io.count(cw.flips);
      for (memsys::EccState::FlipState& f : cw.flips) {
        io.field(f.word_addr);
        io.field(f.bit, 63, "ECC flip bit");
        io.field(f.corrupted_value);
        io.field(f.applied);
        // An applied flip is re-read from storage when its codeword settles,
        // so its word must lie in one of the node's restored allocations.
        if (IO::kReading && io.ok() && f.applied &&
            mem.words_in_one_allocation(f.word_addr, 1).empty()) {
          return Status::fail("ECC flip word address " +
                              std::to_string(f.word_addr) + " on node " +
                              std::to_string(i) + " lies in no allocation");
        }
      }
    }
    io.count(st.latched);
    for (memsys::MemCheckEvent& e : st.latched) {
      io.field(e.word_addr);
      io.field(e.region, memsys::Region::kDdr, "machine-check region");
    }
    io.field(st.scrub_cursor);
    if (!io.ok()) return io.status();
    if constexpr (IO::kReading) ecc.restore_state(st);
  }
  return io.finish();
}

// --- SCU --------------------------------------------------------------------

template <class IO>
Status scu_fields(IO& io, Machine& m) {
  u32 n = static_cast<u32>(m.num_nodes());
  io.field(n);
  if (!io.ok()) return io.status();
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("SCU section node count mismatch");
  }
  for (u32 i = 0; i < n; ++i) {
    scu::Scu& scu = m.scu(NodeId{i});
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      bool has = scu.has_link(link);
      io.field(has);
      if (!io.ok()) return io.status();
      if (has != scu.has_link(link)) {
        return Status::fail("link topology mismatch on node " +
                            std::to_string(i) + " link " + std::to_string(l));
      }
      if (!has) continue;
      scu::SendSide& send = scu.send_side(link);
      scu::RecvSide& recv = scu.recv_side(link);
      u64 send_ck = send.checksum(), send_words = send.words_accepted();
      u64 resends = send.resends();
      u64 recv_ck = recv.checksum(), recv_words = recv.words_received();
      u64 detected = recv.detected_errors();
      u64 undetected = recv.undetected_errors();
      Rng::State rng = recv.corruption_rng().state();
      io.field(send_ck);
      io.field(send_words);
      io.field(resends);
      io.field(recv_ck);
      io.field(recv_words);
      io.field(detected);
      io.field(undetected);
      rng_fields(io, rng);
      if (!io.ok()) return io.status();
      if constexpr (IO::kReading) {
        send.restore_integrity(send_ck, send_words, resends);
        recv.restore_integrity(recv_ck, recv_words, detected, undetected);
        recv.corruption_rng().set_state(rng);
      }
    }
  }
  return io.finish();
}

// --- HEALTH -----------------------------------------------------------------

template <class IO>
Status health_fields(IO& io, host::HealthMonitor& health) {
  host::HealthMonitor::State st = health.capture_state();
  io.count(st.health);
  for (host::NodeHealth& h : st.health) {
    io.field(h, host::NodeHealth::kFailed, "node health");
  }
  io.field(st.resend_base);
  io.field(st.recv_err_base);
  io.field(st.mem_corrected_base);
  io.field(st.sweeps);
  if (Status s = io.finish(); !s) return s;
  if (IO::kReading && !health.restore_state(st)) {
    return Status::fail("health section does not match machine geometry");
  }
  return Status::good();
}

// --- AUDIT ------------------------------------------------------------------

template <class IO>
Status audit_fields(IO& io, const MachineExtras& extras) {
  fault::ChecksumAuditor* links = extras.auditor;
  bool has = links != nullptr;
  io.field(has);
  if (has) {
    u64 audits = links ? links->audits() : 0;
    u64 failures = links ? links->failures() : 0;
    io.field(audits);
    io.field(failures);
    if (!io.ok()) return io.status();
    if (IO::kReading && links != nullptr) {
      links->restore_counters(audits, failures);
      // The restored link checksums are this instant's baselines: the
      // snapshot was taken right after an audit re-baselined.
      links->rebaseline();
    }
  }
  fault::MemCheckAuditor* mem = extras.mem_auditor;
  has = mem != nullptr;
  io.field(has);
  if (has) {
    u64 audits = mem ? mem->audits() : 0;
    u64 failures = mem ? mem->failures() : 0;
    u64 checks = mem ? mem->machine_checks() : 0;
    io.field(audits);
    io.field(failures);
    io.field(checks);
    if (!io.ok()) return io.status();
    if (IO::kReading && mem != nullptr) {
      mem->restore_counters(audits, failures, checks);
    }
  }
  return io.finish();
}

// --- SERVICE ----------------------------------------------------------------

/// Bits one memory upset can flip: they all land in one 64-bit word.
constexpr int kMaxUpsetBits = 64;

template <class IO>
Status service_fields(IO& io, Machine& m, fault::FaultInjector* injector) {
  bool has = injector != nullptr;
  io.field(has);
  if (!has) return io.finish();
  u64 injected = injector ? injector->injected() : 0;
  std::vector<fault::FaultEvent> plan;
  if (injector != nullptr) plan = injector->pending_plan();
  io.field(injected);
  io.count(plan);
  const u32 last_node = static_cast<u32>(m.num_nodes() - 1);
  for (fault::FaultEvent& e : plan) {
    io.field(e.at);
    io.field(e.kind, fault::FaultKind::kMemUpset, "fault kind");
    io.field(e.node.value, last_node, "fault node");
    io.field(e.link.value, torus::kLinksPerNode - 1, "fault link");
    io.field(e.bit_error_rate);
    io.field(e.duration);
    // apply() loops over the count; an upset's flips wrap within one word.
    io.field(e.count,
             e.kind == fault::FaultKind::kMemUpset
                 ? kMaxUpsetBits
                 : std::numeric_limits<int>::max(),
             "fault count");
    io.field(e.mem_addr);
    io.field(e.mem_bit, 63, "fault bit");
    io.field(e.mem_addr_is_index);
  }
  if (Status s = io.finish(); !s) return s;
  if constexpr (IO::kReading) {
    if (injector != nullptr) {
      injector->restore_injected(injected);
      if (!plan.empty()) {
        injector->arm(fault::FaultPlan::from_events(std::move(plan)));
      }
    } else if (!plan.empty()) {
      return Status::fail(
          "snapshot carries " + std::to_string(plan.size()) +
          " unfired fault events but no injector was supplied to re-arm "
          "them");
    }
  }
  return Status::good();
}

}  // namespace

Status capture_machine(Machine& m, const MachineExtras& extras,
                       SnapshotFile* file) {
  if (!m.mesh().quiescent()) {
    return Status::fail(
        "capture requires a quiescent mesh (DMA transfers in flight)");
  }
  // Pending events must all be owned by re-armable services: the unfired
  // remainder of the injector's plan plus one standing burst per running
  // scrubber.  Anything else (in-flight protocol events, transient fault
  // restores) cannot be serialized and must drain first.
  std::size_t service_owned = 0;
  if (extras.injector != nullptr) service_owned += extras.injector->pending_count();
  if (m.mesh().scrubbing()) {
    service_owned += static_cast<std::size_t>(m.num_nodes());
  }
  const std::size_t pending = m.engine().pending_events();
  if (pending != service_owned) {
    return Status::fail(
        "capture requires a quiescent engine: " + std::to_string(pending) +
        " events pending, only " + std::to_string(service_owned) +
        " owned by re-armable services");
  }

  bool scrubbing = false;
  memsys::ScrubConfig scfg;
  file->write_section(
      kMeta, [&](auto& io) { return meta_fields(io, m, scrubbing, scfg); });
  file->write_section(kEngine, [&](auto& io) { return engine_fields(io, m); });
  file->write_section(kMemory, [&](auto& io) { return memory_fields(io, m); });
  file->write_section(kEcc, [&](auto& io) { return ecc_fields(io, m); });
  file->write_section(kScu, [&](auto& io) { return scu_fields(io, m); });
  if (extras.health != nullptr) {
    file->write_section(
        kHealth, [&](auto& io) { return health_fields(io, *extras.health); });
  }
  if (extras.auditor != nullptr || extras.mem_auditor != nullptr) {
    file->write_section(kAudit,
                        [&](auto& io) { return audit_fields(io, extras); });
  }
  if (extras.injector != nullptr) {
    file->write_section(kService, [&](auto& io) {
      return service_fields(io, m, extras.injector);
    });
  }
  return Status::good();
}

Status restore_machine(Machine& m, const MachineExtras& extras,
                       const SnapshotFile& file) {
  if (m.engine().pending_events() != 0) {
    return Status::fail(
        "restore requires a freshly replayed machine with no pending events "
        "(start services only after the restore)");
  }

  bool scrubbing = false;
  memsys::ScrubConfig scfg;
  // Memory first (layout verification fails before anything else mutates),
  // then ECC bookkeeping over the restored contents, then the clock.  A
  // present optional section's version is checked even when the component
  // it restores is absent.  Services last: re-armed events are scheduled
  // against the restored clock.
  Status s = Status::good();
  const auto read = [&](const SectionSpec& spec, auto layout) {
    if (s) s = file.read_section(spec, layout);
  };
  read(kMeta, [&](auto& io) { return meta_fields(io, m, scrubbing, scfg); });
  read(kMemory, [&](auto& io) { return memory_fields(io, m); });
  read(kEcc, [&](auto& io) { return ecc_fields(io, m); });
  read(kEngine, [&](auto& io) { return engine_fields(io, m); });
  read(kScu, [&](auto& io) { return scu_fields(io, m); });
  read(kHealth, [&](auto& io) {
    return extras.health ? health_fields(io, *extras.health) : Status::good();
  });
  read(kAudit, [&](auto& io) { return audit_fields(io, extras); });
  read(kService,
       [&](auto& io) { return service_fields(io, m, extras.injector); });
  if (s && scrubbing && !m.mesh().scrubbing()) {
    m.start_memory_scrubbers(scfg);
  }
  return s;
}

}  // namespace qcdoc::snapshot
