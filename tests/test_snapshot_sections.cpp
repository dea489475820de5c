// Tier-1 tests of the snapshot section layouts (DESIGN.md §8).
//
// SnapshotPins captures a small machine with every section populated --
// memory contents, a latched machine check, running scrubbers, link
// counters, health classification, both auditors and an injector holding
// unfired plan entries -- plus a SOLVER section, and pins each section's
// tag, version, flags, size and CRC-32.  Any change to a layout's bytes
// fails here, whatever the code that writes it looks like.
//
// SnapshotHostile crafts files whose CRCs are all valid but one decoded
// field lies outside its range: the restore must fail with a diagnostic
// naming the field instead of handing the value to code that indexes or
// shifts with it.  SnapshotTruncation cuts each section short at every
// length under 4 KiB (and at a fixed stride beyond): every cut must fail
// the restore cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "memsys/scrub.h"
#include "snapshot/machine_state.h"

namespace qcdoc::snapshot {
namespace {

using torus::LinkIndex;

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  return cfg;
}

/// A booted 4-node machine after the allocation sequence a restoring
/// process replays, with every component whose state rides the snapshot.
struct Rig {
  machine::Machine m{small_config()};
  host::Qdaemon qd{&m};
  std::vector<memsys::Block> blocks;  ///< two per node, in node order
  std::optional<fault::ChecksumAuditor> auditor;
  std::optional<fault::MemCheckAuditor> mem_auditor;
  std::optional<fault::FaultInjector> injector;

  Rig() {
    qd.boot();
    for (int i = 0; i < m.num_nodes(); ++i) {
      memsys::NodeMemory& mem = m.memory(NodeId{static_cast<u32>(i)});
      blocks.push_back(mem.alloc(600, "field"));
      blocks.push_back(mem.alloc(40, "scalars"));
    }
    auditor.emplace(&m.mesh());
    mem_auditor.emplace(&m.mesh());
    injector.emplace(&m.mesh());
  }

  MachineExtras extras() {
    MachineExtras x;
    x.health = &qd.health();
    x.auditor = &*auditor;
    x.mem_auditor = &*mem_auditor;
    x.injector = &*injector;
    return x;
  }
};

/// Drive `r` into a state where every section carries non-default values.
void populate(Rig& r) {
  for (std::size_t b = 0; b < r.blocks.size(); ++b) {
    const NodeId node{static_cast<u32>(b / 2)};
    std::span<u64> words = r.m.memory(node).words(r.blocks[b]);
    for (std::size_t k = 0; k < words.size(); ++k) {
      words[k] = 0x9e3779b97f4a7c15ull * (1000 * b + k + 1);
    }
  }

  // Traffic over a noisy wire: its send side resends, its receiver counts
  // detected errors and advances its corruption RNG.
  const NodeId from{0};
  const LinkIndex link{0};
  const NodeId to = r.m.topology().neighbor(from, link);
  hssl::Hssl& wire = r.m.mesh().wire(from, link);
  wire.set_bit_error_rate(2e-3);
  scu::RecvSide& recv = r.m.scu(to).recv_side(torus::facing_link(link));
  recv.set_data_sink([](u64) {});
  for (int i = 0; i < 200; ++i) {
    r.m.scu(from).send_side(link).enqueue_data(0x0123456789abcdefull *
                                               static_cast<u64>(i + 1));
  }
  r.m.engine().run_until_idle();
  recv.clear_data_sink();
  wire.set_bit_error_rate(0.0);

  (void)r.qd.health().sweep();
  EXPECT_TRUE(r.auditor->clean_since_last());
  EXPECT_TRUE(r.mem_auditor->clean_since_last());

  memsys::ScrubConfig scrub;
  scrub.period_cycles = 1024;
  scrub.rows_per_period = 4;
  r.m.start_memory_scrubbers(scrub);
  r.m.engine().run_until(r.m.engine().now() + 5000);

  // Node 3 hangs at once; the rest of the plan stays unfired.
  const Cycle now = r.m.engine().now();
  fault::FaultPlan plan;
  plan.node_hang(now + 1, NodeId{3})
      .link_death(now + 1'000'000, NodeId{1}, LinkIndex{2})
      .ber_spike(now + 2'000'000, NodeId{2}, LinkIndex{5}, 1e-4, 300)
      .mem_upset_indexed(now + 3'000'000, NodeId{0}, 77, 2, 9);
  r.injector->arm(plan);
  r.m.engine().run_until(now + 2);

  // Node 0: an uncorrectable codeword latches a machine check.  Node 1: a
  // correctable single flip.  Both lie past the scrub cursor.
  const u64 bad = r.blocks[0].word_addr + 500;
  r.m.memory(NodeId{0}).ecc().inject_upset(bad, 3);
  r.m.memory(NodeId{0}).ecc().inject_upset(bad, 11);
  r.m.memory(NodeId{1}).ecc().inject_upset(r.blocks[2].word_addr + 450, 60);
}

lattice::CgCheckpoint sample_checkpoint() {
  lattice::CgCheckpoint ck;
  ck.iterations = 12;
  ck.reliable_updates = 2;
  ck.rsq = 1.25e-7;
  ck.rhs_norm2 = 3.5;
  ck.restarts = 1;
  ck.audits = 6;
  ck.audit_failures = 1;
  ck.mem_checks = 1;
  return ck;
}

/// The populated rig captured into a file, plus a SOLVER section.
SnapshotFile capture_populated(Rig& r) {
  SnapshotFile file;
  const Status s = capture_machine(r.m, r.extras(), &file);
  EXPECT_TRUE(s.ok) << s.reason;
  lattice::encode_checkpoint(sample_checkpoint(), &file);
  file.set_generation(5);
  return file;
}

struct SectionPin {
  const char* tag;
  u32 version;
  u32 flags;
  std::size_t bytes;
  u32 crc;
};

TEST(SnapshotPins, EverySectionKeepsItsBytes) {
  Rig rig;
  populate(rig);
  // The state each section is meant to carry is really there.
  ASSERT_TRUE(rig.m.mesh().scrubbing());
  ASSERT_GT(rig.m.scu(NodeId{0}).send_side(LinkIndex{0}).resends(), 0u);
  ASSERT_EQ(rig.m.memory(NodeId{0}).ecc().counters().uncorrectable, 1u);
  ASSERT_EQ(rig.m.mesh().condition(NodeId{3}), net::NodeCondition::kHung);
  ASSERT_EQ(rig.injector->injected(), 1u);
  ASSERT_EQ(rig.injector->pending_count(), 3u);
  const SnapshotFile file = capture_populated(rig);

  const SectionPin want[] = {
      {"META    ", 1, 0, 105, 0x771d33f9u},
      {"ENGINE  ", 1, 0, 164, 0xb11caa12u},
      {"MEMORY  ", 1, 0, 20648, 0x584e7cb3u},
      {"ECC     ", 1, 0, 398, 0x558b3943u},
      {"SCU     ", 1, 0, 4708, 0xeab74ec6u},
      {"HEALTH  ", 1, kSectionOptional, 844, 0x574b053fu},
      {"AUDIT   ", 1, kSectionOptional, 42, 0x89efc99du},
      {"SERVICE ", 1, kSectionOptional, 167, 0x66795fa1u},
      {"SOLVER  ", 1, 0, 52, 0xb9031effu},
  };
  ASSERT_EQ(file.sections().size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const Section& got = file.sections()[i];
    const u32 crc = crc32(got.payload);
    char hex[11];
    std::snprintf(hex, sizeof(hex), "0x%08x", crc);
    const std::string seen = "{\"" + got.tag + "\", " +
                             std::to_string(got.version) + ", " +
                             std::to_string(got.flags) + ", " +
                             std::to_string(got.payload.size()) + ", " + hex +
                             "u}";
    EXPECT_EQ(got.tag, want[i].tag) << seen;
    EXPECT_EQ(got.version, want[i].version) << seen;
    EXPECT_EQ(got.flags, want[i].flags) << seen;
    EXPECT_EQ(got.payload.size(), want[i].bytes) << seen;
    EXPECT_EQ(crc, want[i].crc) << seen;
  }
  EXPECT_EQ(file.encode().size(), 27516u);
}

/// `file` with section `index`'s payload replaced by `payload`.
SnapshotFile with_payload(const SnapshotFile& file, std::size_t index,
                          std::span<const u8> payload) {
  SnapshotFile out;
  out.set_generation(file.generation());
  for (std::size_t i = 0; i < file.sections().size(); ++i) {
    const Section& s = file.sections()[i];
    ByteSink sink;
    sink.put_raw(i == index ? payload : std::span<const u8>(s.payload));
    out.add_section(s.tag, std::move(sink), s.version, s.flags);
  }
  return out;
}

std::size_t section_index(const SnapshotFile& file, const std::string& tag) {
  for (std::size_t i = 0; i < file.sections().size(); ++i) {
    if (file.sections()[i].tag == tag) return i;
  }
  ADD_FAILURE() << "no section " << tag;
  return 0;
}

/// The populated capture with `bytes` written over section `tag`'s payload
/// at `at` (after checking the bytes there were `before`), passed through
/// encode/decode so every CRC in the result is valid.
SnapshotFile crafted(const std::string& tag, std::size_t at,
                     const std::vector<u8>& before,
                     const std::vector<u8>& bytes) {
  Rig rig;
  populate(rig);
  const SnapshotFile file = capture_populated(rig);
  const std::size_t index = section_index(file, tag);
  std::vector<u8> payload = file.sections()[index].payload;
  if (at + std::max(before.size(), bytes.size()) > payload.size()) {
    ADD_FAILURE() << tag << " holds only " << payload.size() << " bytes";
    return file;
  }
  EXPECT_TRUE(std::equal(before.begin(), before.end(), payload.begin() + at))
      << "the layout moved: " << tag << " byte " << at;
  std::copy(bytes.begin(), bytes.end(), payload.begin() + at);
  SnapshotFile sealed;
  const Status s = SnapshotFile::decode(
      with_payload(file, index, payload).encode(), &sealed);
  EXPECT_TRUE(s.ok) << s.reason;
  return sealed;
}

/// Restoring `file` into a freshly replayed rig fails naming `field`.
void expect_rejected(const SnapshotFile& file, const std::string& field) {
  Rig replay;
  const Status s = restore_machine(replay.m, replay.extras(), file);
  EXPECT_FALSE(s.ok) << "restore accepted a hostile " << field;
  EXPECT_NE(s.reason.find(field), std::string::npos) << s.reason;
}

// Byte offsets in the populated capture.
//   SERVICE: has(1) injected(8) count(8), then the first unfired event --
//     link_death on node 1, link 2: at(8) kind(1) node(4) link(4) rate(8)
//     duration(8) count(4) word(8) bit(4) indexed(1) -- and two more of
//     those 50 bytes each, the third a two-bit memory upset.
//   MEMORY: node count(4), then node 0's condition.
//   HEALTH: count(8), then node 0's classification.
//   ECC: node count(4), node 0's six counters(48), codeword count(8), its
//     one codeword: key(8) poisoned(1) flip count(8), flip 0: word(8)
//     bit(4) value(8) applied(1), flip 1 (21), latched count(8), latched
//     0: word(8) region(1).
constexpr std::size_t kServiceKind = 25;
constexpr std::size_t kServiceNode = 26;
constexpr std::size_t kServiceLink = 30;
constexpr std::size_t kServiceCount = 50;
constexpr std::size_t kServiceBit = 62;
constexpr std::size_t kServiceUpsetCount = 150;
constexpr std::size_t kMemoryCondition = 4;
constexpr std::size_t kHealthNode0 = 8;
constexpr std::size_t kEccFlipWord = 77;
constexpr std::size_t kEccFlipBit = 85;
constexpr std::size_t kEccRegion = 135;

TEST(SnapshotHostile, UntouchedCaptureRestores) {
  Rig rig;
  populate(rig);
  const SnapshotFile file = capture_populated(rig);
  Rig replay;
  const Status s = restore_machine(replay.m, replay.extras(), file);
  EXPECT_TRUE(s.ok) << s.reason;
  // Restored link counters are lifetime counts.  The SCU section carries
  // only each send side's resend total, booked as timeout resends.
  u64 resends = 0;
  for (int i = 0; i < rig.m.num_nodes(); ++i) {
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      resends += rig.m.scu(NodeId{static_cast<u32>(i)})
                     .send_side(LinkIndex{l})
                     .resends();
    }
  }
  EXPECT_GT(resends, 0u);
  EXPECT_EQ(replay.m.mesh().total_stat("scu.nack_resends") +
                replay.m.mesh().total_stat("scu.timeout_resends"),
            resends);
  lattice::CgCheckpoint ck;
  EXPECT_TRUE(lattice::decode_checkpoint(file, &ck).ok);
  EXPECT_EQ(ck.iterations, 12);
  EXPECT_EQ(ck.rsq, 1.25e-7);

  // Capturing the restored machine gives back the same bytes, except the
  // clock, whose per-rank schedule counts now include the re-armed
  // scrubbers and fault plan.
  SnapshotFile again;
  ASSERT_TRUE(capture_machine(replay.m, replay.extras(), &again).ok);
  ASSERT_EQ(again.sections().size() + 1, file.sections().size());
  for (std::size_t i = 0; i < again.sections().size(); ++i) {
    if (again.sections()[i].tag == kSecEngine) continue;
    EXPECT_EQ(again.sections()[i].payload, file.sections()[i].payload)
        << again.sections()[i].tag;
  }
}

TEST(SnapshotHostile, FaultNodePastTheMachineIsRejected) {
  expect_rejected(crafted(kSecService, kServiceNode, {1, 0, 0, 0},
                          {4, 0, 0, 0}),
                  "fault node 4");
}

TEST(SnapshotHostile, FaultLinkOutsideTheTwelveIsRejected) {
  expect_rejected(crafted(kSecService, kServiceLink, {2, 0, 0, 0},
                          {12, 0, 0, 0}),
                  "fault link 12");
  expect_rejected(crafted(kSecService, kServiceLink, {2, 0, 0, 0},
                          {0xff, 0xff, 0xff, 0xff}),
                  "fault link 4294967295");
}

TEST(SnapshotHostile, FaultKindPastItsLastEnumeratorIsRejected) {
  expect_rejected(crafted(kSecService, kServiceKind, {1}, {7}),
                  "fault kind 7");
}

TEST(SnapshotHostile, FaultBitPastTheWordIsRejected) {
  expect_rejected(crafted(kSecService, kServiceBit, {0, 0, 0, 0},
                          {64, 0, 0, 0}),
                  "fault bit 64");
}

TEST(SnapshotHostile, FaultCountNegativeOrPastTheWordIsRejected) {
  // apply() loops over the count: 1,000,000 upset bits would run for
  // minutes inside one event, and the flips wrap at 64 bits anyway.
  expect_rejected(crafted(kSecService, kServiceUpsetCount, {2, 0, 0, 0},
                          {0x40, 0x42, 0x0f, 0x00}),
                  "fault count 1000000");
  expect_rejected(crafted(kSecService, kServiceUpsetCount, {2, 0, 0, 0},
                          {65, 0, 0, 0}),
                  "fault count 65");
  // -1 travels as 0xffffffff, for every kind.
  expect_rejected(crafted(kSecService, kServiceUpsetCount, {2, 0, 0, 0},
                          {0xff, 0xff, 0xff, 0xff}),
                  "fault count 4294967295");
  expect_rejected(crafted(kSecService, kServiceCount, {0, 0, 0, 0},
                          {0xff, 0xff, 0xff, 0xff}),
                  "fault count 4294967295");
}

TEST(SnapshotHostile, AppliedEccFlipOutsideEveryAllocationIsRejected) {
  // Node 0's uncorrectable codeword landed both flips in storage; its
  // first flip's word moves to 2^48, which no allocation holds.
  expect_rejected(crafted(kSecEcc, kEccFlipWord,
                          {0xf4, 0x01, 0, 0, 0, 0, 0, 0},
                          {0, 0, 0, 0, 0, 0, 1, 0}),
                  "ECC flip word address 281474976710656");
}

TEST(SnapshotHostile, EccFlipBitPastTheWordIsRejected) {
  expect_rejected(crafted(kSecEcc, kEccFlipBit, {3, 0, 0, 0}, {64, 0, 0, 0}),
                  "ECC flip bit 64");
}

TEST(SnapshotHostile, MemoryRegionPastItsLastEnumeratorIsRejected) {
  expect_rejected(crafted(kSecEcc, kEccRegion, {0}, {2}),
                  "machine-check region 2");
}

TEST(SnapshotHostile, NodeConditionPastItsLastEnumeratorIsRejected) {
  expect_rejected(crafted(kSecMemory, kMemoryCondition, {0}, {3}),
                  "node condition 3");
}

TEST(SnapshotHostile, NodeHealthPastItsLastEnumeratorIsRejected) {
  expect_rejected(crafted(kSecHealth, kHealthNode0, {1}, {3}),
                  "node health 3");
}

TEST(SnapshotTruncation, EveryCutSectionFailsTheRestoreCleanly) {
  Rig rig;
  populate(rig);
  const SnapshotFile file = capture_populated(rig);
  // One replayed rig serves every attempt: a failed restore arms no
  // service, so the next attempt again starts with no pending events.
  Rig replay;
  const MachineExtras extras = replay.extras();
  std::size_t attempts = 0;
  for (std::size_t i = 0; i < file.sections().size(); ++i) {
    const Section& sec = file.sections()[i];
    const std::span<const u8> whole(sec.payload);
    // Every length under 4 KiB, then a fixed stride through the rest.
    for (std::size_t len = 0; len < whole.size();
         len += len < 4096 ? 1 : 509) {
      const SnapshotFile cut = with_payload(file, i, whole.first(len));
      lattice::CgCheckpoint ck;
      const Status s = sec.tag == kSecSolver
                           ? lattice::decode_checkpoint(cut, &ck)
                           : restore_machine(replay.m, extras, cut);
      ASSERT_FALSE(s.ok) << sec.tag << " cut to " << len << " bytes";
      ASSERT_NE(s.reason.find("section " + sec.tag), std::string::npos)
          << sec.tag << " cut to " << len << " bytes: " << s.reason;
      ASSERT_EQ(replay.m.engine().pending_events(), 0u);
      ++attempts;
    }
  }
  EXPECT_GT(attempts, 9000u);
}

}  // namespace
}  // namespace qcdoc::snapshot
