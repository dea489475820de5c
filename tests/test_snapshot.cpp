// Tier-1 tests for the snapshot subsystem: byte codec, container format
// diagnostics, the atomic generation store (including a forked child that
// SIGKILLs itself mid-write), whole-machine capture/restore, and a small
// end-to-end crash-resume of an audited CG solve.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "snapshot_rig.h"

namespace qcdoc::snapshot {
namespace {

using testing::SolveOutcome;
using testing::SolveScenario;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qcdoc_snap_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- bytes ---------------------------------------------------------------

TEST(SnapshotBytes, RoundTripsEveryType) {
  ByteSink sink;
  sink.put_u8(0xab);
  sink.put_u32(0xdeadbeef);
  sink.put_u64(0x0123456789abcdefull);
  sink.put_double(-0.1);
  sink.put_bool(true);
  sink.put_string("hello");
  const std::vector<u64> words = {1, 2, 3};
  sink.put_u64_span(words);

  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "test");
  u8 a = 0;
  u32 c = 0;
  u64 d = 0;
  double f = 0;
  bool g = false;
  std::string s;
  std::vector<u64> w;
  EXPECT_TRUE(src.get_u8(&a).ok);
  EXPECT_TRUE(src.get_u32(&c).ok);
  EXPECT_TRUE(src.get_u64(&d).ok);
  EXPECT_TRUE(src.get_double(&f).ok);
  EXPECT_TRUE(src.get_bool(&g).ok);
  EXPECT_TRUE(src.get_string(&s).ok);
  EXPECT_TRUE(src.get_u64_vec(&w).ok);
  EXPECT_TRUE(src.expect_exhausted().ok);
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefull);
  EXPECT_EQ(f, -0.1);
  EXPECT_TRUE(g);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(w, words);
}

TEST(SnapshotBytes, TruncationIsADiagnosticNotUb) {
  ByteSink sink;
  sink.put_u64(7);
  std::vector<u8> bytes = sink.take();
  bytes.resize(3);  // torn mid-integer
  ByteSource src(bytes, "ENGINE");
  u64 v = 0;
  const Status s = src.get_u64(&v);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.reason.find("ENGINE"), std::string::npos) << s.reason;
}

TEST(SnapshotBytes, HostileVectorLengthIsRejected) {
  // A length prefix claiming ~2^61 elements must fail cleanly instead of
  // attempting the allocation.
  ByteSink sink;
  sink.put_u64(~u64{0} / 4);
  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "MEMORY");
  std::vector<u64> v;
  EXPECT_FALSE(src.get_u64_vec(&v).ok);
}

TEST(SnapshotBytes, TrailingGarbageIsCaught) {
  ByteSink sink;
  sink.put_u32(1);
  sink.put_u32(2);
  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "META");
  u32 v = 0;
  EXPECT_TRUE(src.get_u32(&v).ok);
  EXPECT_FALSE(src.expect_exhausted().ok);
}

// --- container format ----------------------------------------------------

SnapshotFile sample_file() {
  SnapshotFile file;
  file.set_generation(7);
  ByteSink a, b;
  a.put_u64(0x1111);
  b.put_string("payload two");
  file.add_section(kSecMeta, std::move(a));
  file.add_section(kSecEngine, std::move(b), /*version=*/3, kSectionOptional);
  return file;
}

void patch_u32(std::vector<u8>* bytes, std::size_t at, u32 v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + static_cast<std::size_t>(i)] = static_cast<u8>(v >> (8 * i));
  }
}

/// Re-seal a hand-mutated image: recompute header and whole-file CRCs so
/// only the deliberately skewed field differs.
void reseal(std::vector<u8>* bytes) {
  patch_u32(bytes, 36, crc32(std::span<const u8>(*bytes).subspan(0, 36)));
  patch_u32(bytes, bytes->size() - 4,
            crc32(std::span<const u8>(*bytes).subspan(0, bytes->size() - 4)));
}

TEST(SnapshotFormat, EncodeDecodeRoundTrip) {
  const SnapshotFile file = sample_file();
  const std::vector<u8> bytes = file.encode();

  SnapshotFile back;
  ASSERT_TRUE(SnapshotFile::decode(bytes, &back).ok);
  EXPECT_EQ(back.generation(), 7u);
  ASSERT_EQ(back.sections().size(), 2u);
  const Section* eng = back.find(kSecEngine);
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->version, 3u);
  EXPECT_EQ(eng->flags, kSectionOptional);
  std::optional<ByteSource> src;
  ASSERT_TRUE(back.open(kSecEngine, &src).ok);
  std::string s;
  ASSERT_TRUE(src->get_string(&s).ok);
  EXPECT_EQ(s, "payload two");
  EXPECT_FALSE(back.open(kSecSolver, &src).ok);  // missing section
}

TEST(SnapshotFormat, EveryCorruptionLayerHasItsOwnDiagnostic) {
  const std::vector<u8> good = sample_file().encode();
  SnapshotFile out;

  {  // not a snapshot
    std::vector<u8> bad = good;
    bad[0] = 'X';
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("not a snapshot"), std::string::npos) << s.reason;
  }
  {  // corrupt header (crc mismatch)
    std::vector<u8> bad = good;
    bad[12] ^= 0x40;  // section count field; header crc now disagrees
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("corrupt header"), std::string::npos) << s.reason;
  }
  {  // version skew: bump the version field, re-seal the CRCs
    std::vector<u8> bad = good;
    patch_u32(&bad, 8, kFormatVersion + 1);
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("version skew"), std::string::npos) << s.reason;
  }
  {  // torn write: the file ends early
    std::vector<u8> bad = good;
    bad.resize(bad.size() - 9);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("torn write"), std::string::npos) << s.reason;
  }
  {  // corrupt section table
    std::vector<u8> bad = good;
    bad[40 + 3] ^= 0x01;  // a tag byte inside the table
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("section table"), std::string::npos) << s.reason;
  }
  {  // corrupt one payload byte: section-level crc catches it, named
    std::vector<u8> bad = good;
    bad[bad.size() - 21] ^= 0x80;  // last payload byte (before footer)
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("ENGINE"), std::string::npos) << s.reason;
    // verify() reports per-section GOOD/BAD without decoding payloads.
    u64 generation = 0;
    std::vector<std::string> notes;
    EXPECT_FALSE(SnapshotFile::verify(bad, &generation, &notes).ok);
    ASSERT_EQ(notes.size(), 2u);
    EXPECT_EQ(notes[0].substr(0, 4), "GOOD");
    EXPECT_EQ(notes[1].substr(0, 4), "BAD ");
  }
}

// --- generation store ----------------------------------------------------

TEST(SnapshotStore, GenerationsAdvanceAndPruneKeepsLastTwo) {
  const std::string dir = fresh_dir("store");
  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 0u);

  for (int i = 0; i < 4; ++i) {
    SnapshotFile f = sample_file();
    ASSERT_TRUE(store.save(&f).ok);
    EXPECT_EQ(f.generation(), static_cast<u64>(i + 1));
  }
  // Retention: only generations 3 and 4 remain on disk.
  const auto gens = store.list();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].generation, 3u);
  EXPECT_EQ(gens[1].generation, 4u);
  EXPECT_EQ(store.latest_generation(), 4u);

  SnapshotFile back;
  ASSERT_TRUE(store.load_latest(&back).ok);
  EXPECT_EQ(back.generation(), 4u);
}

TEST(SnapshotStore, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = fresh_dir("fallback");
  SnapshotStore store(dir, "cg");
  SnapshotFile f1 = sample_file();
  ASSERT_TRUE(store.save(&f1).ok);
  SnapshotFile f2 = sample_file();
  ASSERT_TRUE(store.save(&f2).ok);

  // Truncate generation 2 on disk: a torn write that somehow became
  // visible (e.g. media truncation after the rename).
  const auto gens = store.list();
  ASSERT_EQ(gens.size(), 2u);
  std::filesystem::resize_file(gens[1].path,
                               std::filesystem::file_size(gens[1].path) / 2);

  SnapshotFile back;
  std::vector<std::string> diags;
  ASSERT_TRUE(store.load_latest(&back, &diags).ok);
  EXPECT_EQ(back.generation(), 1u);
  bool mentioned_fallback = false;
  for (const auto& d : diags) {
    if (d.find("falling back") != std::string::npos) mentioned_fallback = true;
  }
  EXPECT_TRUE(mentioned_fallback);

  // With every generation corrupt, load fails with the reasons listed.
  std::filesystem::resize_file(gens[0].path, 10);
  diags.clear();
  EXPECT_FALSE(store.load_latest(&back, &diags).ok);
  EXPECT_GE(diags.size(), 2u);
}

TEST(SnapshotStore, KilledMidWriteLeavesPreviousGenerationIntact) {
  const std::string dir = fresh_dir("midwrite");
  {
    SnapshotStore store(dir, "cg");
    SnapshotFile f1 = sample_file();
    ASSERT_TRUE(store.save(&f1).ok);
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die after 30 bytes of the generation-2 temp file.  The store
    // must never rename a partial file into place.
    setenv("QCDOC_SNAPSHOT_KILL_AT_BYTE", "30", 1);
    SnapshotStore store(dir, "cg");
    SnapshotFile f2 = sample_file();
    const Status s = store.save(&f2);  // raises SIGKILL inside
    _exit(s.ok ? 7 : 8);               // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 1u);
  SnapshotFile back;
  EXPECT_TRUE(store.load_latest(&back).ok);
  EXPECT_EQ(back.generation(), 1u);
}

// --- machine capture/restore ---------------------------------------------

TEST(SnapshotMachine, CaptureRefusesNonQuiescentEngine) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();

  // An armed-but-unfired fault plan with no injector handed to the snapshot
  // layer: the pending event is unaccounted for, so capture must refuse.
  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.link_death(m.engine().now() + 100000, NodeId{0}, torus::LinkIndex{0});
  injector.arm(plan);

  SnapshotFile file;
  const Status s = capture_machine(m, MachineExtras{}, &file);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.reason.find("quiescent"), std::string::npos) << s.reason;

  // Declaring the injector makes the same pending event re-armable.
  MachineExtras extras;
  extras.injector = &injector;
  EXPECT_TRUE(capture_machine(m, extras, &file).ok);
}

TEST(SnapshotMachine, RestoreRejectsGeometryAndSeedMismatch) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();
  SnapshotFile file;
  ASSERT_TRUE(capture_machine(m, MachineExtras{}, &file).ok);

  {  // different mesh shape
    machine::MachineConfig other = cfg;
    other.shape.extent = {4, 2, 1, 1, 1, 1};
    machine::Machine m2(other);
    m2.power_on();
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("geometry mismatch"), std::string::npos)
        << s.reason;
  }
  {  // different RNG seed
    machine::MachineConfig other = cfg;
    other.seed += 1;
    machine::Machine m2(other);
    m2.power_on();
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("seed mismatch"), std::string::npos) << s.reason;
  }
  {  // same config but allocation layout not replayed
    machine::MachineConfig other = cfg;
    machine::Machine m2(other);
    m2.power_on();
    (void)m2.memory(NodeId{0}).alloc(64, "stray");
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("allocation layout"), std::string::npos)
        << s.reason;
  }
}

// --- end-to-end crash-resume (small machine) ------------------------------

SolveScenario small_scenario(int sim_threads) {
  SolveScenario sc;
  sc.machine_extents = {2, 2, 1, 1, 1, 1};
  sc.partition_box.extent = {2, 2, 1, 1, 1, 1};
  sc.global = {4, 4, 2, 2};
  sc.kappa = 0.12;
  sc.fixed_iterations = 6;
  sc.audit_interval = 2;
  sc.sim_threads = sim_threads;
  return sc;
}

void expect_same_outcome(const SolveOutcome& got, const SolveOutcome& want,
                         const std::string& what) {
  EXPECT_TRUE(got.job_ok) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.residual_bits, want.residual_bits) << what;
  EXPECT_EQ(got.field_fnv, want.field_fnv) << what;
  EXPECT_EQ(got.trace_digest, want.trace_digest) << what;
  EXPECT_EQ(got.end_cycle, want.end_cycle) << what;
}

TEST(SnapshotResume, KilledMidCgResumesBitExactly) {
  const std::string dir = fresh_dir("resume_small");

  // Child: checkpoint every clean audit, SIGKILL itself right after the
  // iteration-4 generation commits -- mid-CG, two iterations from the end.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    (void)testing::run_solve(small_scenario(1), &dir, /*resume=*/false,
                             /*kill_at_iteration=*/4);
    _exit(9);  // not reached: the writer kills itself
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Checkpoints landed at iterations 0, 2 and 4.
  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 3u);

  // The uninterrupted reference in this (new) process.
  const SolveOutcome ref =
      testing::run_solve(small_scenario(1), nullptr, false);
  ASSERT_TRUE(ref.job_ok);
  ASSERT_EQ(ref.iterations, 6);

  // Restore in this process at 1 and 2 threads: final residual bits, field
  // FNV, event-order digest and end cycle all match the uninterrupted run.
  for (const int threads : {1, 2}) {
    const SolveOutcome got =
        testing::run_solve(small_scenario(threads), &dir, /*resume=*/true);
    EXPECT_TRUE(got.resumed) << (got.log.empty() ? "" : got.log.back());
    EXPECT_EQ(got.recovered_generation, 3u);
    expect_same_outcome(got, ref, std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace qcdoc::snapshot
