// Fixture tests for qcdoc-lint (tools/lint): every rule R1..R11 is exercised
// with a positive hit, a clean pass, and an annotated suppression.  R1..R8
// run via lint_source() under virtual paths so directory scoping is tested
// without touching the filesystem; the cross-TU rules R9..R11 use
// lint_project() so the ownership index spans fixture headers and sources.
// The final test lints the real src/bench/tools/examples trees and requires
// zero findings -- the same gate CI runs, pinned here so a
// determinism-contract regression fails tier-1 locally too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace qcdoc::lint {
namespace {

std::vector<Finding> run(const std::string& path, const std::string& src) {
  return lint_source(path, src);
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string dump(const std::vector<Finding>& fs) {
  std::string out;
  for (const auto& f : fs) out += format(f) + "\n";
  return out;
}

// --- registry ------------------------------------------------------------

TEST(LintRegistry, AllElevenRulesPlusSuppressionMetaRule) {
  const auto infos = rule_infos();
  ASSERT_EQ(infos.size(), 12u);
  EXPECT_EQ(infos[0].id, "wall-clock");
  EXPECT_EQ(infos[1].id, "unordered-container");
  EXPECT_EQ(infos[2].id, "raw-engine");
  EXPECT_EQ(infos[3].id, "mutable-static");
  EXPECT_EQ(infos[4].id, "nodiscard-status");
  EXPECT_EQ(infos[5].id, "cycle-narrow");
  EXPECT_EQ(infos[6].id, "std-function-event");
  EXPECT_EQ(infos[7].id, "raw-state-io");
  EXPECT_EQ(infos[8].id, "cross-affinity-access");
  EXPECT_EQ(infos[9].id, "event-raw-capture");
  EXPECT_EQ(infos[10].id, "host-touch-undeclared");
  EXPECT_EQ(infos[11].id, "suppression");
  for (const auto& r : infos) EXPECT_FALSE(r.summary.empty()) << r.id;
}

TEST(LintRegistry, FormatIsFileLineColRuleMessage) {
  const Finding file_level{"src/scu/link.h", 42, 0, "wall-clock", "boom"};
  EXPECT_EQ(format(file_level), "src/scu/link.h:42: [wall-clock] boom");
  const Finding with_col{"src/scu/link.h", 42, 7, "wall-clock", "boom"};
  EXPECT_EQ(format(with_col), "src/scu/link.h:42:7: [wall-clock] boom");
}

TEST(LintRegistry, TokenRuleFindingsCarryColumns) {
  const auto fs = run("src/scu/fixture.cpp", "int j = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].col, 9);  // 1-based column of `rand`
}

TEST(LintRegistry, SarifOutputNamesToolRulesAndLocations) {
  const std::vector<Finding> fs = {
      {"src/scu/link.h", 42, 7, "wall-clock", "boom \"quoted\""}};
  const std::string sarif = format_sarif(fs);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"qcdoc-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"wall-clock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"src/scu/link.h\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("boom \\\"quoted\\\""), std::string::npos);
  // Every registered rule appears in the driver metadata.
  for (const auto& r : rule_infos()) {
    EXPECT_NE(sarif.find("\"" + r.id + "\""), std::string::npos) << r.id;
  }
}

// --- R1: wall-clock ------------------------------------------------------

TEST(LintWallClock, FlagsEntropySourcesInSimCriticalCode) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    int jitter() { return rand() % 8; }
    long stamp() { return time(nullptr); }
    void seed() { std::random_device rd; }
    void wall() { auto t = std::chrono::system_clock::now(); }
  )cc");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 4) << dump(fs);
}

TEST(LintWallClock, CleanOutsideScopedDirsAndForSimulatedTime) {
  // Same entropy calls outside the sim-critical tree: out of scope.
  EXPECT_TRUE(run("src/lattice/fixture.cpp",
                  "int j() { return rand(); }").empty());
  // Engine-clock reads, member `.time` accesses and foreign `x::time()`
  // qualifications are all fine inside scope.
  const auto fs = run("src/hssl/fixture.cpp", R"cc(
    Cycle now_reads(sim::EngineRef e) { return e.now(); }
    Cycle member(const Event& ev) { return ev.time; }
    Cycle other() { return frame::time(3); }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintWallClock, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/sim/fixture.cpp", R"cc(
    // qcdoc-lint: allow(wall-clock) perf accounting only, never in the trace
    auto t0 = std::chrono::steady_clock::now();
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R2: unordered-container ---------------------------------------------

TEST(LintUnordered, FlagsUnorderedContainersAndPointerKeys) {
  const auto fs = run("src/net/fixture.cpp", R"cc(
    std::unordered_map<u32, int> inflight;
    std::unordered_set<std::string> seen;
    std::map<Node*, int> by_addr;
  )cc");
  EXPECT_EQ(count_rule(fs, "unordered-container"), 3) << dump(fs);
}

TEST(LintUnordered, CleanForOrderedValueKeyedContainers) {
  const auto fs = run("src/machine/fixture.cpp", R"cc(
    std::map<u32, int> by_rank;
    std::set<std::string> names;
    std::map<std::pair<u32, u32>, Wire*> wires;  // pointer VALUES are fine
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  // Out of digest-affecting scope entirely.
  EXPECT_TRUE(run("tools/lint/fixture.cpp",
                  "std::unordered_map<int, int> cache;").empty());
}

TEST(LintUnordered, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/comms/fixture.cpp", R"cc(
    // qcdoc-lint: allow(unordered-container) lookup only, never iterated
    std::unordered_map<u64, Handler> handlers;
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R3: raw-engine ------------------------------------------------------

TEST(LintRawEngine, FlagsRawPointerTemporaryAndInternalPrimitive) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    void a(sim::Engine* e) { e->schedule(5, [] {}); }
    void b(Scu& s) { s.engine().schedule_at(9, [] {}); }
    void c() { schedule_at_on(aff, 3, [] {}); }
  )cc");
  EXPECT_EQ(count_rule(fs, "raw-engine"), 3) << dump(fs);
}

TEST(LintRawEngine, CleanForNamedEngineRefAndInsideSrcSim) {
  const auto fs = run("src/fault/fixture.cpp", R"cc(
    void ok(sim::EngineRef host) { host.schedule(5, [] {}); }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  // The engine's own implementation is exempt: it IS the primitive.
  EXPECT_TRUE(run("src/sim/fixture.cpp",
                  "void f(Engine* e) { e->schedule(1, [] {}); }").empty());
}

TEST(LintRawEngine, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/net/fixture.cpp", R"cc(
    // qcdoc-lint: allow(raw-engine) build-time wiring, no events in flight
    void wire(sim::Engine* e) { e->schedule(0, [] {}); }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R4: mutable-static --------------------------------------------------

TEST(LintMutableStatic, FlagsMutableStaticAndThreadLocalState) {
  const auto fs = run("src/hssl/fixture.cpp", R"cc(
    static int frames_sent = 0;
    thread_local Cache warm_cache;
    static std::vector<int> pool{};
  )cc");
  EXPECT_EQ(count_rule(fs, "mutable-static"), 3) << dump(fs);
}

TEST(LintMutableStatic, CleanForConstantsAndFunctionDeclarations) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    static const int kMaxRetries = 4;
    static constexpr Cycle kWireDelay = 2;
    static void helper(int x);
    static std::vector<int> make_table();
    int once() { static thread_local const int kSeed = 7; return kSeed; }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  // Out of the sim-critical tree: statics are the caller's business.
  EXPECT_TRUE(run("src/host/fixture.cpp", "static int calls = 0;").empty());
}

TEST(LintMutableStatic, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/sim/fixture.cpp", R"cc(
    // qcdoc-lint: allow(mutable-static) per-thread ctx, reset around events
    thread_local ExecCtx ctx;
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R5: nodiscard-status ------------------------------------------------

TEST(LintNodiscard, FlagsBoolStatusApisWithoutNodiscard) {
  const auto fs = run("src/scu/fixture.h", R"cc(
    class Link {
     public:
      bool drained() const;
      virtual bool faulted();
    };
  )cc");
  EXPECT_EQ(count_rule(fs, "nodiscard-status"), 2) << dump(fs);
}

TEST(LintNodiscard, CleanForAnnotatedApisParamsOperatorsAndNonHeaders) {
  const auto fs = run("src/hssl/fixture.h", R"cc(
    class Hssl {
     public:
      [[nodiscard]] bool trained() const;
      [[nodiscard]] inline virtual bool busy();
      void set_flag(bool enabled);
      bool operator==(const Hssl& o) const;
    };
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  // Definitions in .cpp files are not the API surface; headers are.
  EXPECT_TRUE(run("src/fault/fixture.cpp",
                  "bool FaultPlan::empty() const { return true; }").empty());
  // Headers outside scu/hssl/fault carry no status contract.
  EXPECT_TRUE(run("src/sim/fixture.h", "bool step();").empty());
}

TEST(LintNodiscard, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/fault/fixture.h", R"cc(
    // qcdoc-lint: allow(nodiscard-status) predicate used only in logging
    bool verbose() const;
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R6: cycle-narrow ----------------------------------------------------

TEST(LintCycleNarrow, FlagsCastsAndDeclarationsNarrowingCycleCounts) {
  const auto fs = run("src/machine/fixture.cpp", R"cc(
    u32 a(sim::EngineRef e) { return static_cast<u32>(e.now()); }
    int b() { return static_cast<int>(elapsed_cycles_); }
    void d() { u32 deadline = start_cycles_ + 500; }
  )cc");
  EXPECT_EQ(count_rule(fs, "cycle-narrow"), 3) << dump(fs);
}

TEST(LintCycleNarrow, CleanForWideTypesAndNonCycleQuantities) {
  const auto fs = run("src/host/fixture.cpp", R"cc(
    Cycle t(sim::EngineRef e) { return e.now(); }
    u64 wide(Cycle c) { return static_cast<u64>(c); }
    u32 rank(NodeId n) { return static_cast<u32>(n.value); }
    u32 words = payload_bytes / 4;
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  EXPECT_TRUE(run("bench/fixture.cpp",
                  "u32 t = static_cast<u32>(e.now());").empty());
}

TEST(LintCycleNarrow, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    // qcdoc-lint: allow(cycle-narrow) header field is 16 bits on the wire
    u16 stamp = static_cast<u16>(now_cycles & 0xffff);
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R7: std-function-event ----------------------------------------------

TEST(LintStdFunctionEvent, FlagsStdFunctionInsideSimCore) {
  const auto fs = run("src/sim/fixture.h", R"cc(
    struct Event {
      Cycle time;
      std::function<void()> fn;
    };
    void schedule(std::function<void()> fn);
  )cc");
  EXPECT_EQ(count_rule(fs, "std-function-event"), 2) << dump(fs);
}

TEST(LintStdFunctionEvent, FlagsStdFunctionOnTheLinkPath) {
  // The per-frame SCU/HSSL path runs millions of times per solve: its
  // callbacks are SmallFn or direct calls, never std::function.
  const auto hssl = run("src/hssl/fixture.h", R"cc(
    class Wire {
      std::function<void()> on_ready_;
    };
  )cc");
  EXPECT_EQ(count_rule(hssl, "std-function-event"), 1) << dump(hssl);
  const auto scu = run("src/scu/fixture.cpp", R"cc(
    void RecvSide::set_data_sink(std::function<void(u64)> sink) {}
  )cc");
  EXPECT_EQ(count_rule(scu, "std-function-event"), 1) << dump(scu);
}

TEST(LintStdFunctionEvent, CleanForEventFnAndOutsideSimCore) {
  const auto fs = run("src/sim/fixture.h", R"cc(
    struct Event {
      Cycle time;
      EventFn fn;
    };
    void schedule(EventFn fn);
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  EXPECT_TRUE(run("src/scu/fixture.h", R"cc(
    void set_data_sink(sim::SmallFn<void(u64)> sink);
  )cc").empty());
  // std::function is fine off the event and link hot paths (host job
  // callbacks, audit hooks): scope is src/sim/, src/hssl/ and src/scu/.
  EXPECT_TRUE(run("src/host/fixture.h",
                  "void run_job(std::function<void()> app);").empty());
}

TEST(LintStdFunctionEvent, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/sim/fixture.cpp", R"cc(
    // qcdoc-lint: allow(std-function-event) cold-path debug hook, not per event
    std::function<void()> on_deadlock_;
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R8: raw-state-io ----------------------------------------------------

TEST(LintRawStateIo, FlagsRawFileIoOutsideSnapshot) {
  const auto fs = run("src/host/fixture.cpp", R"cc(
    void dump(const Machine& m) {
      FILE* f = fopen("state.bin", "wb");
      fwrite(&m, 1, sizeof(m), f);
      std::ofstream log("state.txt");
    }
  )cc");
  EXPECT_EQ(count_rule(fs, "raw-state-io"), 3) << dump(fs);
}

TEST(LintRawStateIo, FlagsWholeStructMemcpy) {
  const auto fs = run("src/fault/fixture.cpp", R"cc(
    void stash(const FaultEvent& e, char* buf) {
      std::memcpy(buf, &e, sizeof(FaultEvent));
      std::memcpy(buf, &e, sizeof(fault::FaultEvent));
    }
  )cc");
  EXPECT_EQ(count_rule(fs, "raw-state-io"), 2) << dump(fs);
}

TEST(LintRawStateIo, CleanForScalarPunningAndSnapshotCode) {
  // sizeof(scalar) / sizeof(expr) copies are everyday value punning.
  const auto fs = run("src/common/fixture.cpp", R"cc(
    void pun(double v) {
      u64 bits;
      std::memcpy(&bits, &v, sizeof(bits));
      std::memcpy(&bits, &v, sizeof(double));
    }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
  // The serializer itself is the one place allowed to touch raw bytes.
  EXPECT_TRUE(run("src/snapshot/fixture.cpp",
                  "void w() { fwrite(p, 1, n, f); }").empty());
  // Tools and tests are out of scope (src/ only).
  EXPECT_TRUE(run("tools/qsnap/fixture.cpp",
                  "void r() { fopen(\"x\", \"rb\"); }").empty());
}

TEST(LintRawStateIo, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/host/fixture.cpp", R"cc(
    // qcdoc-lint: allow(raw-state-io) debug hexdump, never read back
    FILE* f = fopen("dump.txt", "w");
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- suppression meta-rule -----------------------------------------------

TEST(LintSuppression, MissingReasonIsItselfAFindingAndDoesNotSuppress) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    // qcdoc-lint: allow(wall-clock)
    int j = rand();
  )cc");
  EXPECT_EQ(count_rule(fs, "suppression"), 1) << dump(fs);
  EXPECT_EQ(count_rule(fs, "wall-clock"), 1) << dump(fs);
}

TEST(LintSuppression, UnknownRuleIdIsAFinding) {
  const auto fs = run("src/net/fixture.cpp",
                      "// qcdoc-lint: allow(no-such-rule) because reasons\n");
  EXPECT_EQ(count_rule(fs, "suppression"), 1) << dump(fs);
}

TEST(LintSuppression, MalformedAnnotationIsAFinding) {
  const auto fs = run("src/net/fixture.cpp",
                      "// qcdoc-lint: disable wall-clock\n");
  EXPECT_EQ(count_rule(fs, "suppression"), 1) << dump(fs);
}

TEST(LintSuppression, CoversOwnLineAndNextLineOnly) {
  // Two lines below the annotation: out of the suppression window.
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    // qcdoc-lint: allow(wall-clock) documented exemption
    int fine = rand();
    int still_flagged = rand();
  )cc");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 1) << dump(fs);
}

TEST(LintSuppression, OneAnnotationMaySuppressMultipleRules) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    // qcdoc-lint: allow(wall-clock, cycle-narrow) replaying captured trace
    u32 t = static_cast<u32>(rand() + now_cycles);
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R9: cross-affinity-access -------------------------------------------

// A component whose delivery events execute at the far end (the Hssl
// delivery_ idiom): touching members from the delivered lambda is a
// cross-affinity access.  The class declaration and the out-of-line method
// definitions mirror the real header/impl split.
const char* kWireClassDecl = R"cc(
    class Wire {
     public:
      void send();
     private:
      sim::EngineRef engine_;
      sim::EngineRef delivery_;
      Wire* other_ = nullptr;
      u64 epoch_ = 0;
      u64 delivered_ = 0;
    };
  )cc";

TEST(LintCrossAffinity, FlagsMembersTouchedInCrossAffinityEvents) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kWireClassDecl},
      {"src/hssl/fixture_wire.cpp", R"cc(
        #include "hssl/fixture_wire.h"
        void Wire::send() {
          delivery_.schedule(5, [this] {
            if (epoch_ != 0) return;   // cross-affinity read of epoch_
            ++delivered_;              // and a write
          });
        }
      )cc"},
  });
  EXPECT_EQ(count_rule(fs, "cross-affinity-access"), 2) << dump(fs);
}

TEST(LintCrossAffinity, CleanWhenValuesAreSnapshottedIntoTheCapture) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kWireClassDecl},
      {"src/hssl/fixture_wire.cpp", R"cc(
        #include "hssl/fixture_wire.h"
        void Wire::send() {
          delivery_.schedule(5, [epoch = epoch_, w = other_] {
            if (epoch != 0) return;  // the snapshot, not the member
            w->bump();               // snapshotted pointer, not `this`
          });
          engine_.schedule(3, [this] { ++delivered_; });  // own affinity
        }
      )cc"},
  });
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintCrossAffinity, SuppressedWithAnnotatedReason) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kWireClassDecl},
      {"src/hssl/fixture_wire.cpp", R"cc(
        #include "hssl/fixture_wire.h"
        void Wire::send() {
          delivery_.schedule(5, [this] {
            // qcdoc-lint: allow(cross-affinity-access) epoch_ is frozen
            if (epoch_ != 0) return;
          });
        }
      )cc"},
  });
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R10: event-raw-capture ----------------------------------------------

TEST(LintRawCapture, FlagsDefaultRefAndExplicitRefCaptures) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    void Dma::start(sim::EngineRef e, Frame frame) {
      e.schedule(5, [&] { consume(frame); });
      e.schedule(9, [&frame] { consume(frame); });
    }
  )cc");
  EXPECT_EQ(count_rule(fs, "event-raw-capture"), 2) << dump(fs);
}

TEST(LintRawCapture, FlagsValueCapturedRawPointerToNodeState) {
  // Wire is node-domain (EngineRef member, src/hssl/); a Pump in another
  // class capturing a raw Wire* by value smuggles node state into an event.
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", R"cc(
        class Wire {
         public:
          void kick();
         private:
          sim::EngineRef engine_;
        };
      )cc"},
      {"src/scu/fixture_pump.cpp", R"cc(
        #include "hssl/fixture_wire.h"
        void Pump::drain(sim::EngineRef e) {
          Wire* w = next_wire();
          e.schedule(5, [w] { w->kick(); });
        }
      )cc"},
  });
  EXPECT_EQ(count_rule(fs, "event-raw-capture"), 1) << dump(fs);
}

TEST(LintRawCapture, CleanForValueAndMoveCaptures) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    void Dma::start(sim::EngineRef e, Frame frame) {
      e.schedule(5, [frame = std::move(frame), id = next_id_]() mutable {
        consume(frame, id);
      });
    }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintRawCapture, SuppressedWithAnnotatedReason) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    void Dma::start(sim::EngineRef e, Frame frame) {
      // qcdoc-lint: allow(event-raw-capture) same-window delivery, ref outlives
      e.schedule(5, [&frame] { consume(frame); });
    }
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- R11: host-touch-undeclared ------------------------------------------

// A node component in one TU, a host-side driver in another: the index must
// carry domain and mutator knowledge across the include edge.
const char* kNodeWireHeader = R"cc(
    class Wire {
     public:
      void fail();
      int state() const;
     private:
      sim::EngineRef engine_;
      int state_ = 0;
    };
  )cc";

// The host-side driver's own declaration: fault/ placement makes its domain
// host, `wire_` is the node component it reaches into.
const char* kInjectorHeader = R"cc(
    class Injector {
     public:
      void arm();
      void arm_all();
     private:
      sim::Engine* engine_raw_ = nullptr;
      Wire* wire_ = nullptr;
    };
  )cc";

TEST(LintHostTouch, FlagsHostEventMutatingNodeStateWithoutDeclaredSet) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kNodeWireHeader},
      {"src/fault/fixture_inj.h", kInjectorHeader},
      {"src/fault/fixture_inj.cpp", R"cc(
        #include "fault/fixture_inj.h"
        #include "hssl/fixture_wire.h"
        void Injector::arm() {
          const sim::EngineRef host(engine_raw_);
          host.schedule(5, [this] { wire_->fail(); });
        }
      )cc"},
  });
  EXPECT_EQ(count_rule(fs, "host-touch-undeclared"), 1) << dump(fs);
}

TEST(LintHostTouch, CleanWithTouchesAnnotationOrRuntimeTouchScope) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kNodeWireHeader},
      {"src/fault/fixture_inj.h", kInjectorHeader},
      {"src/fault/fixture_inj.cpp", R"cc(
        #include "fault/fixture_inj.h"
        #include "hssl/fixture_wire.h"
        void Injector::arm() {
          const sim::EngineRef host(engine_raw_);
          // qcdoc-lint: touches(node) fails exactly the armed wire
          host.schedule(5, [this] { wire_->fail(); });
        }
        void Injector::arm_all() {
          const sim::EngineRef host(engine_raw_);
          host.schedule(9, [this] {
            QCDOC_AFFSAN_TOUCH_ALL();
            wire_->fail();
          });
        }
      )cc"},
  });
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintHostTouch, CleanForNodeAffineReceiversAndConstReads) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kNodeWireHeader},
      {"src/fault/fixture_inj.h", kInjectorHeader},
      {"src/fault/fixture_inj.cpp", R"cc(
        #include "fault/fixture_inj.h"
        #include "hssl/fixture_wire.h"
        void Injector::arm() {
          // Two-argument EngineRef pins the node's own affinity: its
          // events are the node's, not the host's.
          sim::EngineRef node_ref(engine_raw_, 3);
          node_ref.schedule(5, [this] { wire_->fail(); });
          // Host events that only read node state are fine.
          const sim::EngineRef host(engine_raw_);
          host.schedule(9, [this] { record(wire_->state()); });
        }
      )cc"},
  });
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintHostTouch, SuppressedWithAnnotatedReason) {
  const auto fs = lint_project({
      {"src/hssl/fixture_wire.h", kNodeWireHeader},
      {"src/fault/fixture_inj.h", kInjectorHeader},
      {"src/fault/fixture_inj.cpp", R"cc(
        #include "fault/fixture_inj.h"
        #include "hssl/fixture_wire.h"
        void Injector::arm() {
          const sim::EngineRef host(engine_raw_);
          // qcdoc-lint: allow(host-touch-undeclared) legacy path, PR-9 fix
          host.schedule(5, [this] { wire_->fail(); });
        }
      )cc"},
  });
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- ownership annotations ------------------------------------------------

TEST(LintOwnership, OwnerAnnotationOverridesDomainInference) {
  // EthernetTree-style: lives under a scheduling dir and has an EngineRef,
  // so inference would call it node-owned -- but owner(host) declares its
  // events host-side, and R11 stops treating its mutators as node state.
  const auto boot_header = std::string(R"cc(
    class Boot {
     public:
      void go();
     private:
      sim::Engine* engine_raw_ = nullptr;
      Tree* tree_ = nullptr;
    };
  )cc");
  const auto boot_impl = std::string(R"cc(
    #include "host/fixture_boot.h"
    #include "net/fixture_tree.h"
    void Boot::go() {
      const sim::EngineRef host(engine_raw_);
      host.schedule(5, [this] { tree_->deliver(); });
    }
  )cc");
  const auto tree_decl = std::string(R"cc(
    class Tree {
     public:
      void deliver();
     private:
      sim::EngineRef engine_;
    };
  )cc");

  // Without the annotation the include closure sees a node-domain mutator.
  const auto inferred = lint_project({
      {"src/net/fixture_tree.h", tree_decl},
      {"src/host/fixture_boot.h", boot_header},
      {"src/host/fixture_boot.cpp", boot_impl},
  });
  EXPECT_EQ(count_rule(inferred, "host-touch-undeclared"), 1)
      << dump(inferred);

  // owner(host) on the class flips the verdict.
  const auto annotated = lint_project({
      {"src/net/fixture_tree.h",
       "// qcdoc-lint: owner(host) delivery runs in host slices by design\n" +
           tree_decl},
      {"src/host/fixture_boot.h", boot_header},
      {"src/host/fixture_boot.cpp", boot_impl},
  });
  EXPECT_TRUE(annotated.empty()) << dump(annotated);
}

TEST(LintOwnership, MalformedOwnerAndTouchesAnnotationsAreFindings) {
  const auto no_reason = run("src/net/fixture.h",
                             "// qcdoc-lint: owner(node)\nclass T {};\n");
  EXPECT_EQ(count_rule(no_reason, "suppression"), 1) << dump(no_reason);
  const auto bad_domain = run(
      "src/net/fixture.h",
      "// qcdoc-lint: owner(planet) because reasons\nclass T {};\n");
  EXPECT_EQ(count_rule(bad_domain, "suppression"), 1) << dump(bad_domain);
  const auto empty_set =
      run("src/fault/fixture.cpp", "// qcdoc-lint: touches() oops\n");
  EXPECT_EQ(count_rule(empty_set, "suppression"), 1) << dump(empty_set);
}

// --- lexer robustness ----------------------------------------------------

TEST(LintLexer, StringLiteralsAndCommentsDoNotTrigger) {
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    const char* kMsg = "call rand() and time() for fun";
    // a comment mentioning rand() and std::unordered_map
    const char* kRaw = R"(schedule_at_on inside a raw string)";
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintLexer, PrefixedRawStringsDoNotTrigger) {
  // Encoding-prefixed raw literals (u8R, uR, UR, LR) hid entropy calls from
  // the v1 lexer, which only recognized a bare R prefix.
  const auto fs = run("src/scu/fixture.cpp", R"cc(
    const char8_t* a = u8R"(rand() time(nullptr))";
    const char16_t* b = uR"x(std::unordered_map<int, int> m; rand();)x";
    const wchar_t* c = LR"(static int hidden = rand();)";
  )cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintLexer, LineContinuationExtendsLineComments) {
  // A backslash-newline continues a // comment onto the next physical
  // line, macro-style; the v1 lexer rescanned that line as code.
  const auto fs = run("src/scu/fixture.cpp",
                      "// this comment continues \\\n"
                      "int j = rand();\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintLexer, LineContinuationInsideMacroBodiesKeepsLineNumbers) {
  const auto fs = run("src/scu/fixture.cpp",
                      "#define TWO_LINES(x) \\\n"
                      "  do { (void)(x); } while (0)\n"
                      "\n"
                      "int j = rand();\n");
  ASSERT_EQ(count_rule(fs, "wall-clock"), 1) << dump(fs);
  EXPECT_EQ(fs[0].line, 4);
}

// --- options & driver ----------------------------------------------------

TEST(LintOptions, OnlyFilterRestrictsRulesButKeepsSuppressionChecks) {
  Options only_r1;
  only_r1.only = {"wall-clock"};
  const auto fs = lint_source("src/scu/fixture.cpp", R"cc(
    int j = rand();
    static int counter = 0;
    // qcdoc-lint: allow(wall-clock)
  )cc",
                              only_r1);
  EXPECT_EQ(count_rule(fs, "wall-clock"), 1) << dump(fs);
  EXPECT_EQ(count_rule(fs, "mutable-static"), 0) << dump(fs);
  // Broken annotations are reported even under a rule filter.
  EXPECT_EQ(count_rule(fs, "suppression"), 1) << dump(fs);
}

TEST(LintPaths, MissingPathYieldsIoFinding) {
  const auto fs = lint_paths({"no/such/dir-xyzzy"});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "io");
}

// --- the real tree -------------------------------------------------------

// The gate CI enforces, pinned locally: the shipped tree -- src/ plus the
// bench, tools and examples trees -- has zero unsuppressed findings.  If a
// rule or the tree changes, this fails tier-1 before the CI lint job runs.
// One invocation, one cross-TU index: exactly how CI calls the binary.
TEST(LintTree, ShippedSourceTreeIsClean) {
  const auto fs = lint_paths({QCDOC_SOURCE_DIR "/src", QCDOC_SOURCE_DIR "/bench",
                              QCDOC_SOURCE_DIR "/tools",
                              QCDOC_SOURCE_DIR "/examples"});
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

}  // namespace
}  // namespace qcdoc::lint
