// The determinism & simulation-safety rules (R1..R11 of DESIGN.md "Static
// analysis & determinism contracts").
//
// R1..R8 are lexical patterns over one token stream; R9..R11 additionally
// consult the cross-TU ProjectIndex (ownership domains, mutator tables,
// include visibility).  Each is precise enough to catch every hazard class
// seen (or anticipated) in this tree, simple enough to be reviewed in one
// sitting.  Where a heuristic can over-match, the suppression annotation
// carries the burden of proof -- a false positive costs one annotated line
// with a written reason; a false negative costs a golden-trace diff (or a
// 4-thread data race) three PRs later.
#include <cctype>
#include <initializer_list>
#include <set>
#include <string>

#include "lint/internal.h"

namespace qcdoc::lint {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool is_ident_in(const Token& t, const std::set<std::string>& set) {
  return t.kind == TokKind::kIdent && set.count(t.text) > 0;
}

const Token* at(const std::vector<Token>& toks, std::size_t i) {
  static const Token kNone{TokKind::kPunct, "", 0};
  return i < toks.size() ? &toks[i] : &kNone;
}

/// True when the identifier names simulated time: the Cycle type itself,
/// now() reads, or *_cycles counters (trailing underscores of members are
/// ignored).
bool cycleish(const std::vector<Token>& toks, std::size_t i) {
  const Token& t = toks[i];
  if (t.kind != TokKind::kIdent) return false;
  if (t.text == "Cycle") return true;
  if (t.text == "now" && is_punct(*at(toks, i + 1), "(")) return true;
  std::string name = t.text;
  while (!name.empty() && name.back() == '_') name.pop_back();
  if (name.size() >= 6 &&
      name.compare(name.size() - 6, 6, "cycles") == 0) {
    return true;
  }
  return name == "cycle";
}

/// Every spelling of "put an event on the queue".
const std::set<std::string>& schedule_names() {
  static const std::set<std::string> set = {
      "schedule", "schedule_at", "schedule_in", "schedule_on",
      "schedule_at_on"};
  return set;
}

// --- lambda literals ------------------------------------------------------

/// A lambda literal found among a call's arguments, decomposed for the
/// affinity rules.  Token indices refer to SourceFile::tokens; the body is
/// [body_begin, body_end) exclusive of the braces.
struct LambdaLit {
  std::size_t cap_open = 0;   ///< '['
  std::size_t cap_close = 0;  ///< ']'
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  /// Captures the enclosing object's state wholesale: `this`, `[=]`, `[&]`.
  bool captures_enclosing = false;
  bool default_ref = false;             ///< [&] or [&, ...]
  std::vector<std::size_t> ref_caps;    ///< ident index of each `&name`
  std::vector<std::size_t> value_caps;  ///< ident index of each plain `name`
};

/// Parse the capture list and body bounds of the lambda whose '[' is at
/// `open`.  Returns false when no body brace is found (not a lambda).
bool parse_lambda(const std::vector<Token>& toks, std::size_t open,
                  LambdaLit* lam) {
  lam->cap_open = open;
  // Capture list: walk to the matching ']', classifying each top-level item.
  std::size_t j = open + 1;
  int depth = 1;
  bool item_start = true;
  for (; j < toks.size() && depth > 0; ++j) {
    const Token& t = toks[j];
    if (is_punct(t, "[")) ++depth;
    if (is_punct(t, "]")) {
      --depth;
      continue;
    }
    if (depth != 1) continue;
    if (is_punct(t, ",")) {
      item_start = true;
      continue;
    }
    if (!item_start) continue;
    item_start = false;
    if (is_ident(t, "this") || is_punct(t, "=")) {
      lam->captures_enclosing = true;
    } else if (is_punct(t, "&")) {
      const Token& nx = *at(toks, j + 1);
      if (nx.kind == TokKind::kIdent) {
        lam->ref_caps.push_back(j + 1);
      } else {
        lam->default_ref = true;
        lam->captures_enclosing = true;
      }
    } else if (is_punct(t, "*")) {
      // [*this]: a by-value copy of the object -- affinity-safe.
      if (is_ident(*at(toks, j + 1), "this")) ++j;
    } else if (t.kind == TokKind::kIdent) {
      // `name = init` is an init capture (a snapshot; the sanctioned
      // pattern).  A bare `name` copies a local.
      if (!is_punct(*at(toks, j + 1), "=")) lam->value_caps.push_back(j);
    }
  }
  if (depth != 0) return false;
  lam->cap_close = j - 1;
  // Optional parameter list, specifiers (mutable/noexcept), trailing return
  // type; then the body brace.
  std::size_t k = lam->cap_close + 1;
  if (is_punct(*at(toks, k), "(")) {
    int pd = 1;
    for (++k; k < toks.size() && pd > 0; ++k) {
      if (is_punct(toks[k], "(")) ++pd;
      if (is_punct(toks[k], ")")) --pd;
    }
  }
  for (std::size_t guard = 0; guard < 16 && k < toks.size(); ++guard, ++k) {
    if (is_punct(toks[k], "{")) break;
  }
  if (k >= toks.size() || !is_punct(toks[k], "{")) return false;
  lam->body_begin = k + 1;
  int bd = 1;
  std::size_t e = lam->body_begin;
  for (; e < toks.size() && bd > 0; ++e) {
    if (is_punct(toks[e], "{")) ++bd;
    if (is_punct(toks[e], "}")) --bd;
  }
  lam->body_end = e > 0 ? e - 1 : 0;
  return true;
}

/// Find the first lambda literal among the arguments of the call whose
/// opening '(' is at token index `open` (a '[' in argument position, i.e.
/// right after '(' or ',').
bool find_call_lambda(const std::vector<Token>& toks, std::size_t open,
                      LambdaLit* lam) {
  int depth = 1;
  for (std::size_t j = open + 1; j < toks.size() && depth > 0; ++j) {
    if (is_punct(toks[j], "(")) ++depth;
    if (is_punct(toks[j], ")")) --depth;
    if (is_punct(toks[j], "[") &&
        (is_punct(toks[j - 1], "(") || is_punct(toks[j - 1], ","))) {
      return parse_lambda(toks, j, lam);
    }
  }
  return false;
}

// --- R1: wall-clock ------------------------------------------------------

/// Entropy sources that differ between runs.  Everything stochastic must
/// come from qcdoc::Rng seeded out of the machine config; everything timed
/// must come from the engine's simulated clock.
const std::set<std::string>& banned_entropy() {
  static const std::set<std::string> set = {
      "rand",          "srand",           "rand_r",
      "drand48",       "lrand48",         "mrand48",
      "random_device", "system_clock",    "high_resolution_clock",
      "steady_clock",  "gettimeofday",    "clock_gettime",
      "localtime",     "gmtime",          "mt19937",
      "mt19937_64",    "minstd_rand",     "minstd_rand0",
      "ranlux24",      "ranlux48",        "default_random_engine",
  };
  return set;
}

class WallClockRule final : public Rule {
 public:
  const char* id() const override { return "wall-clock"; }
  const char* summary() const override {
    return "no wall-clock or unseeded randomness in sim-critical code; use "
           "qcdoc::Rng seeded from config and the engine's simulated clock";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_any(sim_critical_dirs())) return;
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (is_ident_in(t, banned_entropy())) {
        add(f, t,
            "'" + t.text + "' is nondeterministic across runs; draw from "
            "qcdoc::Rng / the engine clock instead",
            out);
        continue;
      }
      // `time(...)` / `clock(...)` as free-function calls only: member
      // accesses (`event.time`) and declarations without a call are fine.
      if ((t.text == "time" || t.text == "clock") &&
          is_punct(*at(toks, i + 1), "(")) {
        const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
        const bool member = prev != nullptr && (is_punct(*prev, ".") ||
                                                is_punct(*prev, "->"));
        // `std::time(` and `::time(` are the C library; `foo::time(` is not.
        bool qualified_other = false;
        if (prev != nullptr && is_punct(*prev, "::") && i >= 2) {
          qualified_other = !is_ident(toks[i - 2], "std");
        }
        if (!member && !qualified_other) {
          add(f, t,
              "'" + t.text + "()' reads the wall clock; simulated time comes "
              "from Engine::now()",
              out);
        }
      }
    }
  }
};

// --- R2: unordered-container ---------------------------------------------

class UnorderedContainerRule final : public Rule {
 public:
  const char* id() const override { return "unordered-container"; }
  const char* summary() const override {
    return "no unordered containers or pointer-keyed ordering in "
           "digest-affecting code; iteration order must be value-determined";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_any(digest_affecting_dirs())) return;
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset", "flat_hash_map", "flat_hash_set"};
    static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                   "multiset"};
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_ident_in(t, kUnordered)) {
        // Any use is flagged, not just iteration: a container that is never
        // iterated today invites the range-for that breaks the digest
        // tomorrow, and a lexer cannot chase aliases across files.  Uses
        // that provably never iterate carry an annotation saying so.
        add(f, t,
            "'" + t.text + "' has nondeterministic iteration order in "
            "digest-affecting code; use std::map/std::set (or annotate why "
            "it is never iterated)",
            out);
        continue;
      }
      // std::map<T*, ...> / std::set<T*>: ordered, but by allocation
      // address, which differs run to run.
      if (is_ident_in(t, kOrdered) && i >= 1 &&
          is_punct(toks[i - 1], "::") && is_punct(*at(toks, i + 1), "<")) {
        int depth = 1;
        for (std::size_t j = i + 2; j < toks.size() && j < i + 64; ++j) {
          const Token& a = toks[j];
          if (is_punct(a, "<")) ++depth;
          if (is_punct(a, ">")) --depth;
          if (is_punct(a, ">>")) depth -= 2;
          if (depth <= 0) break;
          if (depth == 1 && is_punct(a, ",")) break;  // end of key type
          if (is_punct(a, "*")) {
            add(f, t,
                "pointer-keyed std::" + t.text + ": ordering follows "
                "allocation addresses, which are not reproducible; key by a "
                "stable id",
                out);
            break;
          }
        }
      }
    }
  }
};

// --- R3: raw-engine ------------------------------------------------------

class RawEngineRule final : public Rule {
 public:
  const char* id() const override { return "raw-engine"; }
  const char* summary() const override {
    return "outside src/sim, schedule only through a held sim::EngineRef "
           "with node affinity (no raw Engine pointers or temporaries)";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_dir("src/") || f.in_dir("src/sim/")) return;
    static const std::set<std::string> kScheduleCalls = {
        "schedule", "schedule_at", "schedule_on", "schedule_in"};
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (!is_punct(*at(toks, i + 1), "(")) continue;
      if (t.text == "schedule_at_on") {
        add(f, t,
            "schedule_at_on is the engine-internal primitive; outside "
            "src/sim route through sim::EngineRef so events carry node "
            "affinity",
            out);
        continue;
      }
      if (kScheduleCalls.count(t.text) == 0) continue;
      const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
      if (prev == nullptr) continue;
      if (is_punct(*prev, "->")) {
        add(f, t,
            "'" + t.text + "' called through a raw Engine pointer; hold a "
            "sim::EngineRef with the owning node's affinity",
            out);
      } else if (is_punct(*prev, ".") && i >= 2 && is_punct(toks[i - 2], ")")) {
        // engine().schedule(...) / host_ref().schedule(...): scheduling on a
        // temporary hides which affinity the event lands on.  Bind a named
        // EngineRef so the affinity decision is visible at the call site.
        add(f, t,
            "'" + t.text + "' called on a temporary engine accessor; bind a "
            "named sim::EngineRef (with explicit affinity) first",
            out);
      }
    }
  }
};

// --- R4: mutable-static --------------------------------------------------

class MutableStaticRule final : public Rule {
 public:
  const char* id() const override { return "mutable-static"; }
  const char* summary() const override {
    return "no non-const static or thread_local state in sim-critical code; "
           "all state must live in objects owned (transitively) by Machine";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_any(sim_critical_dirs())) return;
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (!is_ident(t, "static") && !is_ident(t, "thread_local")) continue;
      bool immutable = false;
      bool is_function = false;
      std::size_t j = i + 1;
      int angle = 0;
      for (; j < toks.size() && j < i + 64; ++j) {
        const Token& a = toks[j];
        if (a.kind == TokKind::kIdent &&
            (a.text == "const" || a.text == "constexpr" ||
             a.text == "constinit")) {
          immutable = true;
          break;
        }
        if (is_punct(a, "<")) ++angle;
        if (is_punct(a, ">")) --angle;
        if (is_punct(a, ">>")) angle -= 2;
        if (angle > 0) continue;
        if (is_punct(a, "(")) {
          // `static void f(...)` -- a function declaration, stateless.
          // (Paren-initialized static objects are misread as functions too;
          // this tree brace-initializes, and the fixture tests pin that.)
          is_function = j > i + 1 && toks[j - 1].kind == TokKind::kIdent;
          break;
        }
        if (is_punct(a, ";") || is_punct(a, "=") || is_punct(a, "{")) break;
      }
      if (!immutable && !is_function) {
        add(f, t,
            "mutable '" + t.text + "' state in sim-critical code outlives "
            "the Machine and leaks across runs/engines; make it const or "
            "move it into an engine-owned object",
            out);
      }
      i = j;  // do not re-flag `thread_local` of `static thread_local X x;`
    }
  }
};

// --- R5: nodiscard-status ------------------------------------------------

class NodiscardStatusRule final : public Rule {
 public:
  const char* id() const override { return "nodiscard-status"; }
  const char* summary() const override {
    return "bool-returning APIs in scu/hssl/fault headers must be "
           "[[nodiscard]]; -Werror=unused-result makes call sites consume "
           "them";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_any(status_api_dirs()) || !f.is_header()) return;
    static const std::set<std::string> kModifiers = {
        "virtual", "inline", "static", "constexpr", "explicit", "friend"};
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "bool")) continue;
      const Token& name = toks[i + 1];
      if (name.kind != TokKind::kIdent || name.text == "operator") continue;
      if (!is_punct(toks[i + 2], "(")) continue;
      // Parameters (`void f(bool flag)`) are not declarations of interest.
      if (i > 0 && (is_punct(toks[i - 1], "(") || is_punct(toks[i - 1], ",")))
        continue;
      // Walk back over declaration modifiers to the attribute position.
      std::size_t p = i;
      while (p > 0 && is_ident_in(toks[p - 1], kModifiers)) --p;
      bool has_nodiscard = false;
      if (p >= 2 && is_punct(toks[p - 1], "]") && is_punct(toks[p - 2], "]")) {
        for (std::size_t b = p - 2; b > 0; --b) {
          if (is_punct(toks[b], "[")) break;
          if (is_ident(toks[b], "nodiscard")) {
            has_nodiscard = true;
            break;
          }
        }
      }
      if (!has_nodiscard) {
        add(f, name,
            "status-returning '" + name.text + "' must be [[nodiscard]] so "
            "a dropped failure cannot pass silently",
            out);
      }
    }
  }
};

// --- R6: cycle-narrow ----------------------------------------------------

class CycleNarrowRule final : public Rule {
 public:
  const char* id() const override { return "cycle-narrow"; }
  const char* summary() const override {
    return "no narrowing of Cycle (u64 simulated time) into 32-bit-or-"
           "smaller types; long campaigns overflow u32 after ~8.6 s of "
           "simulated 500 MHz time";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_any(digest_affecting_dirs())) return;
    static const std::set<std::string> kNarrow = {
        "u8",      "u16",      "u32",     "i32",     "int",
        "short",   "unsigned", "uint8_t", "uint16_t", "uint32_t",
        "int32_t", "int16_t"};
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      // static_cast<u32>(expr-involving-cycles)
      if (is_ident(toks[i], "static_cast") && is_punct(*at(toks, i + 1), "<") &&
          is_ident_in(*at(toks, i + 2), kNarrow) &&
          is_punct(*at(toks, i + 3), ">") && is_punct(*at(toks, i + 4), "(")) {
        int depth = 1;
        for (std::size_t j = i + 5; j < toks.size() && depth > 0; ++j) {
          if (is_punct(toks[j], "(")) ++depth;
          if (is_punct(toks[j], ")")) --depth;
          if (depth > 0 && cycleish(toks, j)) {
            add(f, toks[i],
                "static_cast<" + toks[i + 2].text + "> narrows a cycle "
                "count to 32 bits or fewer; keep simulated time in Cycle "
                "(u64)",
                out);
            break;
          }
        }
        continue;
      }
      // u32 deadline = expr-involving-cycles;
      if (is_ident_in(toks[i], kNarrow) &&
          at(toks, i + 1)->kind == TokKind::kIdent &&
          is_punct(*at(toks, i + 2), "=")) {
        for (std::size_t j = i + 3; j < toks.size() && j < i + 48; ++j) {
          if (is_punct(toks[j], ";")) break;
          if (cycleish(toks, j)) {
            add(f, toks[i],
                "'" + toks[i + 1].text + "' stores a cycle quantity in a "
                "32-bit-or-smaller type; declare it Cycle",
                out);
            break;
          }
        }
      }
    }
  }
};

// --- R7: std-function-event ----------------------------------------------

class StdFunctionEventRule final : public Rule {
 public:
  const char* id() const override { return "std-function-event"; }
  const char* summary() const override {
    return "no std::function in src/sim/, src/hssl/ or src/scu/; event "
           "actions and link-path callbacks use sim::SmallFn (48-byte inline "
           "buffer + pooled fallback) or direct calls, so the event and "
           "per-frame paths allocate zero heap blocks";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_dir("src/sim/") && !f.in_dir("src/hssl/") &&
        !f.in_dir("src/scu/")) {
      return;
    }
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
          is_ident(toks[i + 2], "function")) {
        add(f, toks[i],
            "std::function heap-allocates nearly every event action (its "
            "inline buffer is 16 bytes); store engine actions in "
            "sim::EventFn and link-path callbacks in sim::SmallFn",
            out);
      }
    }
  }
};

// --- R8: raw-state-io ----------------------------------------------------

class RawStateIoRule final : public Rule {
 public:
  const char* id() const override { return "raw-state-io"; }
  const char* summary() const override {
    return "outside src/snapshot/, no raw file I/O and no memcpy of whole "
           "structs; persisted state goes through the snapshot serializer "
           "(versioned sections, explicit field encoding, CRCs)";
  }
  void check(const SourceFile& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    if (!f.in_dir("src/") || f.in_dir("src/snapshot/")) return;
    static const std::set<std::string> kRawIo = {
        "fwrite", "fread",  "fopen",   "ofstream",
        "ifstream", "fstream", "fprintf", "fscanf"};
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (is_ident_in(t, kRawIo)) {
        // fprintf/fscanf to stderr-style logging is fine; everything here
        // is flagged and the rare legitimate use carries an annotation.
        add(f, t,
            "'" + t.text + "' writes or reads machine state as raw bytes "
            "with no version tag or checksum; persist through the snapshot "
            "serializer (src/snapshot)",
            out);
        continue;
      }
      // memcpy(dst, src, sizeof(SomeStruct) [* n]): blitting a whole struct
      // bakes padding, layout and endianness into the byte stream.  Copies
      // sized by sizeof(scalar) or sizeof(expr) are everyday value punning
      // and stay legal (type names are Capitalized in this tree).
      if (!is_ident(t, "memcpy") || !is_punct(*at(toks, i + 1), "(")) continue;
      int depth = 1;
      for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        if (is_punct(toks[j], ")")) --depth;
        if (depth == 1 && is_ident(toks[j], "sizeof") &&
            is_punct(*at(toks, j + 1), "(")) {
          // Skip namespace qualifiers: sizeof(fault::FaultEvent).
          std::size_t k = j + 2;
          while (at(toks, k)->kind == TokKind::kIdent &&
                 is_punct(*at(toks, k + 1), "::")) {
            k += 2;
          }
          const Token* ty = at(toks, k);
          if (ty->kind == TokKind::kIdent && !ty->text.empty() &&
              std::isupper(static_cast<unsigned char>(ty->text[0])) &&
              is_punct(*at(toks, k + 1), ")")) {
            add(f, t,
                "memcpy of whole struct '" + ty->text + "' serializes "
                "padding and layout; encode fields explicitly via the "
                "snapshot ByteSink/ByteSource",
                out);
            break;
          }
        }
      }
    }
  }
};

// --- R9: cross-affinity-access -------------------------------------------

class CrossAffinityAccessRule final : public Rule {
 public:
  const char* id() const override { return "cross-affinity-access"; }
  const char* summary() const override {
    return "an event delivered to another affinity must not touch the "
           "scheduling object's members through a captured 'this'; snapshot "
           "values into the capture list or schedule through the owner's "
           "EngineRef";
  }
  void check(const SourceFile& f, const ProjectIndex& project,
             std::vector<Finding>* out) const override {
    if (!f.in_any(scheduling_dirs())) return;
    const auto spans = method_spans(f);
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !is_punct(*at(toks, i + 1), "(")) {
        continue;
      }
      if (schedule_names().count(t.text) == 0) continue;
      const MethodSpan* span = enclosing_span(spans, i);
      const ClassInfo* cls =
          span != nullptr ? project.find_class(span->class_name) : nullptr;
      // Cross-affinity delivery: the explicit-destination primitives, or a
      // receiver that is an EngineRef member other than the component's own
      // engine_ (this tree's idiom for "the other end's affinity", e.g.
      // Hssl::delivery_).
      bool cross = t.text == "schedule_on" || t.text == "schedule_at_on";
      if (!cross && cls != nullptr && i >= 2 &&
          (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
          toks[i - 2].kind == TokKind::kIdent) {
        const std::string& recv = toks[i - 2].text;
        cross = recv != "engine_" && cls->engine_ref_members.count(recv) > 0;
      }
      if (!cross || cls == nullptr) continue;
      LambdaLit lam;
      if (!find_call_lambda(toks, i + 1, &lam)) continue;
      if (!lam.captures_enclosing) continue;
      // Members of the scheduling class read or written inside the body run
      // under the *destination* affinity -- a cross-affinity access.
      std::set<std::string> flagged;
      for (std::size_t j = lam.body_begin; j < lam.body_end; ++j) {
        const Token& m = toks[j];
        if (m.kind != TokKind::kIdent) continue;
        if (cls->members.count(m.text) == 0 ||
            cls->engine_ref_members.count(m.text) > 0) {
          continue;
        }
        // `other.field_` is somebody else's member; only direct and
        // `this->` accesses belong to the captured object.
        if (j >= 2 &&
            (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->")) &&
            !is_ident(toks[j - 2], "this")) {
          continue;
        }
        if (!flagged.insert(m.text).second) continue;
        add(f, m,
            "'" + m.text + "' is " + cls->name + " state, but this event "
            "executes on another affinity ('" + t.text + "' at line " +
            std::to_string(t.line) + "); snapshot it into the capture list "
            "(x = " + m.text + ") or schedule through the owner's EngineRef",
            out);
      }
    }
  }
};

// --- R10: event-raw-capture ----------------------------------------------

class EventRawCaptureRule final : public Rule {
 public:
  const char* id() const override { return "event-raw-capture"; }
  const char* summary() const override {
    return "scheduled events must not capture references or raw pointers "
           "to another component's state; capture values or stable ids";
  }
  void check(const SourceFile& f, const ProjectIndex& project,
             std::vector<Finding>* out) const override {
    if (!f.in_any(scheduling_dirs())) return;
    const auto spans = method_spans(f);
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !is_punct(*at(toks, i + 1), "(")) {
        continue;
      }
      if (schedule_names().count(t.text) == 0) continue;
      LambdaLit lam;
      if (!find_call_lambda(toks, i + 1, &lam)) continue;
      if (lam.default_ref) {
        add(f, toks[lam.cap_open],
            "default reference capture [&] in a scheduled event: every "
            "referenced local is gone by delivery time, and references hide "
            "cross-affinity access; capture explicit values",
            out);
      }
      for (const std::size_t r : lam.ref_caps) {
        add(f, toks[r],
            "'&" + toks[r].text + "' captures a reference into a scheduled "
            "event; by delivery time the referent may be destroyed or owned "
            "by another affinity -- capture a value or a stable id",
            out);
      }
      // A by-value copy of a raw pointer to a node-owned component smuggles
      // that component's state across the affinity boundary just as well as
      // a reference does.
      const MethodSpan* span = enclosing_span(spans, i);
      const ClassInfo* encl =
          span != nullptr ? project.find_class(span->class_name) : nullptr;
      for (const std::size_t v : lam.value_caps) {
        const std::string& name = toks[v].text;
        const std::size_t lo = span != nullptr ? span->body_begin : 0;
        for (std::size_t k = i; k > lo; --k) {
          const std::size_t d = k - 1;
          if (!(toks[d].kind == TokKind::kIdent && toks[d].text == name)) {
            continue;
          }
          if (d < 2 || !is_punct(toks[d - 1], "*") ||
              toks[d - 2].kind != TokKind::kIdent) {
            continue;
          }
          const ClassInfo* pointee = project.find_class(toks[d - 2].text);
          if (pointee == nullptr || pointee->domain != Domain::kNode) break;
          if (encl != nullptr && encl->name == pointee->name) break;
          add(f, toks[v],
              "'" + name + "' is a raw " + pointee->name + "* captured by "
              "value into a scheduled event; the pointee is node-owned "
              "state -- capture a stable id and resolve it at delivery",
              out);
          break;
        }
      }
    }
  }
};

// --- R11: host-touch-undeclared ------------------------------------------

/// Method names too generic to attribute to a node component: containers
/// and engine plumbing share them, and flagging `queue_.clear()` as an Hssl
/// mutation would drown the signal.
const std::set<std::string>& generic_methods() {
  static const std::set<std::string> set = {
      "push_back", "emplace_back", "pop_front", "pop_back", "push",  "pop",
      "emplace",   "insert",       "erase",     "clear",    "reset", "resize",
      "reserve",   "assign",       "swap",      "append",   "add",   "at",
      "get",       "set",          "begin",     "end",      "size",  "empty",
      "front",     "back",         "count",     "find",     "min",   "max",
      "move",      "forward",      "substr",    "to_string", "now",  "run",
      "schedule",  "schedule_at",  "schedule_on", "schedule_in",
      "schedule_at_on"};
  return set;
}

class HostTouchRule final : public Rule {
 public:
  const char* id() const override { return "host-touch-undeclared"; }
  const char* summary() const override {
    return "a host-affinity event that mutates node-owned state must "
           "declare its touched-affinity set: 'qcdoc-lint: touches(<set>) "
           "reason' at the schedule site (AFFSAN enforces it at runtime)";
  }
  void check(const SourceFile& f, const ProjectIndex& project,
             std::vector<Finding>* out) const override {
    if (!f.in_any(scheduling_dirs())) return;
    const auto spans = method_spans(f);
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !is_punct(*at(toks, i + 1), "(")) {
        continue;
      }
      // Explicit-destination scheduling is R9's beat; here we care about
      // events that land on the *host* affinity.
      if (t.text != "schedule" && t.text != "schedule_at" &&
          t.text != "schedule_in") {
        continue;
      }
      const MethodSpan* span = enclosing_span(spans, i);
      const ClassInfo* cls =
          span != nullptr ? project.find_class(span->class_name) : nullptr;
      if (cls == nullptr || cls->domain != Domain::kHost) continue;
      if (i < 2 ||
          !(is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) ||
          toks[i - 2].kind != TokKind::kIdent) {
        continue;
      }
      if (!receiver_is_host(toks, span, i - 2, *cls)) continue;
      LambdaLit lam;
      if (!find_call_lambda(toks, i + 1, &lam)) continue;
      std::string mut, mut_cls;
      std::set<std::string> visited;
      if (!reaches_node_mutator(f, project, spans, cls, lam.body_begin,
                                lam.body_end, 0, &visited, &mut, &mut_cls)) {
        continue;
      }
      if (declared(f, toks, t.line, lam)) continue;
      add(f, t,
          "host event reaches node mutator '" + mut_cls + "::" + mut +
          "' with no declared touched-affinity set; annotate the schedule "
          "site with '// qcdoc-lint: touches(<set>) <why>' and bound it at "
          "runtime (QCDOC_AFFSAN_TOUCH*)",
          out);
    }
  }

 private:
  /// True when the schedule receiver is host-affine: the host class's own
  /// EngineRef member, or a local EngineRef constructed with one argument
  /// (the affinity parameter defaults to host).  A two-argument constructor
  /// pins an explicit node affinity -- those events are the node's own.
  /// Unresolvable receivers count as host: over-matching costs one
  /// annotation, under-matching hides a cross-affinity mutation.
  static bool receiver_is_host(const std::vector<Token>& toks,
                               const MethodSpan* span, std::size_t recv_i,
                               const ClassInfo& cls) {
    const std::string& recv = toks[recv_i].text;
    if (cls.engine_ref_members.count(recv) > 0) return true;
    const std::size_t lo = span != nullptr ? span->body_begin : 0;
    for (std::size_t k = recv_i; k > lo; --k) {
      const std::size_t d = k - 1;
      if (toks[d].kind != TokKind::kIdent || toks[d].text != recv) continue;
      if (d < 1 || !is_ident(toks[d - 1], "EngineRef")) continue;
      if (!is_punct(*at(toks, d + 1), "(")) continue;
      int depth = 1;
      int commas = 0;
      for (std::size_t j = d + 2; j < toks.size() && depth > 0; ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        if (is_punct(toks[j], ")")) --depth;
        if (depth == 1 && is_punct(toks[j], ",")) ++commas;
      }
      return commas == 0;
    }
    return true;
  }

  /// Does [begin, end) call a void-returning non-const method of a
  /// node-domain class visible from this TU?  Chases calls into same-file
  /// methods of the scheduling class (`apply(...)` helpers), two levels
  /// deep.
  static bool reaches_node_mutator(const SourceFile& f,
                                   const ProjectIndex& project,
                                   const std::vector<MethodSpan>& spans,
                                   const ClassInfo* cls, std::size_t begin,
                                   std::size_t end, int depth,
                                   std::set<std::string>* visited,
                                   std::string* mut, std::string* mut_cls) {
    const auto& toks = f.tokens;
    for (std::size_t j = begin; j < end && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kIdent ||
          !is_punct(*at(toks, j + 1), "(")) {
        continue;
      }
      const std::string& name = toks[j].text;
      if (generic_methods().count(name) > 0) continue;
      std::string hit;
      if (project.is_node_mutator(f.path, name, &hit)) {
        *mut = name;
        *mut_cls = hit;
        return true;
      }
      if (depth >= 2 || cls == nullptr || cls->mutators.count(name) == 0 ||
          !visited->insert(name).second) {
        continue;
      }
      for (const MethodSpan& s : spans) {
        if (s.class_name != cls->name || s.method_name != name) continue;
        if (reaches_node_mutator(f, project, spans, cls, s.body_begin,
                                 s.body_end, depth + 1, visited, mut,
                                 mut_cls)) {
          return true;
        }
        break;
      }
    }
    return false;
  }

  /// A touches(...) annotation anywhere from the line above the schedule
  /// call through the end of the lambda body declares the set; so does a
  /// runtime QCDOC_AFFSAN_TOUCH* scope inside the body.
  static bool declared(const SourceFile& f, const std::vector<Token>& toks,
                       int sched_line, const LambdaLit& lam) {
    const int end_line =
        lam.body_end < toks.size() ? toks[lam.body_end].line : sched_line;
    for (const auto& d : f.touch_decls) {
      if (d.line >= sched_line - 1 && d.line <= end_line) return true;
    }
    for (std::size_t j = lam.body_begin; j < lam.body_end; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.rfind("QCDOC_AFFSAN_TOUCH", 0) == 0) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

const std::vector<std::unique_ptr<Rule>>& rules() {
  // qcdoc-lint: allow(mutable-static) the registry itself is in tools/, not
  // sim-critical; built once, read-only thereafter.
  static const auto* kRules = [] {
    auto* v = new std::vector<std::unique_ptr<Rule>>();
    v->push_back(std::make_unique<WallClockRule>());
    v->push_back(std::make_unique<UnorderedContainerRule>());
    v->push_back(std::make_unique<RawEngineRule>());
    v->push_back(std::make_unique<MutableStaticRule>());
    v->push_back(std::make_unique<NodiscardStatusRule>());
    v->push_back(std::make_unique<CycleNarrowRule>());
    v->push_back(std::make_unique<StdFunctionEventRule>());
    v->push_back(std::make_unique<RawStateIoRule>());
    v->push_back(std::make_unique<CrossAffinityAccessRule>());
    v->push_back(std::make_unique<EventRawCaptureRule>());
    v->push_back(std::make_unique<HostTouchRule>());
    return v;
  }();
  return *kRules;
}

}  // namespace qcdoc::lint
