// AFFSAN -- the affinity-ownership sanitizer (dynamic half of the ownership
// model; DESIGN.md section 6).
//
// The static rules R9..R11 (tools/lint) catch cross-affinity state access
// they can see in the source.  AFFSAN catches what they cannot: at
// construction, the network builder tags each per-node component (SCU, node
// memory, every HSSL wire) with the affinity that owns it; mutators of those
// components call QCDOC_AFFSAN_CHECK(this), and the check traps -- throws
// AffinityViolation -- when the executing event's affinity differs from the
// region's owner and no touched-affinity scope covers it.
//
// A host event that legitimately reaches into node state (fault injection,
// recovery) declares its touched set at the schedule site, mirroring the
// `// qcdoc-lint: touches(...)` annotation the static rule R11 requires:
//
//   host.schedule_at(at, [this, idx] {
//     QCDOC_AFFSAN_TOUCH_ALL();          // or QCDOC_AFFSAN_TOUCH(affinity)
//     ...mutate any node's wire/SCU/memory...
//   });
//
// Everything here is zero-cost unless the build sets QCDOC_AFFSAN: the
// macros expand to ((void)0), no regions are registered, and the check
// function is never called.  Under QCDOC_AFFSAN the registry adds one
// shared-mutex read lock per checked mutator call -- sanitizer-build money,
// spent only on entry points, never in compute kernels.
//
// Checks fire only inside events (detail::exec_ctx().engine != nullptr).
// Host driver code that mutates node state between engine runs -- boot
// pokes, health sweeps, test setup -- executes outside any event and passes
// unconditionally: AFFSAN audits the *event* ownership discipline that the
// engine's parallel windows depend on, not single-threaded setup.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "sim/engine.h"

namespace qcdoc::sim {

/// Thrown by a failed affinity check.  Carries the full provenance in its
/// what() string: the tagged region, its owner, and the offending event's
/// time, execution affinity, scheduling source and sequence number.
class AffinityViolation : public std::logic_error {
 public:
  explicit AffinityViolation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

namespace affsan {

/// True when the build has the sanitizer compiled in (QCDOC_AFFSAN).
bool enabled();

/// "host" or "node N" -- the spelling used in violation reports.
std::string affinity_name(Affinity a);

/// Register [base, base+bytes) as state owned by `owner`.  `tag` must
/// outlive the region (string literals in practice).  Re-registering an
/// identical base replaces the previous region.
void own(const void* base, std::size_t bytes, Affinity owner,
         const char* tag);

/// Remove the region registered at `base` (no-op when unknown, so
/// destructor teardown order never matters).
void disown(const void* base);

/// Trap if the current event may not touch `addr`: the address lies in a
/// registered region, the event's affinity differs from the region's
/// owner, and no enclosing ScopedTouch covers that owner.  Outside events
/// (no engine in the thread-local context) the check passes.
void check(const void* addr, const char* file, int line);

/// Number of live regions (test hook).
std::size_t region_count();

/// Owner lookup (test hook).  Returns false when `addr` is untagged.
bool owner_of(const void* addr, Affinity* owner);

/// Declares, for the current thread until scope exit, that the running
/// event may touch state owned by `affinity` -- or by anyone, for the
/// default-constructed form.  This is the dynamic twin of the static
/// `touches(...)` annotation; the QCDOC_AFFSAN_TOUCH* macros place one of
/// these at the top of an event body.  Scopes nest.
class ScopedTouch {
 public:
  ScopedTouch();  ///< touch-all: the event may reach any affinity
  explicit ScopedTouch(Affinity affinity);
  ~ScopedTouch();
  ScopedTouch(const ScopedTouch&) = delete;
  ScopedTouch& operator=(const ScopedTouch&) = delete;

 private:
  bool all_;
};

}  // namespace affsan
}  // namespace qcdoc::sim

// Two-level expansion so __LINE__ pastes into a unique identifier.
#define QCDOC_AFFSAN_CAT2(a, b) a##b
#define QCDOC_AFFSAN_CAT(a, b) QCDOC_AFFSAN_CAT2(a, b)

#if defined(QCDOC_AFFSAN)

#define QCDOC_AFFSAN_OWN(base, bytes, owner, tag) \
  ::qcdoc::sim::affsan::own((base), (bytes), (owner), (tag))
#define QCDOC_AFFSAN_DISOWN(base) ::qcdoc::sim::affsan::disown((base))
#define QCDOC_AFFSAN_CHECK(addr) \
  ::qcdoc::sim::affsan::check((addr), __FILE__, __LINE__)
#define QCDOC_AFFSAN_TOUCH(affinity)           \
  const ::qcdoc::sim::affsan::ScopedTouch      \
      QCDOC_AFFSAN_CAT(qcdoc_affsan_touch_, __LINE__)(affinity)
#define QCDOC_AFFSAN_TOUCH_ALL()          \
  const ::qcdoc::sim::affsan::ScopedTouch \
      QCDOC_AFFSAN_CAT(qcdoc_affsan_touch_, __LINE__)

#else  // !QCDOC_AFFSAN: every annotation compiles away.

// Each argument becomes an unevaluated sizeof operand: nothing runs, yet a
// variable that only an annotation names still counts as used.
#define QCDOC_AFFSAN_OWN(base, bytes, owner, tag)                 \
  ((void)sizeof(base), (void)sizeof(bytes), (void)sizeof(owner), \
   (void)sizeof(tag))
#define QCDOC_AFFSAN_DISOWN(base) ((void)sizeof(base))
#define QCDOC_AFFSAN_CHECK(addr) ((void)sizeof(addr))
#define QCDOC_AFFSAN_TOUCH(affinity) ((void)sizeof(affinity))
#define QCDOC_AFFSAN_TOUCH_ALL() ((void)0)

#endif  // QCDOC_AFFSAN
