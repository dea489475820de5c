// Whole-machine state capture and restore -- the orchestration layer of the
// snapshot subsystem.
//
// A capture walks engine + mesh + memories + fault/health components into
// the sections of one SnapshotFile; a restore verifies geometry and
// overwrites a freshly constructed machine with the captured state.  The
// restore protocol is deliberately two-sided:
//
//   1. The restoring process REPLAYS construction deterministically: build
//      the Machine from the same MachineConfig, power_on(), and perform the
//      identical allocation sequence (gauge/field/workspace allocations).
//      The bump allocator then reproduces the snapshotted memory layout
//      exactly, which restore_machine() verifies chunk by chunk.
//   2. restore_machine() OVERWRITES state: memory contents, ECC
//      bookkeeping, engine clock + per-rank order digests, link integrity
//      counters, health classification, auditor counters -- and re-arms
//      standing services (background scrubbers restart, the fault injector
//      re-arms the unfired remainder of its plan).
//
// Pending events are never serialized: EventFn closures capture raw
// pointers.  Snapshots are therefore only legal at quiescent points (CG
// audit boundaries leave pending_events() == 0) up to service-owned events,
// which capture_machine() verifies and reports loudly when violated.
#pragma once

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/health.h"
#include "machine/machine.h"
#include "snapshot/format.h"

namespace qcdoc::snapshot {

/// Optional host/fault components whose state rides the snapshot.  Null
/// members are simply not captured (and their sections not required on
/// restore).
struct MachineExtras {
  host::HealthMonitor* health = nullptr;
  fault::ChecksumAuditor* auditor = nullptr;
  fault::MemCheckAuditor* mem_auditor = nullptr;
  fault::FaultInjector* injector = nullptr;
};

/// Capture the complete machine into `file`'s sections.  Fails (capturing
/// nothing) when the mesh has DMA transfers in flight or the engine holds
/// pending events beyond those owned by registered services (the injector's
/// unfired plan, one standing burst per running scrubber).
Status capture_machine(machine::Machine& m, const MachineExtras& extras,
                       SnapshotFile* file);

/// Overwrite a freshly replayed machine (same config, same allocation
/// sequence, quiescent engine) with `file`'s state.  Verifies geometry,
/// seed and allocation layout before touching anything; on any mismatch
/// returns a diagnostic and the machine may be partially restored only
/// after the first section began applying (callers treat failure as fatal).
Status restore_machine(machine::Machine& m, const MachineExtras& extras,
                       const SnapshotFile& file);

}  // namespace qcdoc::snapshot
