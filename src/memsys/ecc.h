// SECDED ECC model for the node memory hierarchy.
//
// The QCDOC ASIC protects both the 4 MB on-chip EDRAM and the external DDR
// with error-correcting codes: the paper's weeks-long CG evolutions on ~12k
// nodes only reproduce bit-identically because single-bit soft errors are
// corrected in hardware and double-bit errors are *detected* and escalated
// instead of silently corrupting physics.  This module models that SECDED
// (single-error-correct, double-error-detect) layer at codeword granularity:
//
//   - EDRAM: one codeword per 1024-bit internal row (16 x 64-bit words).
//   - DDR:   one codeword per 256-bit burst (4 x 64-bit words).
//
// The functional contract mirrors the hardware as seen by software:
//
//   - A single flipped bit in a codeword is CORRECTABLE.  Every consumer
//     reads through the ECC datapath, so correctable upsets never reach the
//     application -- the model leaves storage untouched and only records the
//     pending flip.  The background scrubber (scrub.h) walks rows on a cycle
//     budget, writes corrected data back, and counts the event.
//   - Two or more flipped bits in one codeword are UNCORRECTABLE.  The model
//     applies the flips to real storage (compute now sees corrupted data,
//     exactly the silent-corruption hazard), latches a machine-check event,
//     and counts it.  Recovery is software's job: the health monitor reads
//     the latch, and `cg_solve_audited` treats it as a checkpoint-rollback
//     trigger.  A program write to a poisoned word regenerates the check
//     bits, which the scrubber observes as the error having been cleared.
//
// Everything here is deterministic: upsets arrive only through the
// engine-scheduled FaultInjector, and all bookkeeping iterates std::map in
// address order.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"

namespace qcdoc::memsys {

/// Which level of the hierarchy a word address resides in.
enum class Region { kEdram, kDdr };

/// Width of an EDRAM internal row, the unit the controller reads and
/// writes and the SECDED codeword (paper Section 2.1).
inline constexpr int kEdramRowBits = 1024;

class NodeMemory;

/// SECDED codeword geometry, in 64-bit words.
struct EccConfig {
  u64 edram_row_words = kEdramRowBits / 64;  ///< one EDRAM internal row
  u64 ddr_burst_words = 4;                   ///< 256-bit DDR burst
};

/// Lifetime counters of one node's ECC machinery.
struct EccCounters {
  u64 upsets = 0;              ///< injected bit flips
  u64 corrected = 0;           ///< single-bit errors corrected
  u64 uncorrectable = 0;       ///< codewords that exceeded SECDED
  u64 cleared_by_rewrite = 0;  ///< flips cleared by a program write
  u64 scrub_rows = 0;          ///< codeword rows the scrubber walked
  u64 scrub_cycles = 0;        ///< cycle budget charged to scrubbing

  EccCounters& operator+=(const EccCounters& o) {
    upsets += o.upsets;
    corrected += o.corrected;
    uncorrectable += o.uncorrectable;
    cleared_by_rewrite += o.cleared_by_rewrite;
    scrub_rows += o.scrub_rows;
    scrub_cycles += o.scrub_cycles;
    return *this;
  }
};

/// One latched uncorrectable error: the model of the memory controller
/// raising a machine check at its CPU.
struct MemCheckEvent {
  u64 word_addr = 0;
  Region region = Region::kEdram;
};

/// Full SECDED bookkeeping of one node as captured into a snapshot: the
/// lifetime counters, every outstanding flip, latched machine checks and
/// the scrub cursor.  Plain data -- the snapshot layer owns serialization.
struct EccState {
  struct FlipState {
    u64 word_addr = 0;
    int bit = 0;
    u64 corrupted_value = 0;
    bool applied = false;
  };
  struct CodewordState {
    u64 key = 0;
    std::vector<FlipState> flips;
    bool poisoned = false;
  };

  EccCounters counters;
  std::vector<CodewordState> codewords;
  std::vector<MemCheckEvent> latched;
  u64 scrub_cursor = 0;
};

/// Per-node SECDED state.  Owned by NodeMemory; exercised by the
/// FaultInjector (upsets), MemScrubber (background correction) and the
/// host health monitor (machine-check consumption).
class EccModel {
 public:
  /// Called once by the owning NodeMemory's constructor.
  void attach(NodeMemory* mem, EccConfig cfg);

  /// Inject one bit flip at `word_addr` (`bit` in [0, 64)).  The first flip
  /// in a codeword is correctable and leaves storage untouched; a second
  /// flip makes the codeword uncorrectable: all its flips land in storage
  /// and a machine check is latched.
  void inject_upset(u64 word_addr, int bit);

  /// Walk `rows` codeword rows from the internal cursor (wrapping over
  /// EDRAM then DDR), correcting single-bit errors and dropping flips whose
  /// word has been rewritten since.  Charges `cycles_per_row` per row to the
  /// scrub-cycle counter.  Returns rows walked.
  u64 scrub_step(u64 rows, Cycle cycles_per_row);

  /// Machine checks latched since the last call (consuming them models
  /// software acknowledging the interrupt).
  std::vector<MemCheckEvent> consume_machine_checks();
  [[nodiscard]] bool machine_check_pending() const {
    return !latched_.empty();
  }

  /// Codewords currently carrying at least one recorded flip.
  u64 dirty_codewords() const { return codewords_.size(); }
  /// Codewords currently beyond SECDED (corrupted data in storage).
  u64 poisoned_codewords() const;

  const EccCounters& counters() const { return counters_; }
  const EccConfig& config() const { return cfg_; }

  /// Snapshot hooks: the complete bookkeeping (counters, outstanding flips,
  /// latched machine checks, scrub cursor).  restore_state() replaces all
  /// of it; storage contents are restored separately by NodeMemory.
  EccState capture_state() const;
  void restore_state(const EccState& state);

 private:
  struct Flip {
    u64 word_addr = 0;
    int bit = 0;
    u64 corrupted_value = 0;  ///< stored value right after the flip landed
    bool applied = false;     ///< true once the flip is in real storage
  };
  struct Codeword {
    std::vector<Flip> flips;
    bool poisoned = false;
  };

  u64 codeword_key(u64 word_addr) const;
  u64 total_rows() const;
  /// Re-check one codeword after a scrub visit: drop rewritten flips,
  /// correct a lone survivor.  Returns true when the entry is now clean.
  bool settle(u64 key, Codeword* cw);

  NodeMemory* mem_ = nullptr;
  EccConfig cfg_;
  EccCounters counters_;
  // codeword key -> outstanding flips (address-ordered for determinism)
  std::map<u64, Codeword> codewords_;
  std::vector<MemCheckEvent> latched_;
  u64 scrub_cursor_ = 0;  ///< row index in [0, total_rows())
};

}  // namespace qcdoc::memsys
