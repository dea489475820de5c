// Per-node memory: functional storage plus the timing models of the paper's
// memory hierarchy (Section 2.1).
//
// Each QCDOC node owns 4 MB of on-chip EDRAM behind a prefetching controller
// (two concurrent streams, 1024-bit internal rows, a 128-bit connection to
// the data cache at full processor speed -> 8 GB/s at 500 MHz) and external
// DDR SDRAM behind the PLB (2.6 GB/s).  The model keeps one flat 64-bit-word
// address space per node: word addresses below the EDRAM size live on-chip,
// the rest in DDR.  Fields allocated by applications really live here; the
// SCU DMA engines move these words, so data integrity through the simulated
// network is testable.
//
// Storage is per-allocation (host memory proportional to what a node
// actually uses), which keeps thousand-node machines simulable on a laptop.
#pragma once

#include <cassert>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "memsys/ecc.h"

namespace qcdoc::memsys {

/// A contiguous allocation in node memory, in 64-bit words.
struct Block {
  u64 word_addr = 0;
  u64 words = 0;
  Region region = Region::kEdram;

  u64 bytes() const { return words * 8; }
};

struct MemConfig {
  u64 edram_words = 4ull * 1024 * 1024 / 8;
  u64 ddr_words = 128ull * 1024 * 1024 / 8;
  EccConfig ecc;  ///< SECDED codeword geometry (ecc.h)
};

/// Functional per-node memory with a bump allocator.
///
/// Allocation policy mirrors how the collaboration laid out fields: hot data
/// goes to EDRAM until it is full, then spills to DDR (paper Section 4: "for
/// still larger volumes, when we must put part of the problem in external
/// DDR DRAM, the performance figures fall").
// qcdoc-lint: owner(node) each node's memory belongs to that node; writes
// from other affinities must declare a touched set (checked by AFFSAN).
class NodeMemory {
 public:
  explicit NodeMemory(MemConfig cfg = MemConfig{});
  // The ECC model holds a back-pointer to this object.
  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;

  /// Allocate `words` 64-bit words, preferring EDRAM.
  Block alloc(u64 words, const std::string& label = "");
  /// Allocate explicitly in one region (asserts on exhaustion).
  Block alloc_in(Region region, u64 words, const std::string& label = "");

  u64 edram_words_used() const { return edram_next_; }
  u64 ddr_words_used() const { return ddr_next_ - cfg_.edram_words; }
  const MemConfig& config() const { return cfg_; }

  Region region_of(u64 word_addr) const {
    return word_addr < cfg_.edram_words ? Region::kEdram : Region::kDdr;
  }

  u64 read_word(u64 word_addr) const;
  void write_word(u64 word_addr, u64 value);

  /// The SECDED machinery protecting this node's EDRAM rows and DDR bursts.
  EccModel& ecc() { return ecc_; }
  const EccModel& ecc() const { return ecc_; }

  /// Total words across every allocation (the population a random upset can
  /// land in; flips into unallocated memory are invisible to software).
  u64 allocated_words() const { return allocated_words_; }
  /// Word address of the i-th allocated word, counting allocations in
  /// address order.  Requires i < allocated_words().
  u64 nth_allocated_word(u64 i) const;

  /// Typed views for application code (compute runs natively on this data).
  /// Spans remain valid for the lifetime of the NodeMemory: each allocation
  /// owns its storage.
  std::span<double> doubles(const Block& b);
  std::span<const double> doubles(const Block& b) const;
  std::span<u64> words(const Block& b);
  /// The `count` words from `word_addr` on, when they all lie in one
  /// allocation; empty otherwise.  Writes through the span bypass
  /// write_word's AFFSAN check, so a caller on the event path makes it.
  std::span<u64> words_in_one_allocation(u64 word_addr, u64 count);

  /// One allocation as seen by the snapshot subsystem: base word address
  /// plus a read-only view of its storage (valid for this object's life).
  struct ChunkView {
    u64 base = 0;
    std::span<const u64> words;
  };
  /// Every allocation in address order; with nth_allocated_word this fully
  /// describes the node's software-visible memory.
  std::vector<ChunkView> chunks() const;
  /// Overwrite the allocation starting at `base` with `words`.  Returns
  /// false when no allocation with exactly this base and size exists --
  /// i.e. the restoring process did not replay the same allocation
  /// sequence.  Deliberately bypasses ECC bookkeeping: EccModel state is
  /// restored separately by the snapshot layer.
  bool restore_chunk(u64 base, std::span<const u64> words);

 private:
  std::vector<u64>* chunk_of(u64 word_addr, u64* offset);
  const std::vector<u64>* chunk_of(u64 word_addr, u64* offset) const;

  MemConfig cfg_;
  // start word address -> storage of the allocation beginning there
  std::map<u64, std::vector<u64>> chunks_;
  // Last chunk hit by chunk_of(): DMA and scrub traffic walks allocations
  // word by word, so nearly every lookup lands in the previous chunk.  The
  // cache needs no invalidation -- chunks_ is append-only (alloc_in only
  // emplaces) and each allocation's vector never resizes.
  mutable u64 cache_base_ = ~0ull;
  mutable u64 cache_words_ = 0;
  mutable std::vector<u64>* cache_chunk_ = nullptr;
  u64 edram_next_ = 0;
  u64 ddr_next_;
  u64 allocated_words_ = 0;
  EccModel ecc_;
};

// Memory-system figures of paper Section 2.1, in CPU cycles at the node
// clock unless named otherwise.  EDRAM runs at the node clock: 128-bit
// words to the data cache every cycle, and two prefetch engines hide the
// page misses of up to two contiguous streams.  DDR SDRAM is a
// fixed-frequency part behind the PLB.
inline constexpr double kEdramBytesPerCycle = 16.0;
inline constexpr int kEdramPrefetchStreams = 2;
inline constexpr double kEdramPageMissCycles = 11.0;
inline constexpr double kDdrBytesPerSecond = 2.6e9;
inline constexpr double kDdrPageBytes = 2048.0;
inline constexpr double kDdrPageMissCycles = 25.0;

/// Cycle costs of bulk memory traffic, used by the CPU timing model.
struct MemTiming {
  /// DDR bytes per CPU cycle at a node clock of `clock_hz` (5.2 at
  /// 500 MHz): a faster core waits more cycles for the same bytes.
  explicit MemTiming(double clock_hz)
      : ddr_bytes_per_cycle(kDdrBytesPerSecond / clock_hz) {}

  double ddr_bytes_per_cycle;

  /// Cycles to stream `bytes` from a region with `streams` concurrent
  /// access streams (a(x) and b(x) in the paper's example are 2 streams).
  double stream_cycles(Region region, double bytes, int streams) const;
};

}  // namespace qcdoc::memsys
