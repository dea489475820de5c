#include "memsys/memsys.h"

#include <algorithm>

#include "common/log.h"
#include "sim/affinity_guard.h"

namespace qcdoc::memsys {

NodeMemory::NodeMemory(MemConfig cfg)
    : cfg_(cfg), ddr_next_(cfg.edram_words) {
  ecc_.attach(this, cfg_.ecc);
}

Block NodeMemory::alloc(u64 words, const std::string& label) {
  if (edram_next_ + words <= cfg_.edram_words) {
    return alloc_in(Region::kEdram, words, label);
  }
  QCDOC_DEBUG << "allocation '" << label << "' (" << words * 8
              << " B) spills to DDR";
  return alloc_in(Region::kDdr, words, label);
}

Block NodeMemory::alloc_in(Region region, u64 words, const std::string& label) {
  (void)label;
  Block b;
  if (region == Region::kEdram) {
    assert(edram_next_ + words <= cfg_.edram_words && "EDRAM exhausted");
    b = Block{edram_next_, words, Region::kEdram};
    edram_next_ += words;
  } else {
    assert(ddr_next_ + words <= cfg_.edram_words + cfg_.ddr_words &&
           "DDR exhausted");
    b = Block{ddr_next_, words, Region::kDdr};
    ddr_next_ += words;
  }
  chunks_.emplace(b.word_addr, std::vector<u64>(words, 0));
  allocated_words_ += words;
  return b;
}

u64 NodeMemory::nth_allocated_word(u64 i) const {
  assert(i < allocated_words_ && "allocated-word index out of range");
  for (const auto& [start, storage] : chunks_) {
    if (i < storage.size()) return start + i;
    i -= storage.size();
  }
  assert(false && "unreachable: allocated_words_ out of sync");
  return 0;
}

std::vector<u64>* NodeMemory::chunk_of(u64 word_addr, u64* offset) {
  if (word_addr - cache_base_ < cache_words_) {
    *offset = word_addr - cache_base_;
    return cache_chunk_;
  }
  auto it = chunks_.upper_bound(word_addr);
  if (it == chunks_.begin()) return nullptr;
  --it;
  if (word_addr >= it->first + it->second.size()) return nullptr;
  *offset = word_addr - it->first;
  cache_base_ = it->first;
  cache_words_ = it->second.size();
  cache_chunk_ = &it->second;
  return &it->second;
}

const std::vector<u64>* NodeMemory::chunk_of(u64 word_addr, u64* offset) const {
  return const_cast<NodeMemory*>(this)->chunk_of(word_addr, offset);
}

u64 NodeMemory::read_word(u64 word_addr) const {
  u64 offset = 0;
  const auto* chunk = chunk_of(word_addr, &offset);
  assert(chunk && "read from unallocated memory");
  return (*chunk)[offset];
}

void NodeMemory::write_word(u64 word_addr, u64 value) {
  QCDOC_AFFSAN_CHECK(this);
  u64 offset = 0;
  auto* chunk = chunk_of(word_addr, &offset);
  assert(chunk && "write to unallocated memory");
  (*chunk)[offset] = value;
}

std::span<double> NodeMemory::doubles(const Block& b) {
  u64 offset = 0;
  auto* chunk = chunk_of(b.word_addr, &offset);
  assert(chunk && offset + b.words <= chunk->size());
  return {reinterpret_cast<double*>(chunk->data() + offset), b.words};
}

std::span<const double> NodeMemory::doubles(const Block& b) const {
  u64 offset = 0;
  const auto* chunk = chunk_of(b.word_addr, &offset);
  assert(chunk && offset + b.words <= chunk->size());
  return {reinterpret_cast<const double*>(chunk->data() + offset), b.words};
}

std::span<u64> NodeMemory::words(const Block& b) {
  u64 offset = 0;
  auto* chunk = chunk_of(b.word_addr, &offset);
  assert(chunk && offset + b.words <= chunk->size());
  return {chunk->data() + offset, b.words};
}

std::span<u64> NodeMemory::words_in_one_allocation(u64 word_addr,
                                                    u64 count) {
  u64 offset = 0;
  auto* chunk = chunk_of(word_addr, &offset);
  if (chunk == nullptr || count > chunk->size() - offset) return {};
  return {chunk->data() + offset, count};
}

std::vector<NodeMemory::ChunkView> NodeMemory::chunks() const {
  std::vector<ChunkView> out;
  out.reserve(chunks_.size());
  for (const auto& [start, storage] : chunks_) {
    out.push_back({start, std::span<const u64>(storage)});
  }
  return out;
}

bool NodeMemory::restore_chunk(u64 base, std::span<const u64> words) {
  auto it = chunks_.find(base);
  if (it == chunks_.end() || it->second.size() != words.size()) return false;
  std::copy(words.begin(), words.end(), it->second.begin());
  return true;
}

double MemTiming::stream_cycles(Region region, double bytes,
                                int streams) const {
  if (region == Region::kEdram) {
    double cycles = bytes / kEdramBytesPerCycle;
    if (streams > kEdramPrefetchStreams) {
      // Streams beyond the prefetch capacity interleave row activations:
      // the controller pays one page-miss latency per row fetched for the
      // excess fraction of the traffic.
      const double excess_fraction =
          static_cast<double>(streams - kEdramPrefetchStreams) /
          static_cast<double>(std::max(streams, 1));
      const double rows = bytes * excess_fraction / (kEdramRowBits / 8.0);
      cycles += rows * kEdramPageMissCycles;
    }
    return cycles;
  }
  double cycles = bytes / ddr_bytes_per_cycle;
  // DDR has no prefetch engine in front of it: concurrent streams thrash the
  // open page.  One stream streams at full bandwidth; each additional stream
  // pays a page miss per page of its share of the traffic.
  if (streams > 1) {
    const double thrash_fraction =
        static_cast<double>(streams - 1) / static_cast<double>(streams);
    const double pages = bytes * thrash_fraction / kDdrPageBytes;
    cycles += pages * kDdrPageMissCycles * streams;
  }
  return cycles;
}

}  // namespace qcdoc::memsys
