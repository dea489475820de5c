#include "memsys/ecc.h"

#include <algorithm>
#include <cassert>

#include "memsys/memsys.h"

namespace qcdoc::memsys {

void EccModel::attach(NodeMemory* mem, EccConfig cfg) {
  assert(cfg.edram_row_words > 0 && cfg.ddr_burst_words > 0);
  mem_ = mem;
  cfg_ = cfg;
}

u64 EccModel::codeword_key(u64 word_addr) const {
  const MemConfig& m = mem_->config();
  if (word_addr < m.edram_words) return word_addr / cfg_.edram_row_words;
  const u64 edram_rows =
      (m.edram_words + cfg_.edram_row_words - 1) / cfg_.edram_row_words;
  return edram_rows + (word_addr - m.edram_words) / cfg_.ddr_burst_words;
}

u64 EccModel::total_rows() const {
  const MemConfig& m = mem_->config();
  return (m.edram_words + cfg_.edram_row_words - 1) / cfg_.edram_row_words +
         (m.ddr_words + cfg_.ddr_burst_words - 1) / cfg_.ddr_burst_words;
}

void EccModel::inject_upset(u64 word_addr, int bit) {
  assert(mem_ != nullptr && "EccModel used before attach()");
  ++counters_.upsets;
  Codeword& cw = codewords_[codeword_key(word_addr)];
  cw.flips.push_back(Flip{word_addr, bit & 63, 0, false});
  if (cw.flips.size() < 2) {
    // A single bad bit is inside SECDED's correction capability: every read
    // goes through the ECC datapath and comes back clean, so storage stays
    // untouched.  The scrubber will write back and count the correction.
    return;
  }
  // Beyond SECDED: the corruption is real.  Land every flip of this
  // codeword in storage, then snapshot the stored values (two flips on one
  // word must agree on the final value) so a later program write is
  // recognizable as having cleared the error.
  for (Flip& f : cw.flips) {
    if (!f.applied) {
      mem_->write_word(f.word_addr,
                       mem_->read_word(f.word_addr) ^ (1ull << f.bit));
      f.applied = true;
    }
  }
  for (Flip& f : cw.flips) f.corrupted_value = mem_->read_word(f.word_addr);
  if (!cw.poisoned) {
    cw.poisoned = true;
    ++counters_.uncorrectable;
    latched_.push_back(MemCheckEvent{
        word_addr, mem_->region_of(word_addr)});
  }
}

bool EccModel::settle(u64 key, Codeword* cw) {
  (void)key;
  auto& flips = cw->flips;
  for (auto it = flips.begin(); it != flips.end();) {
    if (it->applied && mem_->read_word(it->word_addr) != it->corrupted_value) {
      // The program rewrote this word since the flip landed; the write path
      // regenerates the check bits, so the recorded error no longer exists.
      ++counters_.cleared_by_rewrite;
      it = flips.erase(it);
    } else {
      ++it;
    }
  }
  if (flips.empty()) return true;
  if (flips.size() == 1) {
    Flip& f = flips.front();
    if (f.applied) {
      // Down to one bad bit: back inside SECDED; scrub write-back repairs
      // the stored word.
      mem_->write_word(f.word_addr,
                       mem_->read_word(f.word_addr) ^ (1ull << f.bit));
    }
    ++counters_.corrected;
    return true;
  }
  return false;  // still uncorrectable; the machine check already latched
}

u64 EccModel::scrub_step(u64 rows, Cycle cycles_per_row) {
  const u64 total = total_rows();
  if (total == 0 || rows == 0) return 0;
  rows = std::min(rows, total);
  counters_.scrub_rows += rows;
  counters_.scrub_cycles += rows * cycles_per_row;
  u64 remaining = rows;
  while (remaining > 0) {
    const u64 span = std::min(remaining, total - scrub_cursor_);
    const u64 hi = scrub_cursor_ + span;
    auto it = codewords_.lower_bound(scrub_cursor_);
    while (it != codewords_.end() && it->first < hi) {
      if (settle(it->first, &it->second)) {
        it = codewords_.erase(it);
      } else {
        ++it;
      }
    }
    scrub_cursor_ = (scrub_cursor_ + span) % total;
    remaining -= span;
  }
  return rows;
}

std::vector<MemCheckEvent> EccModel::consume_machine_checks() {
  std::vector<MemCheckEvent> out;
  out.swap(latched_);
  return out;
}

u64 EccModel::poisoned_codewords() const {
  u64 n = 0;
  for (const auto& [key, cw] : codewords_) {
    if (cw.poisoned && cw.flips.size() >= 2) ++n;
  }
  return n;
}

EccState EccModel::capture_state() const {
  EccState st;
  st.counters = counters_;
  for (const auto& [key, cw] : codewords_) {
    EccState::CodewordState c;
    c.key = key;
    c.poisoned = cw.poisoned;
    for (const Flip& f : cw.flips) {
      c.flips.push_back({f.word_addr, f.bit, f.corrupted_value, f.applied});
    }
    st.codewords.push_back(std::move(c));
  }
  st.latched = latched_;
  st.scrub_cursor = scrub_cursor_;
  return st;
}

void EccModel::restore_state(const EccState& state) {
  counters_ = state.counters;
  codewords_.clear();
  for (const EccState::CodewordState& c : state.codewords) {
    Codeword cw;
    cw.poisoned = c.poisoned;
    for (const EccState::FlipState& f : c.flips) {
      cw.flips.push_back(Flip{f.word_addr, f.bit, f.corrupted_value, f.applied});
    }
    codewords_.emplace(c.key, std::move(cw));
  }
  latched_ = state.latched;
  scrub_cursor_ = state.scrub_cursor;
}

}  // namespace qcdoc::memsys
