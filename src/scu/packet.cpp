#include "scu/packet.h"

#include <bit>
#include <cassert>

namespace qcdoc::scu {
namespace {

constexpr u8 kTypeCodes[] = {
    static_cast<u8>(PacketType::kData),         static_cast<u8>(PacketType::kSupervisor),
    static_cast<u8>(PacketType::kPartitionIrq), static_cast<u8>(PacketType::kAck),
    static_cast<u8>(PacketType::kNack),         static_cast<u8>(PacketType::kSupAck),
};

bool valid_type_code(u8 code) {
  for (u8 t : kTypeCodes)
    if (t == code) return true;
  return false;
}

u8 parity64(u64 v) { return static_cast<u8>(std::popcount(v) & 1); }

}  // namespace

bool has_word_payload(PacketType t) {
  return t == PacketType::kData || t == PacketType::kSupervisor;
}

int frame_bits(PacketType t) {
  return has_word_payload(t) ? kWordFrameBits : kHeaderBits + 8;
}

int min_frame_bits() { return frame_bits(PacketType::kAck); }

void WireFrame::corrupt(int n, Rng& rng) {
  assert(n <= bits);
  // Choose n distinct positions by rejection; frames are tiny.  A data
  // frame is 72 bits, so the mask needs two words: shifting one u64 by
  // pos >= 64 is undefined and aliased positions 64..71 onto 0..7.
  u64 chosen[2] = {0, 0};
  int done = 0;
  while (done < n) {
    const int pos = static_cast<int>(rng.next_below(static_cast<u64>(bits)));
    const u64 bit = 1ull << (pos % 64);
    if (chosen[pos / 64] & bit) continue;
    chosen[pos / 64] |= bit;
    bytes[static_cast<std::size_t>(pos / 8)] ^= static_cast<u8>(1u << (pos % 8));
    ++done;
  }
}

WireFrame encode(const Packet& p) {
  WireFrame f;
  f.bits = frame_bits(p.type);

  u64 payload = p.payload;
  int payload_bytes;
  u8 parity_lo, parity_hi;
  if (has_word_payload(p.type)) {
    payload_bytes = 8;
    parity_lo = parity64(payload & 0xffffffffull);
    parity_hi = parity64(payload >> 32);
  } else {
    payload = payload & 0xff;
    payload_bytes = 1;
    parity_lo = parity64(payload & 0x0f);
    parity_hi = parity64(payload & 0xf0);
  }

  const u8 type_code = static_cast<u8>(p.type);
  f.bytes[0] = static_cast<u8>((type_code << 4) | (parity_hi << 3) |
                               (parity_lo << 2) | (p.seq & 0x3));
  for (int b = 0; b < payload_bytes; ++b) {
    f.bytes[static_cast<std::size_t>(1 + b)] =
        static_cast<u8>((payload >> (8 * b)) & 0xff);
  }
  return f;
}

std::optional<Packet> decode(const WireFrame& f) {
  const u8 header = f.bytes[0];
  const u8 type_code = header >> 4;
  if (!valid_type_code(type_code)) return std::nullopt;
  const auto type = static_cast<PacketType>(type_code);
  if (frame_bits(type) != f.bits) return std::nullopt;

  const u8 parity_hi = (header >> 3) & 1;
  const u8 parity_lo = (header >> 2) & 1;
  const u8 seq = header & 0x3;

  u64 payload = 0;
  if (has_word_payload(type)) {
    for (int b = 0; b < 8; ++b) {
      payload |= static_cast<u64>(f.bytes[static_cast<std::size_t>(1 + b)])
                 << (8 * b);
    }
    if (parity64(payload & 0xffffffffull) != parity_lo) return std::nullopt;
    if (parity64(payload >> 32) != parity_hi) return std::nullopt;
  } else {
    payload = f.bytes[1];
    if (parity64(payload & 0x0f) != parity_lo) return std::nullopt;
    if (parity64(payload & 0xf0) != parity_hi) return std::nullopt;
  }
  return Packet{type, payload, seq};
}

}  // namespace qcdoc::scu
