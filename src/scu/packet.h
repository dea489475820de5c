// SCU packet format (paper Section 2.2).
//
// Every transfer on a serial link is framed as an 8-bit header plus payload:
//   - normal data and supervisor packets carry a 64-bit word (72-bit frame);
//   - partition-interrupt packets carry 8 bits (16-bit frame);
//   - link-level ACK/NACK control packets carry an 8-bit sequence (16 bits).
//
// Header layout, transmitted MSB first:
//   [ type:4 | parity_hi:1 | parity_lo:1 | seq:2 ]
// Type codes are chosen with pairwise Hamming distance >= 2 (all weight-2
// 4-bit words), so "a single bit error will not cause a packet to be
// misinterpreted": any single flip lands on an invalid code or trips a
// parity bit.  The two parity bits cover the two halves of the payload.
//
// Frames are encoded to real wire bytes; the link model flips real bits, and
// decode recomputes the checks -- so detected errors trigger the automatic
// resend path and *undetected* multi-bit errors are caught only by the
// end-to-end link checksums, exactly as on the hardware.
#pragma once

#include <array>
#include <optional>

#include "common/rng.h"
#include "common/types.h"

namespace qcdoc::scu {

enum class PacketType : u8 {
  kData = 0b0011,
  kSupervisor = 0b0101,
  kPartitionIrq = 0b0110,
  kAck = 0b1001,
  kNack = 0b1010,
  kSupAck = 0b1100,
};

/// Header and word-payload widths: a data or supervisor frame is 72 bits,
/// so 8/9 of a busy link's bits are payload.
inline constexpr int kHeaderBits = 8;
inline constexpr int kWordBits = 64;
inline constexpr int kWordFrameBits = kHeaderBits + kWordBits;

/// Is this one of the long (64-bit payload) packet types?
[[nodiscard]] bool has_word_payload(PacketType t);

/// Number of frame bits for a packet of this type (header included).
int frame_bits(PacketType t);

/// The shortest possible frame (a 16-bit control packet).  Together with the
/// HSSL wire delay this bounds how soon any transmission can reach the
/// neighbouring node -- the lookahead of the parallel simulation engine.
int min_frame_bits();

/// The bits actually serialized onto the link.
struct WireFrame {
  std::array<u8, 9> bytes{};  // header + up to 8 payload bytes
  int bits = 0;

  /// Flip `n` distinct random bit positions (error injection).
  void corrupt(int n, Rng& rng);
};

/// Logical content of a frame.
struct Packet {
  PacketType type = PacketType::kData;
  u64 payload = 0;  // 64-bit word, or 8-bit value in the low byte
  u8 seq = 0;       // 2-bit link-level sequence number
};

WireFrame encode(const Packet& p);

/// Decode a wire frame; nullopt when the header or parity checks fail
/// (the receiver then requests an automatic resend).
std::optional<Packet> decode(const WireFrame& f);

}  // namespace qcdoc::scu
