// Byte-level serialization primitives for the snapshot subsystem.
//
// Every quantity crossing a process boundary goes through these helpers:
// explicit little-endian integer encodings, doubles as their IEEE-754 bit
// patterns (bit-exact restore is the whole point), length-prefixed strings
// and vectors, and a CRC-32 over the encoded bytes.  Readers never trust
// lengths in the payload -- every get_* checks the remaining byte budget and
// returns a Status with a reason instead of walking off the end, which is
// what turns a torn write into a clean "section truncated" diagnostic
// rather than undefined behaviour.
//
// ByteSink and ByteSource also share one field vocabulary -- field(),
// count() and kReading -- so a section's layout is written once, as a
// function template over the coder: capture runs it over a sink, restore
// over a source.  A source latches its first failure and reads nothing
// after it, so a layout checks ok() only before it acts on what it read.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace qcdoc::snapshot {

/// Outcome of a decode/restore step.  [[nodiscard]] on the type: a dropped
/// failure (a half-restored machine) must not compile silently.
struct [[nodiscard]] Status {
  bool ok = true;
  std::string reason;

  static Status good() { return Status{}; }
  static Status fail(std::string why) { return Status{false, std::move(why)}; }
  explicit operator bool() const { return ok; }
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte span.
u32 crc32(std::span<const u8> bytes, u32 seed = 0);

/// Append-only encoder.  All integers little-endian; doubles by bit pattern.
class ByteSink {
 public:
  static constexpr bool kReading = false;

  void put_u8(u8 v) { bytes_.push_back(v); }
  void put_u32(u32 v) { put_le(v, 4); }
  void put_u64(u64 v) { put_le(v, 8); }
  void put_double(double v) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Length-prefixed (u32) byte string.
  void put_string(const std::string& s);
  /// Length-prefixed (u64) vector of words.
  void put_u64_span(std::span<const u64> v);
  void put_raw(std::span<const u8> v) {
    bytes_.insert(bytes_.end(), v.begin(), v.end());
  }

  // The field vocabulary; ByteSource reads each back.  `int`s travel as
  // u32, byte strings and blobs with a u32 length, word vectors with a u64
  // length.  The range of a ranged field is the reader's to check.
  void field(u8 v) { put_u8(v); }
  void field(u32 v) { put_u32(v); }
  void field(u64 v) { put_u64(v); }
  void field(int v) { put_u32(static_cast<u32>(v)); }
  void field(double v) { put_double(v); }
  void field(bool v) { put_bool(v); }
  void field(const std::string& v) { put_string(v); }
  void field(std::span<const u8> v);
  void field(std::span<const u64> v) { put_u64_span(v); }
  /// A field the reader requires not to lie past `last`: an enumerator,
  /// which travels as one byte, or an int/u32.
  template <class T>
  void field(T v, T /*last*/, const char* /*name*/) {
    if constexpr (std::is_enum_v<T>) {
      put_u8(static_cast<u8>(v));
    } else {
      put_u32(static_cast<u32>(v));
    }
  }
  /// The u64 element count that precedes a vector's elements.
  template <class T>
  void count(const std::vector<T>& v) {
    put_u64(v.size());
  }
  bool ok() const { return true; }
  Status status() const { return Status::good(); }
  Status finish() const { return Status::good(); }

  const std::vector<u8>& bytes() const { return bytes_; }
  std::vector<u8> take() { return std::move(bytes_); }

 private:
  void put_le(u64 v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<u8>(v & 0xffu));
      v >>= 8;
    }
  }
  std::vector<u8> bytes_;
};

/// Bounds-checked decoder over a borrowed byte span.  Every getter reports
/// truncation through Status instead of reading past the end; `context`
/// names the section being decoded so diagnostics say *what* was torn.
class ByteSource {
 public:
  static constexpr bool kReading = true;

  ByteSource(std::span<const u8> bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  Status get_u8(u8* out);
  Status get_u32(u32* out);
  Status get_u64(u64* out);
  Status get_double(double* out);
  Status get_bool(bool* out);
  Status get_string(std::string* out);
  Status get_u64_vec(std::vector<u64>* out);

  // The field vocabulary of ByteSink, read back.  A failure latches into
  // status(); every later field then reads nothing.
  void field(u8& v) { if (ok()) status_ = get_u8(&v); }
  void field(u32& v) { if (ok()) status_ = get_u32(&v); }
  void field(u64& v) { if (ok()) status_ = get_u64(&v); }
  void field(int& v);
  void field(double& v) { if (ok()) status_ = get_double(&v); }
  void field(bool& v) { if (ok()) status_ = get_bool(&v); }
  void field(std::string& v) { if (ok()) status_ = get_string(&v); }
  void field(std::vector<u8>& v);
  void field(std::vector<u64>& v) { if (ok()) status_ = get_u64_vec(&v); }
  /// Points `v` at the decoded words, which stay valid until the next
  /// span field.
  void field(std::span<const u64>& v);
  /// A field that must not lie past `last`; a value that does fails the
  /// source naming `name`.
  template <class T>
  void field(T& v, T last, const char* name) {
    std::conditional_t<std::is_enum_v<T>, u8, u32> raw = 0;
    field(raw);
    if (in_range(raw, static_cast<decltype(raw)>(last), name)) {
      v = static_cast<T>(raw);
    }
  }
  /// Reads a vector's element count and resizes `v` to it.  Every element
  /// takes at least one byte, so a count past the remaining payload fails
  /// as a truncation before anything is allocated.
  template <class T>
  void count(std::vector<T>& v) {
    u64 n = 0;
    field(n);
    if (ok()) status_ = need(n, "a count's elements");
    v.resize(ok() ? n : 0);
  }
  bool ok() const { return status_.ok; }
  const Status& status() const { return status_; }
  /// The latched status, or a failure when bytes remain unread.
  Status finish() const { return ok() ? expect_exhausted() : status_; }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// A fully consumed source; decoders call this last so trailing garbage
  /// (a mis-versioned writer) is caught, not ignored.
  Status expect_exhausted() const;

 private:
  Status need(std::size_t n, const char* what);
  u64 get_le(int n);
  /// False, latching a failure that names the field, unless a successfully
  /// read `value` lies in [0, last].
  bool in_range(u64 value, u64 last, const char* name);

  std::span<const u8> bytes_;
  std::string context_;
  std::size_t pos_ = 0;
  Status status_;
  std::vector<u64> words_;  ///< backing store of the last span field
};

}  // namespace qcdoc::snapshot
