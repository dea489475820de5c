#include "snapshot/bytes.h"

#include <array>

namespace qcdoc::snapshot {

namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

u32 crc32(std::span<const u8> bytes, u32 seed) {
  static const std::array<u32, 256> kTable = make_crc_table();
  u32 c = seed ^ 0xffffffffu;
  for (const u8 b : bytes) {
    c = kTable[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void ByteSink::put_string(const std::string& s) {
  put_u32(static_cast<u32>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteSink::put_u64_span(std::span<const u64> v) {
  put_u64(v.size());
  for (const u64 w : v) put_u64(w);
}

void ByteSink::field(std::span<const u8> v) {
  put_u32(static_cast<u32>(v.size()));
  put_raw(v);
}

Status ByteSource::need(std::size_t n, const char* what) {
  if (remaining() < n) {
    return Status::fail(context_ + ": truncated at byte " +
                        std::to_string(pos_) + " (need " + std::to_string(n) +
                        " for " + what + ", have " +
                        std::to_string(remaining()) + ")");
  }
  return Status::good();
}

u64 ByteSource::get_le(int n) {
  u64 v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<u64>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return v;
}

Status ByteSource::get_u8(u8* out) {
  if (Status s = need(1, "u8"); !s) return s;
  *out = static_cast<u8>(get_le(1));
  return Status::good();
}

Status ByteSource::get_u32(u32* out) {
  if (Status s = need(4, "u32"); !s) return s;
  *out = static_cast<u32>(get_le(4));
  return Status::good();
}

Status ByteSource::get_u64(u64* out) {
  if (Status s = need(8, "u64"); !s) return s;
  *out = get_le(8);
  return Status::good();
}

Status ByteSource::get_double(double* out) {
  u64 bits = 0;
  if (Status s = get_u64(&bits); !s) return s;
  std::memcpy(out, &bits, sizeof(*out));
  return Status::good();
}

Status ByteSource::get_bool(bool* out) {
  u8 v = 0;
  if (Status s = get_u8(&v); !s) return s;
  *out = v != 0;
  return Status::good();
}

Status ByteSource::get_string(std::string* out) {
  u32 len = 0;
  if (Status s = get_u32(&len); !s) return s;
  if (Status s = need(len, "string payload"); !s) return s;
  out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return Status::good();
}

Status ByteSource::get_u64_vec(std::vector<u64>* out) {
  u64 n = 0;
  if (Status s = get_u64(&n); !s) return s;
  // Length-first guard: a corrupt length would overflow n * 8.
  if (n > remaining() / 8) {
    return Status::fail(context_ + ": u64 vector length " + std::to_string(n) +
                        " exceeds remaining payload");
  }
  out->resize(n);
  for (u64 i = 0; i < n; ++i) (*out)[i] = get_le(8);
  return Status::good();
}

void ByteSource::field(int& v) {
  u32 raw = 0;
  field(raw);
  if (ok()) v = static_cast<int>(raw);
}

void ByteSource::field(std::vector<u8>& v) {
  std::string raw;
  field(raw);
  if (ok()) v.assign(raw.begin(), raw.end());
}

void ByteSource::field(std::span<const u64>& v) {
  field(words_);
  v = ok() ? std::span<const u64>(words_) : std::span<const u64>();
}

bool ByteSource::in_range(u64 value, u64 last, const char* name) {
  if (!ok()) return false;
  if (value > last) {
    status_ = Status::fail(context_ + ": " + name + " " +
                           std::to_string(value) + " outside [0, " +
                           std::to_string(last) + "]");
    return false;
  }
  return true;
}

Status ByteSource::expect_exhausted() const {
  if (remaining() != 0) {
    return Status::fail(context_ + ": " + std::to_string(remaining()) +
                        " trailing bytes after decode (version skew?)");
  }
  return Status::good();
}

}  // namespace qcdoc::snapshot
