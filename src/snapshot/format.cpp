#include "snapshot/format.h"

#include <cstdio>

namespace qcdoc::snapshot {

namespace {

// On-disk layout constants.  The header is fixed-size so verify() can read
// the table without touching payloads.
//
//   header  : magic[8] u32 format_version  u32 section_count
//             u64 generation  u64 file_bytes  u32 reserved
//             u32 header_crc (over the 36 bytes before it)          = 40 B
//   table   : per section: tag[8] u32 version u32 flags
//             u64 offset u64 bytes u32 payload_crc                  = 36 B
//             then u32 table_crc
//   payloads: at their recorded offsets
//   footer  : magic[8] u64 file_bytes u32 full_file_crc (crc over
//             everything before the footer's crc field)             = 20 B
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kTableEntryBytes = 36;
constexpr std::size_t kFooterBytes = 20;

void put_magic(ByteSink& sink, const char (&magic)[8]) {
  sink.put_raw(std::span<const u8>(reinterpret_cast<const u8*>(magic), 8));
}

Status get_magic(ByteSource& src, const char (&magic)[8], const char* what) {
  for (int i = 0; i < 8; ++i) {
    u8 b = 0;
    if (Status s = src.get_u8(&b); !s) return s;
    if (b != static_cast<u8>(magic[i])) {
      return Status::fail(std::string(what) + " magic mismatch at byte " +
                          std::to_string(i));
    }
  }
  return Status::good();
}

struct TableEntry {
  std::string tag;
  u32 version = 0;
  u32 flags = 0;
  u64 offset = 0;
  u64 bytes = 0;
  u32 crc = 0;
};

/// Parse header + section table common to decode() and verify().
Status parse_prefix(std::span<const u8> bytes, u64* generation,
                    std::vector<TableEntry>* table) {
  if (bytes.size() < kHeaderBytes) {
    return Status::fail("file too short for snapshot header (" +
                        std::to_string(bytes.size()) + " bytes)");
  }
  ByteSource hdr(bytes.subspan(0, kHeaderBytes), "header");
  if (Status s = get_magic(hdr, kFileMagic, "file"); !s) {
    return Status::fail("not a snapshot: " + s.reason);
  }
  u32 format_version = 0, section_count = 0, reserved = 0, header_crc = 0;
  u64 file_bytes = 0;
  if (Status s = hdr.get_u32(&format_version); !s) return s;
  if (Status s = hdr.get_u32(&section_count); !s) return s;
  if (Status s = hdr.get_u64(generation); !s) return s;
  if (Status s = hdr.get_u64(&file_bytes); !s) return s;
  if (Status s = hdr.get_u32(&reserved); !s) return s;
  if (Status s = hdr.get_u32(&header_crc); !s) return s;
  const u32 want_hdr_crc = crc32(bytes.subspan(0, kHeaderBytes - 4));
  if (header_crc != want_hdr_crc) {
    return Status::fail("corrupt header (crc mismatch)");
  }
  if (format_version != kFormatVersion) {
    return Status::fail("format version skew: file has v" +
                        std::to_string(format_version) + ", reader expects v" +
                        std::to_string(kFormatVersion));
  }
  if (file_bytes != bytes.size()) {
    return Status::fail("torn write: header records " +
                        std::to_string(file_bytes) + " bytes, file has " +
                        std::to_string(bytes.size()));
  }

  const std::size_t table_bytes =
      static_cast<std::size_t>(section_count) * kTableEntryBytes + 4;
  if (bytes.size() < kHeaderBytes + table_bytes + kFooterBytes) {
    return Status::fail("torn write: file ends inside the section table");
  }
  ByteSource tbl(bytes.subspan(kHeaderBytes, table_bytes), "section table");
  table->clear();
  for (u32 i = 0; i < section_count; ++i) {
    TableEntry e;
    e.tag.resize(8);
    for (int c = 0; c < 8; ++c) {
      u8 b = 0;
      if (Status s = tbl.get_u8(&b); !s) return s;
      e.tag[static_cast<std::size_t>(c)] = static_cast<char>(b);
    }
    if (Status s = tbl.get_u32(&e.version); !s) return s;
    if (Status s = tbl.get_u32(&e.flags); !s) return s;
    if (Status s = tbl.get_u64(&e.offset); !s) return s;
    if (Status s = tbl.get_u64(&e.bytes); !s) return s;
    if (Status s = tbl.get_u32(&e.crc); !s) return s;
    table->push_back(std::move(e));
  }
  u32 table_crc = 0;
  if (Status s = tbl.get_u32(&table_crc); !s) return s;
  const u32 want_tbl_crc = crc32(bytes.subspan(kHeaderBytes, table_bytes - 4));
  if (table_crc != want_tbl_crc) {
    return Status::fail("corrupt section table (crc mismatch)");
  }

  // Footer: magic + recorded length + whole-file crc.
  ByteSource ftr(bytes.subspan(bytes.size() - kFooterBytes, kFooterBytes),
                 "footer");
  if (Status s = get_magic(ftr, kFooterMagic, "footer"); !s) {
    return Status::fail("torn write: " + s.reason);
  }
  u64 footer_bytes = 0;
  u32 file_crc = 0;
  if (Status s = ftr.get_u64(&footer_bytes); !s) return s;
  if (Status s = ftr.get_u32(&file_crc); !s) return s;
  if (footer_bytes != bytes.size()) {
    return Status::fail("torn write: footer records " +
                        std::to_string(footer_bytes) + " bytes, file has " +
                        std::to_string(bytes.size()));
  }
  const u32 want_file_crc = crc32(bytes.subspan(0, bytes.size() - 4));
  if (file_crc != want_file_crc) {
    return Status::fail("corrupt file (whole-file crc mismatch)");
  }

  // Validate each section's extent before anyone dereferences offsets.
  const std::size_t payload_base = kHeaderBytes + table_bytes;
  const std::size_t payload_end = bytes.size() - kFooterBytes;
  for (const TableEntry& e : *table) {
    if (e.offset < payload_base || e.offset > payload_end ||
        e.bytes > payload_end - e.offset) {
      return Status::fail("section " + e.tag +
                          " extent out of range (offset " +
                          std::to_string(e.offset) + ", bytes " +
                          std::to_string(e.bytes) + ")");
    }
  }
  return Status::good();
}

}  // namespace

std::string SnapshotFile::pad_tag(const std::string& tag) {
  std::string t = tag.substr(0, 8);
  t.resize(8, ' ');
  return t;
}

void SnapshotFile::add_section(const std::string& tag, ByteSink payload,
                               u32 version, u32 flags) {
  Section s;
  s.tag = pad_tag(tag);
  s.version = version;
  s.flags = flags;
  s.payload = payload.take();
  sections_.push_back(std::move(s));
}

const Section* SnapshotFile::find(const std::string& tag) const {
  const std::string t = pad_tag(tag);
  for (const Section& s : sections_) {
    if (s.tag == t) return &s;
  }
  return nullptr;
}

Status SnapshotFile::open(const std::string& tag,
                          std::optional<ByteSource>* out) const {
  const Section* s = find(tag);
  if (s == nullptr) {
    return Status::fail("snapshot missing required section " + pad_tag(tag));
  }
  out->emplace(std::span<const u8>(s->payload), "section " + s->tag);
  return Status::good();
}

Status SnapshotFile::open(const SectionSpec& spec,
                          std::optional<ByteSource>* out) const {
  const Section* s = find(spec.tag);
  if (s != nullptr && s->version != spec.version) {
    return Status::fail("section " + s->tag + " version skew: file has v" +
                        std::to_string(s->version) + ", reader expects v" +
                        std::to_string(spec.version));
  }
  return open(spec.tag, out);
}

std::vector<u8> SnapshotFile::encode() const {
  const std::size_t table_bytes = sections_.size() * kTableEntryBytes + 4;
  std::size_t payload_bytes = 0;
  for (const Section& s : sections_) payload_bytes += s.payload.size();
  const std::size_t total =
      kHeaderBytes + table_bytes + payload_bytes + kFooterBytes;

  ByteSink out;
  // Header.
  put_magic(out, kFileMagic);
  out.put_u32(kFormatVersion);
  out.put_u32(static_cast<u32>(sections_.size()));
  out.put_u64(generation_);
  out.put_u64(total);
  out.put_u32(0);  // reserved: room for header growth without a version bump
  out.put_u32(crc32(std::span<const u8>(out.bytes())));

  // Section table.
  ByteSink table;
  u64 offset = kHeaderBytes + table_bytes;
  for (const Section& s : sections_) {
    table.put_raw(
        std::span<const u8>(reinterpret_cast<const u8*>(s.tag.data()), 8));
    table.put_u32(s.version);
    table.put_u32(s.flags);
    table.put_u64(offset);
    table.put_u64(s.payload.size());
    table.put_u32(crc32(std::span<const u8>(s.payload)));
    offset += s.payload.size();
  }
  table.put_u32(crc32(std::span<const u8>(table.bytes())));
  out.put_raw(std::span<const u8>(table.bytes()));

  // Payloads.
  for (const Section& s : sections_) {
    out.put_raw(std::span<const u8>(s.payload));
  }

  // Footer.
  put_magic(out, kFooterMagic);
  out.put_u64(total);
  out.put_u32(crc32(std::span<const u8>(out.bytes())));
  return out.take();
}

Status SnapshotFile::decode(std::span<const u8> bytes, SnapshotFile* out) {
  u64 generation = 0;
  std::vector<TableEntry> table;
  if (Status s = parse_prefix(bytes, &generation, &table); !s) return s;

  SnapshotFile file;
  file.generation_ = generation;
  for (const TableEntry& e : table) {
    std::span<const u8> payload =
        bytes.subspan(e.offset, static_cast<std::size_t>(e.bytes));
    const u32 got = crc32(payload);
    if (got != e.crc) {
      return Status::fail("section " + e.tag + " corrupt (crc mismatch)");
    }
    Section s;
    s.tag = e.tag;
    s.version = e.version;
    s.flags = e.flags;
    s.payload.assign(payload.begin(), payload.end());
    file.sections_.push_back(std::move(s));
  }
  *out = std::move(file);
  return Status::good();
}

Status SnapshotFile::verify(std::span<const u8> bytes, u64* generation,
                            std::vector<std::string>* notes) {
  std::vector<TableEntry> table;
  if (Status s = parse_prefix(bytes, generation, &table); !s) return s;
  Status result = Status::good();
  for (const TableEntry& e : table) {
    std::span<const u8> payload =
        bytes.subspan(e.offset, static_cast<std::size_t>(e.bytes));
    const u32 got = crc32(payload);
    std::string line = (got == e.crc ? "GOOD " : "BAD  ");
    line += e.tag + " v" + std::to_string(e.version) + " flags=" +
            std::to_string(e.flags) + " offset=" + std::to_string(e.offset) +
            " bytes=" + std::to_string(e.bytes) + " crc=0x";
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", e.crc);
    line += hex;
    if (got != e.crc) {
      result = Status::fail("section " + e.tag + " corrupt (crc mismatch)");
    }
    if (notes != nullptr) notes->push_back(std::move(line));
  }
  return result;
}

}  // namespace qcdoc::snapshot
