// Atomic on-disk generation store for snapshots.
//
// A stream of snapshots lives in one directory as numbered generation files
// `<stream>.g<NNNNNNNN>.qsnap`.  Commits are two-phase: encode to
// `<name>.tmp`, write + fsync, rename(2) onto the final name, then fsync the
// directory -- so a crash at any byte leaves either the previous generation
// set intact or the new file fully durable, never a half-written visible
// snapshot.  Readers walk generations newest-first and take the first one
// that fully verifies, reporting what was wrong with every generation they
// skipped.  Retention keeps the newest two files: the current generation
// and the last known good one.
//
// Test hook: when the environment variable QCDOC_SNAPSHOT_KILL_AT_BYTE is
// set, save() writes only that many bytes of the *temp* file, fsyncs, and
// raises SIGKILL -- the crash-consistency tests use it to die mid-write.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace qcdoc::snapshot {

/// One generation file as seen on disk (qsnap's listing unit).
struct GenerationInfo {
  u64 generation = 0;
  std::string path;
  u64 bytes = 0;
};

class SnapshotStore {
 public:
  /// `dir` is created if missing; `stream` names the snapshot series.
  SnapshotStore(std::string dir, std::string stream);

  /// Two-phase atomic commit of `file` as the next generation.  On success
  /// `file`'s generation number has been assigned (previous max + 1) and
  /// older generations beyond the retention window are pruned.
  Status save(SnapshotFile* file);

  /// Load the newest generation that fully verifies.  Generations that fail
  /// are skipped with a per-file diagnostic appended to `diagnostics` (if
  /// non-null); failure means no generation on disk was loadable.
  Status load_latest(SnapshotFile* out,
                     std::vector<std::string>* diagnostics = nullptr) const;

  /// All generation files for this stream, oldest first.
  std::vector<GenerationInfo> list() const;

  /// Highest generation number on disk (0 when none).
  u64 latest_generation() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string path_for(u64 generation) const;
  void prune() const;

  std::string dir_;
  std::string stream_;
};

/// Read a whole file into memory.  Shared by the store and tools/qsnap.
Status read_file_bytes(const std::string& path, std::vector<u8>* out);

}  // namespace qcdoc::snapshot
