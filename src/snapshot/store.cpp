#include "snapshot/store.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/log.h"

namespace qcdoc::snapshot {

namespace fs = std::filesystem;

namespace {

/// Generations kept on disk: the current one and the last known good.
constexpr std::size_t kKeepGenerations = 2;

Status write_all(int fd, std::span<const u8> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::fail(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::good();
}

Status fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::fail("open for fsync failed on " + path + ": " +
                        std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::fail("fsync failed on " + path + ": " +
                        std::strerror(errno));
  }
  return Status::good();
}

}  // namespace

Status read_file_bytes(const std::string& path, std::vector<u8>* out) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return Status::fail("cannot stat " + path + ": " + ec.message());
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::fail("cannot open " + path + ": " + std::strerror(errno));
  }
  out->resize(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) {
    return Status::fail("short read on " + path);
  }
  return Status::good();
}

SnapshotStore::SnapshotStore(std::string dir, std::string stream)
    : dir_(std::move(dir)), stream_(std::move(stream)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    QCDOC_WARN << "snapshot: cannot create " << dir_ << ": " << ec.message();
  }
}

std::string SnapshotStore::path_for(u64 generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), ".g%08llu.qsnap",
                static_cast<unsigned long long>(generation));
  return dir_ + "/" + stream_ + name;
}

std::vector<GenerationInfo> SnapshotStore::list() const {
  std::vector<GenerationInfo> out;
  const std::string prefix = stream_ + ".g";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 8 + 6 || name.rfind(prefix, 0) != 0 ||
        name.substr(name.size() - 6) != ".qsnap") {
      continue;
    }
    const std::string digits = name.substr(prefix.size(), 8);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    GenerationInfo info;
    info.generation = std::strtoull(digits.c_str(), nullptr, 10);
    info.path = entry.path().string();
    std::error_code sec;
    info.bytes = fs::file_size(entry.path(), sec);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              return a.generation < b.generation;
            });
  return out;
}

u64 SnapshotStore::latest_generation() const {
  const auto gens = list();
  return gens.empty() ? 0 : gens.back().generation;
}

void SnapshotStore::prune() const {
  auto gens = list();
  while (gens.size() > kKeepGenerations) {
    std::error_code ec;
    fs::remove(gens.front().path, ec);
    gens.erase(gens.begin());
  }
}

Status SnapshotStore::save(SnapshotFile* file) {
  const u64 generation = latest_generation() + 1;
  file->set_generation(generation);
  const std::vector<u8> image = file->encode();

  const std::string final_path = path_for(generation);
  const std::string tmp_path = final_path + ".tmp";

  // Phase 1: land every byte of the temp file on stable storage.
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::fail("cannot create " + tmp_path + ": " +
                        std::strerror(errno));
  }

  std::span<const u8> to_write(image);
  // Crash-test hook: die after writing a prefix of the temp file.
  if (const char* kill_at = std::getenv("QCDOC_SNAPSHOT_KILL_AT_BYTE")) {
    const std::size_t cut = std::strtoull(kill_at, nullptr, 10);
    if (cut < to_write.size()) {
      Status s = write_all(fd, to_write.subspan(0, cut));
      (void)::fsync(fd);
      ::close(fd);
      (void)s;
      ::raise(SIGKILL);
    }
  }

  if (Status s = write_all(fd, to_write); !s) {
    ::close(fd);
    return s;
  }
  if (::fsync(fd) != 0) {
    const Status s = Status::fail("fsync failed on " + tmp_path + ": " +
                                  std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);

  // Phase 2: atomically make the generation visible, then make the rename
  // itself durable by fsyncing the directory.
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::fail("rename " + tmp_path + " -> " + final_path +
                        " failed: " + std::strerror(errno));
  }
  if (Status s = fsync_path(dir_); !s) return s;

  prune();
  return Status::good();
}

Status SnapshotStore::load_latest(SnapshotFile* out,
                                  std::vector<std::string>* diagnostics) const {
  const auto gens = list();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::vector<u8> bytes;
    Status s = read_file_bytes(it->path, &bytes);
    if (s) {
      s = SnapshotFile::decode(std::span<const u8>(bytes), out);
      if (s) {
        if (it != gens.rbegin() && diagnostics != nullptr) {
          diagnostics->push_back("recovered from generation " +
                                 std::to_string(it->generation));
        }
        return Status::good();
      }
    }
    const std::string diag =
        it->path + ": " + s.reason + " -- falling back to previous generation";
    QCDOC_WARN << "snapshot: " << diag;
    if (diagnostics != nullptr) diagnostics->push_back(diag);
  }
  return Status::fail("no loadable snapshot generation in " + dir_ + " for " +
                      stream_);
}

}  // namespace qcdoc::snapshot
