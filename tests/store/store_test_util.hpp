#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "mp/message.hpp"

namespace pdc::store_test {

/// A fresh, empty directory under /tmp for one test's store files, removed
/// with everything in it when the owner goes out of scope. Only the process
/// that made it removes it: a forked kill-sweep child that unwinds instead
/// of _exit()ing leaves the directory to its parent, and the parent reaps
/// the child (drain_child) before its own owner goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = "/tmp/pdc-store-" + tag + "-" + std::to_string(owner_) + "-" +
            std::to_string(counter.fetch_add(1));
    // pids recycle: a leftover from an earlier run that died before its
    // owners unwound must not leak records into this test's store.
    std::filesystem::remove_all(path_);
    ::mkdir(path_.c_str(), 0755);
  }
  ~ScratchDir() {
    if (::getpid() != owner_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  const pid_t owner_ = ::getpid();
  std::string path_;
};

/// Raw file contents (the corruption tests forge and inspect log bytes).
inline mp::Bytes read_file(const std::string& path) {
  mp::Bytes bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<std::byte>(buf[i]));
    }
  }
  std::fclose(f);
  return bytes;
}

inline void write_file(const std::string& path, const mp::Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  if (!bytes.empty()) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
  }
  std::fclose(f);
}

inline bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace pdc::store_test
