#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include "mp/message.hpp"

namespace pdc::store_test {

/// A fresh, empty directory under /tmp for one test's store files.
inline std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = "/tmp/pdc-store-" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
  // Test processes never delete their directories, and pids recycle: a
  // leftover from an earlier run with the same pid must not leak records
  // into this test's store.
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

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
