#pragma once

// `pdclab serve` as a child process of the load generator: launched the way
// users run it, timed to its ready line, stopped with SIGTERM.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace labbench {

/// The served lab's endpoint and store directory, relative to the working
/// directory (unix socket paths are short that way).
inline constexpr const char* kEndpoint = "unix:lab.sock";
inline constexpr const char* kStoreDir = "store";

/// Totals from `pdclab serve`'s exit line.
struct ServedTotals {
  unsigned long long submits = 0, accepted = 0, rejected = 0, cache_hits = 0,
                     executed = 0, lockouts = 0, sessions = 0;
};

/// One `pdclab serve` process. Killed and reaped on destruction if it is
/// still running, so no exit path leaves it behind.
class ServedLab {
 public:
  ServedLab(const std::string& pdclab, const ServeShape& shape)
      : store_(shape.store) {
    std::vector<std::string> args = {pdclab,      "serve",
                                     "--listen",  kEndpoint,
                                     "--workers", std::to_string(kWorkers),
                                     "--token",   kToken,
                                     "--cache",   std::to_string(shape.cache)};
    if (shape.socket_executor) {
      args.insert(args.end(), {"--executor", "socket"});
    }
    if (shape.store) args.insert(args.end(), {"--store", kStoreDir});
    // Built before the fork: the load generator has other threads, so the
    // child may only make async-signal-safe calls (no allocation).
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    launched_ = std::chrono::steady_clock::now();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
  }

  ~ServedLab() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  ServedLab(const ServedLab&) = delete;
  ServedLab& operator=(const ServedLab&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint64_t warmed() const { return warmed_; }

  /// Block until the ready line; returns launch → ready in seconds. The
  /// ready line is the last one `pdclab serve` prints before serving: the
  /// store line (recovery and cache warm-up done) when it has a store,
  /// else the "serving at" line.
  double wait_ready() {
    const char* ready_prefix = store_ ? "pdclab: store " : "pdclab: serving at";
    for (;;) {
      const std::string line = read_line(std::chrono::seconds(60));
      if (line.rfind(ready_prefix, 0) != 0) continue;
      const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - launched_).count();
      if (store_) {
        const auto at = line.find("warmed ");
        if (at != std::string::npos) {
          warmed_ = std::strtoull(line.c_str() + at + 7, nullptr, 10);
        }
      }
      return elapsed;
    }
  }

  /// SIGTERM (the graceful path users take), read the exit line, reap.
  ServedTotals stop() {
    ::kill(pid_, SIGTERM);
    ServedTotals totals;
    bool seen = false;
    try {
      for (;;) {
        const std::string line = read_line(std::chrono::seconds(60));
        if (std::sscanf(line.c_str(),
                        "pdclab: served %llu submits (%llu accepted, %llu "
                        "rejected, %llu cache hits, %llu executed, %llu "
                        "lockouts) over %llu sessions",
                        &totals.submits, &totals.accepted, &totals.rejected,
                        &totals.cache_hits, &totals.executed, &totals.lockouts,
                        &totals.sessions) == 7) {
          seen = true;
        }
      }
    } catch (const std::runtime_error&) {
      // EOF (or the deadline): the process has closed its stdout.
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("pdclab serve exited abnormally");
    }
    if (!seen) throw std::runtime_error("pdclab serve printed no exit totals");
    return totals;
  }

 private:
  std::string read_line(std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) throw std::runtime_error("pdclab serve: timed out");
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("pdclab serve: closed its output");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool store_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  std::chrono::steady_clock::time_point launched_;
  std::uint64_t warmed_ = 0;
};

}  // namespace labbench
