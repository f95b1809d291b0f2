#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "lab/protocol.hpp"

namespace pdc::lab {

struct ExecutorConfig {
  /// Upper bound accepted for Submit::np (the Colab VM would not launch
  /// more — notebook/EngineConfig has the same knob).
  int max_np = protocol::kMaxProcs;
};

/// Turns one validated Submit into a Result by running it on the matching
/// engine: patternlet rank programs and exemplar kernels on the mp runtime
/// (mp::run, rank-per-thread over loopback), notebook cell source on a
/// fresh per-job ExecutionEngine (its virtual filesystem is the tenant
/// isolation boundary). Stateless apart from the execution counter; safe to
/// call from every worker thread concurrently.
class Executor {
 public:
  explicit Executor(ExecutorConfig config = {}) : config_(config) {}

  /// Admission-time validation: throws pdc::InvalidArgument (np out of
  /// range, empty notebook source) or pdc::NotFound (unknown program name)
  /// with a message naming the problem — the text of the BadRequest reject.
  void validate(const protocol::Submit& submit) const;

  /// A live-output observer: called once per printed line, as the job
  /// runs, on the thread of the rank that printed (rank 0's is the one that
  /// called execute). mp::run enters it under the universe's log mutex, so
  /// calls never overlap and arrive in log order.
  using LineSink = std::function<void(const std::string&)>;

  /// Run the job. Never throws: a failing program (including an injected
  /// chaos abort inside the runtime) comes back as exit_code != 0 with the
  /// one-line cause in `error`. Fills exec_us; leaves job_id/cached to the
  /// caller.
  ///
  /// `on_line` (optional) streams rank output incrementally for the
  /// patternlet/exemplar kinds; Notebook and Grade jobs produce their
  /// output only at completion, so the sink stays silent for them. The
  /// returned Result always carries the complete output either way.
  [[nodiscard]] protocol::Result execute(const protocol::Submit& submit,
                                         const LineSink& on_line) const;
  [[nodiscard]] protocol::Result execute(const protocol::Submit& submit) const {
    return execute(submit, LineSink{});
  }

  /// Real executions performed so far (cache hits do not pass through here
  /// — the cache-correctness tests pin that).
  [[nodiscard]] std::uint64_t executions() const noexcept {
    return executions_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ExecutorConfig& config() const noexcept {
    return config_;
  }

 private:
  ExecutorConfig config_;
  mutable std::atomic<std::uint64_t> executions_{0};
};

}  // namespace pdc::lab
