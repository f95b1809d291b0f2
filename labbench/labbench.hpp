#pragma once

// Shared between the end-to-end run (loadgen.cpp) and the traced
// per-layer replay (replay.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace labbench {

struct Options {
  Workload workload = Workload::ClassReplay;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short smoke configuration: fewer launches, a small history, short
  /// warm-up. What the self-test runs.
  bool smoke = false;
  /// Path of the built `pdclab` binary.
  std::string pdclab;
  /// Where the traced run writes its spans (Chrome trace JSON); "" = keep
  /// them in memory only.
  std::string trace_out;
  /// Self-test only: break one correctness gate on purpose
  /// ("wrong-output" or "lost-job") so the test can see it trip.
  std::string fault;

  [[nodiscard]] std::size_t history_records() const {
    return workload != Workload::DurableFleet ? 0
           : smoke                           ? 500
                                             : kHistoryRecords;
  }
};

/// One named measurement as printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / how it was taken, for the log
};

/// What the set-up phase computed and both runs reuse.
struct Prepared {
  ServeShape shape;
  /// Durable fleet: the seeded history and its reference outputs.
  std::vector<protocol::Submit> history;
  std::vector<protocol::Result> history_results;
  /// Class replay: the assignment and its reference outputs from the
  /// Executor.
  std::vector<protocol::Submit> assignment;
  std::vector<protocol::Result> assignment_results;
  /// Durable fleet: directory holding the compacted seeded store.
  std::string seeded_store;
};

/// One window of the timed phase, as logged next to the metrics.
struct Window {
  double steal_share = 0.0;
  double jobs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_per_job_us = 0.0;
  double serve_cpu_per_job_us = 0.0;  ///< the serve process alone
  bool selected = false;  ///< among the quiet windows the metrics use
};

/// Outcome of the end-to-end run (no spans recorded).
struct EndToEnd {
  bool correct = true;
  std::vector<std::string> problems;  ///< first few failures, for the log
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected + lost + wrong
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  std::uint64_t wrong = 0;

  double jobs_per_s = 0.0;
  double job_p50_us = 0.0;
  double job_p99_us = 0.0;
  double cpu_per_job_us = 0.0;
  double setup_s = 0.0;
  std::uint64_t timed_jobs = 0;
  int windows = 0;
  int selected_windows = 0;
  std::vector<Window> window_log;
  int launches = 0;

  /// Read from the frames and the ready line (per-layer metrics).
  double hit_ratio = 0.0;
  double queue_position_p99 = 0.0;
  double reported_exec_us = 0.0;
  double server_overhead_us = 0.0;
  std::uint64_t warmed = 0;
  double steal_share = 0.0;
  double loadgen_cpu_per_job_us = 0.0;
};

/// Seeds inputs shared by both runs (reference outputs, the durable store).
Prepared prepare(const Options& options);

/// Launch the served lab, drive the closed loop, check every output.
EndToEnd run_end_to_end(const Options& options, const Prepared& prepared);

/// The traced run: feed the workload's inputs through each layer's public
/// functions, write the spans out, and return the per-layer metrics.
std::vector<Metric> run_replay(const Options& options,
                               const Prepared& prepared,
                               const EndToEnd& e2e);

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Shortest round-trip decimal text of `value` (all its digits).
std::string number(double value);

}  // namespace labbench
