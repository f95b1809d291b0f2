#pragma once

// The benchmark's three workloads: how the served lab is configured for
// each, and the seeded submission streams the load generator sends. The
// traced replay regenerates the same streams from the same seed, so both
// runs see identical inputs.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lab/protocol.hpp"
#include "store/store.hpp"

namespace labbench {

namespace protocol = pdc::lab::protocol;

enum class Workload { ClassReplay, ColdExplore, DurableFleet };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// Closed loop: this many client connections from one process, each
/// sending its next job only after the previous Result arrived, against
/// `pdclab serve --workers kWorkers`. Sized for a 4-vCPU host.
inline constexpr int kClients = 2;
inline constexpr int kWorkers = 2;
inline constexpr const char* kToken = "hands-on";

/// Semester of history seeded into the durable-fleet store.
inline constexpr std::size_t kHistoryRecords = 20000;

/// How `pdclab serve` is launched for a workload.
struct ServeShape {
  bool socket_executor = false;  ///< --executor socket (forked shard workers)
  bool store = false;            ///< --store DIR
  std::size_t cache = 256;       ///< --cache N
  /// Class replay: each terminal dials a fresh connection per two-job
  /// session. Otherwise each client keeps one persistent connection.
  bool session_per_two_jobs = false;
};

ServeShape serve_shape(Workload workload);

/// One generated submission.
struct Job {
  protocol::Submit submit;
  /// Durable fleet: index of the seeded history record this job repeats;
  /// -1 for a new submission.
  std::int64_t history_index = -1;
  /// Part of the fixed sample whose output is re-run through the Executor
  /// after the timed phase (cold-explore and durable-fleet new jobs).
  bool sampled = false;
};

/// The deterministic submission stream of one client. Every submission of
/// cold-explore and every new durable-fleet submission is unique within a
/// run: its seed field carries the client and a per-client counter.
class JobStream {
 public:
  /// `history` is the durable-fleet store's seeded history (empty for the
  /// other workloads); it must outlive the stream.
  JobStream(Workload workload, std::uint64_t seed, int client,
            const std::vector<protocol::Submit>& history);

  Job next();

 private:
  protocol::Submit fresh_submit();

  Workload workload_;
  std::uint64_t rng_;
  std::uint64_t unique_base_;
  const std::vector<protocol::Submit>& history_;
  std::uint64_t index_ = 0;
  int sampled_ = 0;
};

/// The instructor's assignment a class re-runs: the four `pi` seeds and
/// `spmd` at np 4.
std::vector<protocol::Submit> class_assignment();

/// `count` distinct past submissions of a semester (the durable-fleet
/// store's seeded history), derived from `seed`.
std::vector<protocol::Submit> semester_history(std::uint64_t seed,
                                               std::size_t count);

/// Runs every submission through an inline lab::Executor on `threads`
/// threads. Throws when any of them fails.
std::vector<protocol::Result> execute_all(
    const std::vector<protocol::Submit>& submits, int threads);

/// The store record `pdclab serve` journals for a terminal Result.
pdc::store::ResultRecord to_record(const protocol::Submit& submit,
                                   const protocol::Result& result);

/// Whether two outputs hold the same lines. mp::run records rank prints in
/// arrival order, so two executions of one multi-rank job may order their
/// lines differently; each line must still match byte for byte.
bool same_lines(std::vector<std::string> a, std::vector<std::string> b);

/// FNV-1a over an output's lines (and their boundaries).
std::uint64_t output_hash(const std::vector<std::string>& lines);

}  // namespace labbench
