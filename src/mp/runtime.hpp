#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "mp/communicator.hpp"

namespace pdc::mp {

/// Thrown by mp::run when a job exceeds its watchdog budget: the runtime
/// aborts the universe (waking every rank blocked in a receive, barrier or
/// collective with mp::Aborted), waits for the ranks, and rethrows this — so
/// a deadlocked program costs `watchdog_ms`, not forever. The pdc::grade
/// autograder classifies this outcome as a Hang verdict. A rank spinning in
/// a CPU-bound livelock (never touching the runtime) is outside the
/// watchdog's reach.
class TimedOut : public Error {
 public:
  explicit TimedOut(const std::string& what) : Error(what) {}
};

/// Configuration for one message-passing job (the moral equivalent of an
/// `mpirun` command line).
struct RunConfig {
  /// Number of ranks (processes) to launch. Must be >= 1.
  int num_procs = 4;

  /// Wall-clock budget for the whole job in milliseconds; 0 disables the
  /// watchdog (the default — interactive runs hang where a student can see
  /// them). When exceeded, the universe is aborted and TimedOut is thrown.
  int watchdog_ms = 0;

  /// Hostnames, one per rank. Leave empty to place every rank on a single
  /// default host — exactly the situation in the paper's Fig. 2, where all
  /// four Colab ranks report the same container id.
  std::vector<std::string> hostnames;

  /// Default hostname used when `hostnames` is empty. The paper's Colab VM
  /// reported the Docker container id "d6ff4f902ed6"; we keep that spirit
  /// with a recognizable default.
  std::string default_hostname = "d6ff4f902ed6";

  /// Node id per rank (same id ⇔ co-located; see Universe::set_topology).
  /// Empty = one node, the historic loopback shape. Lets the collective
  /// tests exercise the topology-aware (Hierarchical) schedules without
  /// real multi-node processes.
  std::vector<int> topology;

  /// Observe every line the ranks print() as it happens (installed on the
  /// Universe before any rank starts). RunResult::output still carries the
  /// complete log; the sink is for live streaming — the lab worker forwards
  /// these as incremental Status frames. Entered with the universe's log
  /// mutex held, on the thread of the rank that printed (rank 0's is the
  /// caller's).
  std::function<void(const std::string&)> on_output;
};

/// Outcome of a job: everything the ranks print()ed, in arrival order.
struct RunResult {
  std::vector<std::string> output;
};

/// Run `cfg.num_procs` ranks, each executing `program(comm)` with its own
/// world communicator, and return when all have finished (the in-process
/// `mpirun`). Rank 0 runs on the calling thread; ranks 1..np-1 run on a
/// process-wide crew of cached threads, which park on a futex between jobs
/// and grow to the peak concurrent demand, so a warm job creates no thread.
/// One shared thread, started by the first job that sets it, enforces every
/// job's `watchdog_ms`. A process forked without exec starts with an empty
/// crew.
///
/// If any rank throws, the job is aborted: ranks blocked in receives are
/// woken with mp::Aborted, every rank finishes, and the first error is
/// rethrown to the caller.
RunResult run(const RunConfig& cfg,
              const std::function<void(Communicator&)>& program);

/// Convenience overload: `run({.num_procs = n}, program)`.
RunResult run(int num_procs, const std::function<void(Communicator&)>& program);

namespace detail {
/// Jobs currently registered with the watchdog thread (for tests: a job
/// deregisters before run() returns).
std::size_t watched_jobs();
}  // namespace detail

/// Helper used throughout the patternlets: round-robin hostnames over a
/// simulated cluster of `num_nodes` nodes named "<stem>0".."<stem>N-1".
std::vector<std::string> cluster_hostnames(int num_procs, int num_nodes,
                                           const std::string& stem = "node");

}  // namespace pdc::mp
