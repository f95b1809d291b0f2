#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "assessment/streaming.hpp"
#include "grade/mutant.hpp"
#include "grade/verdict.hpp"

namespace pdc::grade {

struct Grade;

/// Knobs of one grading batch.
struct GraderConfig {
  /// Schedules explored per submission (K). A submission must match the
  /// reference on *every* explored schedule to pass; K < 2 cannot support a
  /// statistical claim and grades everything Skipped (see Report).
  int seeds = 8;

  /// First chaos seed; submission schedules use seed_base .. seed_base+K-1.
  std::uint64_t seed_base = 1;

  /// Worker threads grading concurrently. Each worker binds its own chaos
  /// plans (chaos::BoundScope), so fleets of any size explore schedules
  /// independently; reports are byte-identical for any worker count.
  int workers = 4;

  /// Per-job watchdog (mp::RunConfig::watchdog_ms). A schedule exceeding it
  /// is classified Hang. Must be > 0: grading without a watchdog would let
  /// one deadlocked submission stall the whole cohort.
  int watchdog_ms = 2000;

  /// Keep the per-submission grade lines in Report::to_text(). Disable for
  /// cohort-scale runs where only the aggregate matters.
  bool keep_grades = true;

  /// Called once per submission the moment its verdict lands (before the
  /// fleet joins). Runs on grader worker threads, possibly concurrently —
  /// the GradeBook journaling hook, whose store is thread-safe. Leave empty
  /// for no per-grade side effects.
  std::function<void(const Grade&)> on_grade;
};

/// Grade of one submission.
struct Grade {
  std::string id;  ///< MutantSpec::id(); empty means "never graded" (lost)
  Verdict verdict = Verdict::Skipped;
  int matched = 0;     ///< explored schedules whose transcript matched
  int explored = 0;    ///< schedules actually run (Hang short-circuits)
  int divergence = 0;  ///< max transcript lines diverging from reference
  std::string detail;  ///< skip reason / first failure message
  double run_us = 0.0;  ///< wall-clock for this grade (not canonical)

  /// Canonical one-line form, e.g.
  /// "spmd~race#3@np4: flaky matched=5/8 divergence=1".
  [[nodiscard]] std::string to_line() const;

  /// Inverse of to_line() (run_us, which the line never carries, stays 0).
  /// The lab server uses it to recover the structured verdict from a grade
  /// job's first output line when journaling into the store. Throws
  /// pdc::InvalidArgument on anything to_line() could not have produced.
  [[nodiscard]] static Grade parse_line(const std::string& line);
};

/// Merge-able aggregate over a cohort of grades. Workers fold their own
/// shard and the grader merges shards at join time; every canonical field
/// is integral, so the merged aggregate is independent of how the cohort
/// was partitioned over workers.
struct CohortStats {
  std::array<std::uint64_t, kVerdictCount> verdicts{};
  std::uint64_t matched_schedules = 0;
  std::uint64_t explored_schedules = 0;
  /// Transcript lines diverging from the reference, one sample per
  /// submission (clamped into [0, 64) — the histogram's edge buckets).
  assessment::Histogram divergence{0.0, 64.0, 64};
  /// Wall-clock per grade; timing only, excluded from the canonical report.
  assessment::Welford grade_us;

  void fold(const Grade& grade);
  void merge(const CohortStats& other);
};

/// Outcome of grading a corpus.
struct Report {
  std::vector<Grade> grades;  ///< corpus order
  CohortStats stats;
  int seeds = 0;
  std::uint64_t seed_base = 0;
  bool keep_grades = true;

  /// Number of grades with the given verdict.
  [[nodiscard]] std::uint64_t count(Verdict verdict) const noexcept {
    return stats.verdicts[static_cast<std::size_t>(verdict)];
  }

  /// Submissions that were never graded (empty Grade slots). The grader's
  /// dispatch retry loop guarantees zero; the bench gates on it.
  [[nodiscard]] std::size_t lost() const noexcept;

  /// The canonical report: verdict totals, per-grade lines (when
  /// keep_grades), and the divergence histogram. Contains only integers and
  /// deterministic strings — byte-identical across runs and worker counts
  /// for the same (corpus, config).
  [[nodiscard]] std::string to_text() const;

  /// Wall-clock statistics (mean/stddev/min/max grade time and a
  /// matched-vs-failed timing comparison). Informational; never part of
  /// the canonical report.
  [[nodiscard]] std::string timing_text() const;
};

/// Grade one submission: synthesize it and its Clean reference, run the
/// reference chaos-quiet, then explore cfg.seeds schedules under bound
/// chaos noise plans and classify. Never throws for a gradeable-or-not
/// submission — failures surface as the Grade's verdict/detail.
/// Throws pdc::InvalidArgument only for an invalid config.
Grade grade_one(const MutantSpec& spec, const GraderConfig& cfg);

/// Grade a corpus on a fleet of cfg.workers threads. Work is claimed from a
/// shared index; each claim passes the chaos::on_op("grade.dispatch")
/// checkpoint on the worker's chaos::kGradeActorBase lane, and an injected
/// abort there redispatches the submission, so a hostile chaos plan can
/// hammer the dispatch path without losing a single verdict.
Report grade_corpus(const std::vector<MutantSpec>& corpus,
                    const GraderConfig& cfg);

}  // namespace pdc::grade
