#pragma once

#include <functional>
#include <string>

#include "grade/grader.hpp"
#include "store/store.hpp"

namespace pdc::grade {

/// Journals autograder verdicts into a pdc::store::Store.
///
/// Every record() is durable before it returns (the store's WAL contract),
/// so a grading batch killed mid-corpus resumes with every already-recorded
/// verdict intact — the persistent half of the "a verdict can be delayed by
/// chaos but never lost" guarantee. Records are keyed (cohort, mutant id,
/// submission): re-grading the same key upserts, distinct submissions of
/// the same mutant coexist.
///
/// Thread safety: record() may be called from any number of grader worker
/// threads at once (hook() plugs it straight into GraderConfig::on_grade).
class GradeBook {
 public:
  /// Journal into `store`, tagging every record with `cohort` (the class or
  /// batch) and `submission` (the student or run label). The store must
  /// outlive the book. Throws pdc::InvalidArgument on a cohort longer than
  /// a Report frame carries (lab::protocol::kMaxIdentityBytes).
  GradeBook(store::Store& store, std::string cohort, std::string submission);

  /// Journal one verdict; durable on return.
  void record(const Grade& grade);

  /// Adapter for GraderConfig::on_grade: every verdict is journaled the
  /// moment it lands, before the fleet joins.
  [[nodiscard]] std::function<void(const Grade&)> hook();

  [[nodiscard]] const std::string& cohort() const noexcept { return cohort_; }
  [[nodiscard]] const std::string& submission() const noexcept {
    return submission_;
  }

  /// Grade → store record (verdict travels as its canonical name string so
  /// the store never links this library).
  [[nodiscard]] static store::GradeRecord to_record(
      const Grade& grade, const std::string& cohort,
      const std::string& submission);

  /// Store record → Grade. Throws pdc::InvalidArgument on a verdict name
  /// no verdict_name() produces (a record from a disagreeing version).
  [[nodiscard]] static Grade from_record(const store::GradeRecord& record);

 private:
  store::Store& store_;
  const std::string cohort_;
  const std::string submission_;
};

}  // namespace pdc::grade
