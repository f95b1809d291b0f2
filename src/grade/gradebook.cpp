#include "grade/gradebook.hpp"

#include <utility>

#include "lab/fields.hpp"
#include "support/error.hpp"

namespace pdc::grade {

GradeBook::GradeBook(store::Store& store, std::string cohort,
                     std::string submission)
    : store_(store),
      cohort_(std::move(cohort)),
      submission_(std::move(submission)) {
  // A Report frame names its cohort as an Identity: a longer cohort's
  // grades would be journaled yet never reported.
  if (cohort_.size() > lab::protocol::kMaxIdentityBytes) {
    throw InvalidArgument("grade: cohort name of " +
                          std::to_string(cohort_.size()) +
                          " bytes exceeds the report clamp of " +
                          std::to_string(lab::protocol::kMaxIdentityBytes));
  }
}

store::GradeRecord GradeBook::to_record(const Grade& grade,
                                        const std::string& cohort,
                                        const std::string& submission) {
  store::GradeRecord record;
  record.cohort = cohort;
  record.mutant = grade.id;
  record.submission = submission;
  record.verdict = verdict_name(grade.verdict);
  record.matched = static_cast<std::uint32_t>(grade.matched);
  record.explored = static_cast<std::uint32_t>(grade.explored);
  record.divergence = static_cast<double>(grade.divergence);
  record.detail = grade.detail;
  return record;
}

Grade GradeBook::from_record(const store::GradeRecord& record) {
  Grade grade;
  grade.id = record.mutant;
  grade.verdict = parse_verdict(record.verdict);
  grade.matched = static_cast<int>(record.matched);
  grade.explored = static_cast<int>(record.explored);
  grade.divergence = static_cast<int>(record.divergence);
  grade.detail = record.detail;
  return grade;
}

void GradeBook::record(const Grade& grade) {
  store_.put_grade(to_record(grade, cohort_, submission_));
}

std::function<void(const Grade&)> GradeBook::hook() {
  return [this](const Grade& grade) { record(grade); };
}

}  // namespace pdc::grade
