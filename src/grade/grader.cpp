#include "grade/grader.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string_view>
#include <thread>

#include "chaos/chaos.hpp"
#include "mp/runtime.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace pdc::grade {
namespace {

void validate(const GraderConfig& cfg) {
  if (cfg.workers < 1) {
    throw InvalidArgument("grade: workers must be >= 1");
  }
  if (cfg.seeds < 0) {
    throw InvalidArgument("grade: seeds must be >= 0");
  }
  if (cfg.watchdog_ms < 1) {
    throw InvalidArgument(
        "grade: watchdog_ms must be >= 1 (a deadlocked submission would "
        "stall the cohort forever)");
  }
}

/// Transcript comparison is over the sorted line multiset: mp output is
/// logged in arrival order, which the host scheduler (and injected chaos
/// delays) legally permute. Sorting makes benign interleavings invisible
/// while any payload difference still diverges.
std::vector<std::string> normalized(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Size of the symmetric difference of two sorted line multisets — the
/// number of transcript lines that would show up in a diff.
int divergence_lines(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t diff = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
      ++diff;
    } else {
      ++j;
      ++diff;
    }
  }
  diff += (a.size() - i) + (b.size() - j);
  return static_cast<int>(std::min<std::size_t>(diff, 1 << 20));
}

}  // namespace

std::string Grade::to_line() const {
  std::string line = id + ": " + verdict_name(verdict) +
                     " matched=" + std::to_string(matched) + "/" +
                     std::to_string(explored) +
                     " divergence=" + std::to_string(divergence);
  if (!detail.empty()) line += " (" + detail + ")";
  return line;
}

Grade Grade::parse_line(const std::string& line) {
  const auto bad = [&line](const std::string& why) {
    return InvalidArgument("grade: cannot parse '" + line + "': " + why);
  };
  const auto number = [&](std::size_t begin, std::size_t end) -> int {
    if (end == std::string::npos || end <= begin) throw bad("missing number");
    int value = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const char c = line[i];
      if (c < '0' || c > '9') throw bad("non-digit in number");
      if (value > ((1 << 30) - (c - '0')) / 10) throw bad("number overflow");
      value = value * 10 + (c - '0');
    }
    return value;
  };

  Grade grade;
  const std::size_t colon = line.find(": ");
  if (colon == std::string::npos || colon == 0) throw bad("missing id");
  grade.id = line.substr(0, colon);

  std::size_t pos = colon + 2;
  const std::size_t verdict_end = line.find(' ', pos);
  if (verdict_end == std::string::npos) throw bad("missing verdict");
  grade.verdict = parse_verdict(line.substr(pos, verdict_end - pos));

  pos = verdict_end + 1;
  constexpr std::string_view kMatched = "matched=";
  if (line.compare(pos, kMatched.size(), kMatched) != 0) {
    throw bad("missing matched=");
  }
  pos += kMatched.size();
  const std::size_t slash = line.find('/', pos);
  grade.matched = number(pos, slash);
  pos = slash + 1;
  const std::size_t matched_end = line.find(' ', pos);
  if (matched_end == std::string::npos) throw bad("missing divergence");
  grade.explored = number(pos, matched_end);

  pos = matched_end + 1;
  constexpr std::string_view kDivergence = "divergence=";
  if (line.compare(pos, kDivergence.size(), kDivergence) != 0) {
    throw bad("missing divergence=");
  }
  pos += kDivergence.size();
  std::size_t divergence_end = line.find(' ', pos);
  if (divergence_end == std::string::npos) divergence_end = line.size();
  grade.divergence = number(pos, divergence_end);

  if (divergence_end < line.size()) {  // the optional " (detail)" suffix
    if (line.compare(divergence_end, 2, " (") != 0 || line.back() != ')') {
      throw bad("trailing bytes that are not a (detail) suffix");
    }
    grade.detail =
        line.substr(divergence_end + 2, line.size() - divergence_end - 3);
  }
  return grade;
}

void CohortStats::fold(const Grade& grade) {
  ++verdicts[static_cast<std::size_t>(grade.verdict)];
  matched_schedules += static_cast<std::uint64_t>(grade.matched);
  explored_schedules += static_cast<std::uint64_t>(grade.explored);
  divergence.add(static_cast<double>(grade.divergence));
  grade_us.add(grade.run_us);
}

void CohortStats::merge(const CohortStats& other) {
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    verdicts[i] += other.verdicts[i];
  }
  matched_schedules += other.matched_schedules;
  explored_schedules += other.explored_schedules;
  divergence.merge(other.divergence);
  grade_us.merge(other.grade_us);
}

Grade grade_one(const MutantSpec& spec, const GraderConfig& cfg) {
  validate(cfg);
  Grade grade;
  grade.id = spec.id();
  WallTimer total;

  patternlets::MpProgram program;
  patternlets::MpProgram control;
  try {
    program = synthesize(spec);
    MutantSpec clean = spec;
    clean.kind = MutationKind::Clean;
    control = synthesize(clean);
  } catch (const Error& error) {
    grade.detail = std::string("synthesis: ") + error.what();
    grade.run_us = total.elapsed_seconds() * 1e6;
    return grade;  // Skipped
  }

  mp::RunConfig run_cfg;
  run_cfg.num_procs = spec.np;
  run_cfg.watchdog_ms = cfg.watchdog_ms;

  // The reference transcript comes from the Clean variant under a bound
  // do-nothing plan: the binding shadows any globally active chaos plan, so
  // a hostile plan stressing the grader's dispatch path can never corrupt
  // the answer key.
  std::vector<std::string> reference;
  try {
    chaos::Plan quiet{chaos::Config{}};
    chaos::BoundScope isolate(quiet);
    reference = normalized(mp::run(run_cfg, control).output);
  } catch (const std::exception& error) {
    grade.detail = std::string("reference: ") + error.what();
    grade.run_us = total.elapsed_seconds() * 1e6;
    return grade;  // Skipped
  }

  // Schedule exploration: one bound noise plan per seed. Binding (rather
  // than activating) lets every worker of the fleet explore its own
  // schedules concurrently.
  std::vector<double> durations;
  bool hung = false;
  bool crashed = false;
  for (int k = 0; k < cfg.seeds; ++k) {
    WallTimer timer;
    try {
      chaos::Plan plan(chaos::Config::noise(cfg.seed_base +
                                            static_cast<std::uint64_t>(k)));
      chaos::BoundScope explore(plan);
      const auto transcript = normalized(mp::run(run_cfg, program).output);
      ++grade.explored;
      durations.push_back(timer.elapsed_seconds() * 1e6);
      const int diff = divergence_lines(transcript, reference);
      grade.divergence = std::max(grade.divergence, diff);
      if (diff == 0) ++grade.matched;
    } catch (const mp::TimedOut& error) {
      ++grade.explored;
      hung = true;
      grade.detail = error.what();
      break;  // Hang outranks everything; no point exploring further
    } catch (const std::exception& error) {
      ++grade.explored;
      crashed = true;
      if (grade.detail.empty()) grade.detail = error.what();
    }
  }

  if (hung) {
    grade.verdict = Verdict::Hang;
  } else if (crashed) {
    grade.verdict = Verdict::Crash;
  } else {
    // Pass/Flaky/Wrong are statistical claims over the explored schedules;
    // the describe() preconditions (a nonempty sample with n >= 2 for the
    // variance) gate them. K < 2 therefore grades Skipped with the
    // precondition spelled out, instead of the batch stats throwing
    // mid-cohort.
    const auto timing = assessment::describe(durations);
    if (!timing.ok()) {
      grade.verdict = Verdict::Skipped;
      grade.detail = "stats: " + timing.error;
    } else if (grade.matched == grade.explored) {
      grade.verdict = Verdict::Pass;
    } else if (grade.matched == 0) {
      grade.verdict = Verdict::Wrong;
    } else {
      grade.verdict = Verdict::Flaky;
    }
  }
  grade.run_us = total.elapsed_seconds() * 1e6;
  return grade;
}

Report grade_corpus(const std::vector<MutantSpec>& corpus,
                    const GraderConfig& cfg) {
  validate(cfg);
  Report report;
  report.seeds = cfg.seeds;
  report.seed_base = cfg.seed_base;
  report.keep_grades = cfg.keep_grades;
  report.grades.assign(corpus.size(), Grade{});

  std::vector<CohortStats> shards(static_cast<std::size_t>(cfg.workers));
  std::atomic<std::size_t> next{0};

  const auto worker = [&](int w) {
    chaos::ActorScope lane(chaos::kGradeActorBase + w);
    CohortStats& shard = shards[static_cast<std::size_t>(w)];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= corpus.size()) break;
      for (;;) {
        try {
          // The dispatch checkpoint: a chaos plan targeting the grade lane
          // aborts the claim here, and the retry redelivers the submission
          // — a verdict can be delayed by chaos but never lost.
          chaos::on_op("grade.dispatch");
          report.grades[i] = grade_one(corpus[i], cfg);
          break;
        } catch (const chaos::InjectedAbort&) {
        } catch (const std::exception& error) {
          Grade failed;
          failed.id = corpus[i].id();
          failed.detail = std::string("grader: ") + error.what();
          report.grades[i] = failed;  // Skipped, reason recorded
          break;
        }
      }
      shard.fold(report.grades[i]);
      if (cfg.on_grade) cfg.on_grade(report.grades[i]);
    }
  };

  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(cfg.workers) - 1);
  for (int w = 1; w < cfg.workers; ++w) fleet.emplace_back(worker, w);
  worker(0);
  for (auto& thread : fleet) thread.join();

  // Integral counts merge exactly, so the aggregate cannot depend on which
  // worker graded which submission.
  for (const CohortStats& shard : shards) report.stats.merge(shard);
  return report;
}

std::size_t Report::lost() const noexcept {
  std::size_t count = 0;
  for (const Grade& grade : grades) {
    if (grade.id.empty()) ++count;
  }
  return count;
}

std::string Report::to_text() const {
  std::ostringstream out;
  out << "pdc::grade report\n";
  out << "submissions: " << grades.size() << "\n";
  if (seeds > 0) {
    out << "schedules: " << seeds << " per submission (seeds " << seed_base
        << ".." << seed_base + static_cast<std::uint64_t>(seeds) - 1 << ")\n";
  } else {
    out << "schedules: 0 per submission\n";
  }
  out << "verdicts:";
  for (std::size_t i = 0; i < kVerdictCount; ++i) {
    out << " " << verdict_name(static_cast<Verdict>(i)) << "="
        << stats.verdicts[i];
  }
  out << "\n";
  out << "schedules matched: " << stats.matched_schedules << "/"
      << stats.explored_schedules << "\n";
  if (keep_grades && !grades.empty()) {
    out << "-- grades --\n";
    for (const Grade& grade : grades) out << grade.to_line() << "\n";
  }
  out << "-- divergence (transcript lines off reference, per submission) --\n";
  if (stats.divergence.count() == 0) {
    out << "(empty)\n";
  } else {
    out << stats.divergence.to_text();
  }
  return out.str();
}

std::string Report::timing_text() const {
  std::ostringstream out;
  out << "grade timing (wall clock; informational, not canonical)\n";
  const assessment::Welford& t = stats.grade_us;
  if (t.count() < 2) {
    out << "samples: " << t.count() << " (need >= 2 for variance)\n";
    return out.str();
  }
  out << "grades: " << t.count() << " mean=" << strings::fixed(t.mean(), 1)
      << "us stddev=" << strings::fixed(t.sample_stddev(), 1)
      << "us min=" << strings::fixed(t.min(), 1)
      << "us max=" << strings::fixed(t.max(), 1) << "us\n";

  // Do passing submissions grade measurably faster than failing ones?
  // (Hangs burn the whole watchdog; passes never do.) The fallible Welch
  // test reports its precondition instead of throwing when a cohort is
  // one-sided.
  std::vector<double> passed;
  std::vector<double> failed;
  for (const Grade& grade : grades) {
    (grade.verdict == Verdict::Pass ? passed : failed).push_back(grade.run_us);
  }
  const auto comparison = assessment::try_welch_t_test(passed, failed);
  if (comparison.ok()) {
    out << "pass-vs-fail timing: t=" << strings::fixed(comparison.value.t, 3)
        << " df=" << strings::fixed(comparison.value.df, 1)
        << "\n";
  } else {
    out << "pass-vs-fail timing: not computable: " << comparison.error
        << "\n";
  }
  return out.str();
}

}  // namespace pdc::grade
