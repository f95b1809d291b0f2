#include "lab/executor.hpp"

#include <chrono>
#include <functional>
#include <sstream>
#include <string>

#include "exemplars/drugdesign.hpp"
#include "exemplars/montecarlo.hpp"
#include "grade/grader.hpp"
#include "mp/runtime.hpp"
#include "notebook/engine.hpp"
#include "patternlets/mpi_programs.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::lab {

using protocol::JobKind;
using protocol::Result;
using protocol::Submit;

namespace {

/// The exemplar kernels a Submit may name. Both consume Submit::seed, so
/// distinct seeds produce distinct outputs — the property the cache
/// distinctness test leans on.
std::function<void(mp::Communicator&)> exemplar_program(const Submit& submit) {
  if (submit.name == "pi") {
    const std::uint64_t seed = submit.seed == 0 ? 1 : submit.seed;
    return [seed](mp::Communicator& comm) {
      const int streams = 4 * comm.size();
      const std::int64_t darts = 2048 * streams;
      const auto estimate =
          exemplars::pi_rank(comm, darts, seed, streams);
      if (comm.rank() == 0) {
        comm.print("pi ~= " + std::to_string(estimate.value()) + " (" +
                   std::to_string(estimate.hits) + "/" +
                   std::to_string(estimate.darts) + " darts, seed " +
                   std::to_string(seed) + ")");
      }
    };
  }
  if (submit.name == "drug-design") {
    exemplars::DrugDesignConfig config;
    config.num_ligands = 24;  // the teaching-size screen, seconds not minutes
    config.seed = submit.seed == 0 ? 42 : submit.seed;
    return [config](mp::Communicator& comm) {
      const auto result = exemplars::screen_rank(comm, config);
      if (comm.rank() == 0) {
        std::string best;
        for (const auto& ligand : result.best_ligands) {
          best += (best.empty() ? "" : " ") + ligand;
        }
        comm.print("best score " + std::to_string(result.max_score) +
                   " by [" + best + "] (seed " +
                   std::to_string(config.seed) + ")");
      }
    };
  }
  throw NotFound("lab: unknown exemplar '" + submit.name +
                 "' (known: pi, drug-design)");
}

std::function<void(mp::Communicator&)> rank_program(const Submit& submit) {
  switch (submit.kind) {
    case JobKind::Patternlet:
      return patternlets::mpi_program(submit.name);  // throws NotFound
    case JobKind::Exemplar:
      return exemplar_program(submit);
    case JobKind::Notebook:
    case JobKind::Grade:
      break;
  }
  throw InvalidArgument("lab: job kind has no rank program");
}

/// Parses a value in [lo, hi] out of a grade option token.
int grade_option_value(const std::string& key, const std::string& text,
                       int lo, int hi) {
  int value = 0;
  std::size_t used = 0;
  try {
    value = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = text.size() + 1;  // force the malformed path below
  }
  if (used != text.size() || text.empty()) {
    throw InvalidArgument("lab: grade option " + key + "='" + text +
                          "' is not an integer");
  }
  if (value < lo || value > hi) {
    throw InvalidArgument("lab: grade option " + key + "=" +
                          std::to_string(value) + " out of range [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]");
  }
  return value;
}

/// A grade Submit's options ride in `source` as whitespace-separated
/// "key=value" tokens: "k=N" (schedules explored) and "watchdog_ms=N".
/// `seed` is the schedule seed base (0 keeps the grader default). Throws
/// pdc::InvalidArgument on an unknown key or out-of-range value — at
/// admission time, so a bad request is a BadRequest, not a failed job.
grade::GraderConfig grade_config(const Submit& submit) {
  grade::GraderConfig cfg;
  cfg.workers = 1;  // one submission per job; the fleet is the lab's workers
  cfg.watchdog_ms = 1000;
  if (submit.seed != 0) cfg.seed_base = submit.seed;
  std::istringstream in(submit.source);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    if (key == "k") {
      cfg.seeds = grade_option_value(key, value, 2, 64);
    } else if (key == "watchdog_ms") {
      cfg.watchdog_ms = grade_option_value(key, value, 1, 10000);
    } else {
      throw InvalidArgument("lab: unknown grade option '" + key +
                            "' (known: k, watchdog_ms)");
    }
  }
  return cfg;
}

}  // namespace

void Executor::validate(const Submit& submit) const {
  // np >= 1 holds for every kind, including the kinds that otherwise
  // ignore the field (Notebook runs the engine once, Grade reads its world
  // size from the MutantSpec): a non-positive np is always a malformed
  // request, and admission is where malformed requests are named.
  if (submit.np < 1) {
    throw InvalidArgument("lab: np " + std::to_string(submit.np) +
                          " out of range [1, " +
                          std::to_string(config_.max_np) + "]");
  }
  if (submit.kind == JobKind::Notebook) {
    if (submit.source.empty()) {
      throw InvalidArgument("lab: notebook submit carries no source");
    }
    return;
  }
  if (submit.kind == JobKind::Grade) {
    // `name` is a MutantSpec id; its embedded @npN is the world size (the
    // Submit::np field is ignored for grade jobs, like source is for
    // patternlets). Malformed spec / unknown base / bad option all reject
    // here so students see a BadRequest, not a burned queue slot.
    const grade::MutantSpec spec = grade::MutantSpec::parse(submit.name);
    if (spec.np > config_.max_np) {
      throw InvalidArgument("lab: grade np " + std::to_string(spec.np) +
                            " out of range [2, " +
                            std::to_string(config_.max_np) + "]");
    }
    (void)patternlets::mpi_program(spec.base);  // throws NotFound
    (void)grade_config(submit);
    return;
  }
  if (submit.np > config_.max_np) {
    throw InvalidArgument("lab: np " + std::to_string(submit.np) +
                          " out of range [1, " +
                          std::to_string(config_.max_np) + "]");
  }
  (void)rank_program(submit);  // throws NotFound on an unknown name
}

Result Executor::execute(const Submit& submit, const LineSink& on_line) const {
  Result result;
  trace::Span span("lab.execute", "lab");
  const auto start = std::chrono::steady_clock::now();
  executions_.fetch_add(1, std::memory_order_relaxed);
  try {
    if (submit.kind == JobKind::Notebook) {
      // A fresh engine per job: the virtual filesystem and execution
      // counter start clean, so tenants can never see each other's files.
      notebook::ExecutionEngine engine(
          notebook::ProgramRegistry::mpi4py_standard());
      result.output = engine.execute_source(submit.source);
    } else if (submit.kind == JobKind::Grade) {
      // The grader owns its schedule exploration (bound chaos plans over
      // mp::run), and its canonical line is deterministic — exactly what
      // the result cache wants to share across a class re-running the
      // same submission.
      const grade::MutantSpec spec = grade::MutantSpec::parse(submit.name);
      const grade::Grade graded = grade::grade_one(spec, grade_config(submit));
      result.output.push_back(graded.to_line());
      if (!graded.detail.empty()) {
        result.output.push_back("detail: " + graded.detail);
      }
    } else {
      mp::RunConfig run_config;
      run_config.num_procs = submit.np;
      run_config.on_output = on_line;
      result.output = mp::run(run_config, rank_program(submit)).output;
    }
    result.exit_code = 0;
  } catch (const std::exception& error) {
    result.exit_code = 1;
    result.error = error.what();
    result.output.clear();
  }
  result.exec_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // A cell can print more than a Result frame carries; fit it here, where
  // the Result is formed, so no client or shard pool gets one it rejects.
  protocol::fit_result(result);
  return result;
}

}  // namespace pdc::lab
