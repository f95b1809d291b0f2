#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "lab/executor.hpp"

namespace labbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// High bits shared by every unique seed of a run; bits 32..39 name the
/// client (0 = the seeded history) and the low 32 bits count.
std::uint64_t unique_prefix(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x6C61622D62656E63ull;
  return (splitmix(state) & 0xFFFFFFull) << 40;
}

constexpr int kTenants = 64;
constexpr int kSampleEvery = 50;
constexpr int kSamplePerClient = 64;

/// Explored jobs: mostly `pi` at np 2, so the median sits in one latency
/// mode, plus a few cheap patternlets at np 2 or 4.
protocol::Submit explored(std::uint64_t& rng, std::uint64_t unique_seed) {
  protocol::Submit submit;
  submit.token = kToken;
  submit.tenant = "student-" + std::to_string(splitmix(rng) % kTenants);
  submit.seed = unique_seed;
  const std::uint64_t roll = splitmix(rng) % 100;
  if (roll < 85) {
    submit.kind = protocol::JobKind::Exemplar;
    submit.name = "pi";
    submit.np = 2;
    return submit;
  }
  static const char* const kPatternlets[] = {"spmd", "reduce", "broadcast"};
  submit.kind = protocol::JobKind::Patternlet;
  submit.name = kPatternlets[roll % 3];
  submit.np = (roll % 2 == 0) ? 2 : 4;
  return submit;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "class-replay") return Workload::ClassReplay;
  if (name == "cold-explore") return Workload::ColdExplore;
  if (name == "durable-fleet") return Workload::DurableFleet;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::ClassReplay: return "class-replay";
    case Workload::ColdExplore: return "cold-explore";
    case Workload::DurableFleet: return "durable-fleet";
  }
  return "?";
}

ServeShape serve_shape(Workload workload) {
  ServeShape shape;
  switch (workload) {
    case Workload::ClassReplay:
      shape.session_per_two_jobs = true;
      break;
    case Workload::ColdExplore:
      break;
    case Workload::DurableFleet:
      shape.socket_executor = true;
      shape.store = true;
      // Room for the whole semester plus every new job of a run, so a
      // repeat of a seeded result is never evicted into a re-execution.
      shape.cache = 1u << 18;
      break;
  }
  return shape;
}

std::vector<protocol::Submit> class_assignment() {
  const auto assigned = [](protocol::JobKind kind, std::string name, int np,
                           std::uint64_t seed) {
    protocol::Submit submit;
    submit.token = kToken;
    submit.kind = kind;
    submit.name = std::move(name);
    submit.np = np;
    submit.seed = seed;
    return submit;
  };
  std::vector<protocol::Submit> jobs;
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    jobs.push_back(assigned(protocol::JobKind::Exemplar, "pi", 2, seed));
  }
  jobs.push_back(assigned(protocol::JobKind::Patternlet, "spmd", 4, 0));
  return jobs;
}

std::vector<protocol::Submit> semester_history(std::uint64_t seed,
                                               std::size_t count) {
  std::uint64_t rng = seed ^ 0x686973746F7279ull;
  const std::uint64_t prefix = unique_prefix(seed);
  std::vector<protocol::Submit> history;
  history.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    history.push_back(explored(rng, prefix | i));
  }
  return history;
}

JobStream::JobStream(Workload workload, std::uint64_t seed, int client,
                     const std::vector<protocol::Submit>& history)
    : workload_(workload),
      rng_(seed * 0x100000001B3ull + static_cast<std::uint64_t>(client) + 1),
      unique_base_(unique_prefix(seed) |
                   (static_cast<std::uint64_t>(client + 1) << 32)),
      history_(history) {}

protocol::Submit JobStream::fresh_submit() {
  return explored(rng_, unique_base_ | index_);
}

Job JobStream::next() {
  Job job;
  switch (workload_) {
    case Workload::ClassReplay: {
      static const std::vector<protocol::Submit> assignment =
          class_assignment();
      job.submit = assignment[splitmix(rng_) % assignment.size()];
      job.submit.tenant =
          "student-" + std::to_string(splitmix(rng_) % kTenants);
      break;
    }
    case Workload::ColdExplore:
      job.submit = fresh_submit();
      break;
    case Workload::DurableFleet:
      // One submission in five repeats a seeded result.
      if (!history_.empty() && splitmix(rng_) % 5 == 0) {
        const std::size_t index = splitmix(rng_) % history_.size();
        job.history_index = static_cast<std::int64_t>(index);
        job.submit = history_[index];
        job.submit.tenant =
            "student-" + std::to_string(splitmix(rng_) % kTenants);
      } else {
        job.submit = fresh_submit();
      }
      break;
  }
  if (job.history_index < 0 && workload_ != Workload::ClassReplay &&
      index_ % kSampleEvery == 0 && sampled_ < kSamplePerClient) {
    job.sampled = true;
    ++sampled_;
  }
  ++index_;
  return job;
}

std::vector<protocol::Result> execute_all(
    const std::vector<protocol::Submit>& submits, int threads) {
  const pdc::lab::Executor executor;
  std::vector<protocol::Result> results(submits.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < submits.size(); i = next++) {
        results[i] = executor.execute(submits[i]);
        if (results[i].exit_code != 0) failed = true;
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (failed) throw std::runtime_error("reference execution failed");
  return results;
}

pdc::store::ResultRecord to_record(const protocol::Submit& submit,
                                   const protocol::Result& result) {
  pdc::store::ResultRecord record;
  record.digest = protocol::digest(submit);
  record.tenant = submit.tenant;
  record.kind = static_cast<std::uint16_t>(submit.kind);
  record.name = submit.name;
  record.np = submit.np;
  record.seed = submit.seed;
  record.exit_code = result.exit_code;
  record.exec_us = result.exec_us;
  record.output = result.output;
  record.error = result.error;
  return record;
}

bool same_lines(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::uint64_t output_hash(const std::vector<std::string>& lines) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (const std::string& line : lines) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix(0xFF);  // line boundary; never a byte of printed text
  }
  return hash;
}

}  // namespace labbench
