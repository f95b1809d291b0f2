#include "chaos/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace pdc::chaos {

namespace {

/// The process-wide active plan (same protocol as trace::g_active).
std::atomic<Plan*> g_active{nullptr};

/// Monotonic id per Plan object, so the per-thread decision counter below
/// can detect "a different plan is active now" even if a new Plan reuses a
/// dead one's address.
std::atomic<std::uint64_t> g_next_epoch{1};

thread_local int tl_actor = 0;

/// The calling thread's bound plan (BoundScope), shadowing g_active.
thread_local Plan* tl_bound = nullptr;

/// Per-thread decision counter, reset whenever the active plan changes.
/// A thread serves one actor at a time, and each actor's operation sequence
/// is deterministic for deterministic programs, so (actor, counter) names a
/// decision point reproducibly across runs.
struct ThreadCounter {
  std::uint64_t epoch = 0;
  std::uint64_t ops = 0;
};
thread_local ThreadCounter tl_counter;

std::uint64_t fnv1a(const char* text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* p = text; *p != '\0'; ++p) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*p));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Trace marker names, indexed by FaultKind.
constexpr const char* kMarkerNames[] = {
    "chaos.delay", "chaos.reorder", "chaos.drop", "chaos.abort", "chaos.yield",
};
constexpr const char* kKindNames[] = {
    "delay", "reorder", "drop", "abort", "yield",
};

void sleep_us(std::int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

const char* fault_kind_name(FaultKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

Plan::Plan(Config config) : config_(std::move(config)) {
  // Stamp the epoch at construction so bound-only plans (BoundScope without
  // activate()) also restart every thread's decision counter on first use.
  epoch_ = g_next_epoch.fetch_add(1, std::memory_order_relaxed);
}

Plan::~Plan() { deactivate(); }

void Plan::activate() {
  Plan* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    if (expected == this) return;  // already active: no-op
    throw InvalidArgument("chaos::Plan::activate: another plan is active");
  }
  // Re-stamp so every thread's decision counter restarts for this
  // activation (threads created before activation included).
  epoch_ = g_next_epoch.fetch_add(1, std::memory_order_relaxed);
}

void Plan::deactivate() {
  Plan* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed);
}

Plan* Plan::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

std::vector<InjectedFault> Plan::faults() const {
  std::lock_guard lock(mutex_);
  return faults_;
}

std::vector<InjectedFault> Plan::normalized_faults() const {
  std::vector<InjectedFault> sorted = faults();
  std::sort(sorted.begin(), sorted.end(),
            [](const InjectedFault& a, const InjectedFault& b) {
              if (a.actor != b.actor) return a.actor < b.actor;
              return a.seq < b.seq;
            });
  return sorted;
}

std::size_t Plan::fault_count() const {
  std::lock_guard lock(mutex_);
  return faults_.size();
}

std::size_t Plan::fault_count(FaultKind kind) const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(faults_.begin(), faults_.end(),
                    [&](const InjectedFault& f) { return f.kind == kind; }));
}

double Plan::draw(const char* site, int actor, std::uint64_t counter,
                  std::uint64_t salt) const noexcept {
  // One independent SplitMix64 draw per (seed, site, actor, counter, salt):
  // no shared stream, so cross-thread timing cannot shift any decision.
  std::uint64_t key = config_.seed;
  key ^= fnv1a(site) * 0x9e3779b97f4a7c15ULL;
  key ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(actor)) + 1) *
         0xbf58476d1ce4e5b9ULL;
  key ^= (counter + 1) * 0x94d049bb133111ebULL;
  key ^= (salt + 1) * 0xd6e8feb86659fd93ULL;
  SplitMix64 mixer(key);
  // 53 uniformly random mantissa bits -> [0, 1).
  return static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
}

void Plan::record(FaultKind kind, int actor, std::uint64_t seq,
                  const char* site, std::int64_t magnitude) {
  {
    std::lock_guard lock(mutex_);
    faults_.push_back(InjectedFault{kind, actor, seq, site, magnitude});
  }
  trace::instant(kMarkerNames[static_cast<std::size_t>(kind)], "chaos");
}

std::uint64_t Plan::next_op() const noexcept {
  if (tl_counter.epoch != epoch_) {
    tl_counter.epoch = epoch_;
    tl_counter.ops = 0;
  }
  return tl_counter.ops++;
}

bool Plan::perturb_delivery(const char* site) {
  const int actor = tl_actor;
  const std::uint64_t seq = next_op();

  // Bounded drop-with-retry: the envelope is "lost" a deterministic number
  // of times and resent after a backoff, then goes through — the in-process
  // analogue of a reliable transport retrying over a flaky link. Realized
  // as sender-side latency plus markers, so delivery is still guaranteed
  // (no protocol can hang on a permanently lost message).
  if (config_.drop_probability > 0.0 &&
      draw(site, actor, seq, 0) < config_.drop_probability) {
    const int retries =
        1 + static_cast<int>(draw(site, actor, seq, 1) *
                             std::max(1, config_.max_redeliveries));
    record(FaultKind::Drop, actor, seq, site, retries);
    const auto backoff = static_cast<std::int64_t>(
        1 + draw(site, actor, seq, 2) * std::max(1, config_.max_delay_us));
    sleep_us(backoff * retries);
  }

  if (config_.delay_probability > 0.0 &&
      draw(site, actor, seq, 3) < config_.delay_probability) {
    const auto delay = static_cast<std::int64_t>(
        1 + draw(site, actor, seq, 4) * std::max(1, config_.max_delay_us));
    record(FaultKind::Delay, actor, seq, site, delay);
    sleep_us(delay);
  }

  if (config_.reorder_probability > 0.0 &&
      draw(site, actor, seq, 5) < config_.reorder_probability) {
    record(FaultKind::Reorder, actor, seq, site, 0);
    return true;
  }
  return false;
}

void Plan::checkpoint(const char* site) {
  const int actor = tl_actor;
  const std::uint64_t seq = next_op();

  const bool targeted =
      config_.abort_actor >= 0 && actor == config_.abort_actor &&
      seq == config_.abort_at_op;
  const bool drawn = config_.abort_probability > 0.0 &&
                     draw(site, actor, seq, 6) < config_.abort_probability;
  if (targeted || drawn) {
    record(FaultKind::Abort, actor, seq, site, 0);
    throw InjectedAbort(actor, seq, site);
  }
}

void Plan::perturb_schedule(const char* site) {
  if (config_.yield_probability <= 0.0) return;
  const int actor = tl_actor;
  const std::uint64_t seq = next_op();
  if (draw(site, actor, seq, 7) >= config_.yield_probability) return;

  // Half the injections are a pure yield, half a short sleep — both widen
  // race windows the way an oversubscribed remote VM does.
  const double spin = draw(site, actor, seq, 8);
  if (spin < 0.5) {
    record(FaultKind::Yield, actor, seq, site, 0);
    std::this_thread::yield();
  } else {
    const auto delay = static_cast<std::int64_t>(
        1 + spin * std::max(1, config_.max_delay_us));
    record(FaultKind::Yield, actor, seq, site, delay);
    sleep_us(delay);
  }
}

Config Config::noise(std::uint64_t seed) {
  Config config;
  config.seed = seed;
  config.delay_probability = 0.10;
  config.max_delay_us = 80;
  config.reorder_probability = 0.15;
  config.yield_probability = 0.05;
  return config;
}

Config Config::lossy(std::uint64_t seed) {
  Config config = noise(seed);
  config.drop_probability = 0.08;
  config.max_redeliveries = 3;
  return config;
}

Config Config::hostile(std::uint64_t seed) {
  Config config = lossy(seed);
  config.abort_probability = 0.002;
  return config;
}

Plan* current() noexcept {
  if (tl_bound != nullptr) return tl_bound;
  return g_active.load(std::memory_order_acquire);
}

Plan* bound() noexcept { return tl_bound; }

BoundScope::BoundScope(Plan& plan) noexcept : previous_(tl_bound) {
  tl_bound = &plan;
  bound_ = true;
}

BoundScope::BoundScope(Plan* plan) noexcept : previous_(tl_bound) {
  if (plan != nullptr) {
    tl_bound = plan;
    bound_ = true;
  }
}

BoundScope::~BoundScope() {
  if (bound_) tl_bound = previous_;
}

bool enabled() noexcept {
  return tl_bound != nullptr ||
         g_active.load(std::memory_order_relaxed) != nullptr;
}

int current_actor() noexcept { return tl_actor; }

ActorScope::ActorScope(int actor) noexcept
    : previous_(tl_actor),
      previous_epoch_(tl_counter.epoch),
      previous_ops_(tl_counter.ops) {
  tl_actor = actor;
  tl_counter.ops = 0;
}

ActorScope::ActorScope(int actor, Cursor& cursor) noexcept
    : ActorScope(actor) {
  tl_counter.epoch = cursor.epoch;
  tl_counter.ops = cursor.ops;
  cursor_ = &cursor;
}

ActorScope::~ActorScope() {
  if (cursor_ != nullptr) *cursor_ = Cursor{tl_counter.epoch, tl_counter.ops};
  // Restore the whole counter: a nested lane that decided on another plan
  // re-stamped the epoch, and leaving that stamp would make the outer
  // lane's next decision restart at op 0.
  tl_actor = previous_;
  tl_counter.epoch = previous_epoch_;
  tl_counter.ops = previous_ops_;
}

}  // namespace pdc::chaos
