#include "remote/firewall.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace pdc::remote {

Firewall::Firewall(Policy policy) : policy_(policy) {
  if (policy.max_failures < 1) {
    throw InvalidArgument("Firewall: max_failures must be >= 1");
  }
  if (policy.lockout_minutes <= 0.0) {
    throw InvalidArgument("Firewall: lockout_minutes must be positive");
  }
}

bool Firewall::record_failure(const std::string& client, double now_minutes) {
  // A lapsed block must be cleared first so the count restarts cleanly.
  (void)is_blocked(client, now_minutes);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= kMaxClients) make_room(now_minutes);
    if (clients_.size() >= kMaxClients) return false;  // all active blocks
    it = clients_.emplace(client, ClientState{}).first;
  }
  ClientState& state = it->second;
  state.last_failure = ++failure_clock_;
  ++state.failures;
  if (state.failures >= policy_.max_failures) {
    state.blocked_until = now_minutes + policy_.lockout_minutes;
    return true;
  }
  return state.blocked_until >= now_minutes;
}

void Firewall::record_success(const std::string& client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  if (it->second.blocked_until < 0.0) {
    clients_.erase(it);
  } else {
    it->second.failures = 0;  // the block deliberately remains
  }
}

void Firewall::make_room(double now_minutes) {
  const std::size_t target = kMaxClients - kMaxClients / 8;
  std::erase_if(clients_, [now_minutes](const auto& entry) {
    const double until = entry.second.blocked_until;
    return until >= 0.0 && now_minutes >= until;  // a lapsed block
  });
  if (clients_.size() <= target) return;
  // Then the unblocked clients whose last failure is oldest.
  std::vector<std::pair<std::uint64_t, std::string>> unblocked;
  for (const auto& [name, state] : clients_) {
    if (state.blocked_until < 0.0) {
      unblocked.emplace_back(state.last_failure, name);
    }
  }
  const std::size_t evict =
      std::min(unblocked.size(), clients_.size() - target);
  std::nth_element(unblocked.begin(),
                   unblocked.begin() + static_cast<std::ptrdiff_t>(evict),
                   unblocked.end());
  for (std::size_t i = 0; i < evict; ++i) clients_.erase(unblocked[i].second);
}

bool Firewall::is_blocked(const std::string& client,
                          double now_minutes) const {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  ClientState& state = it->second;
  if (state.blocked_until < 0.0) return false;
  if (now_minutes >= state.blocked_until) {
    state.blocked_until = -1.0;  // block lapsed
    state.failures = 0;
    return false;
  }
  return true;
}

void Firewall::unblock(const std::string& client) {
  const auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.blocked_until = -1.0;
    it->second.failures = 0;
  }
}

int Firewall::failures(const std::string& client) const {
  const auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.failures;
}

}  // namespace pdc::remote
