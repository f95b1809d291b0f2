#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace pdc::remote {

/// Fail2ban-style connection firewall: repeated authentication failures
/// from one client temporarily block that client.
///
/// This is the mechanism behind Section IV-B's incident: "eager beaver"
/// participants raced ahead of the instructions, tried to log in to the St.
/// Olaf VM incorrectly, and triggered "a VNC-firewall issue that
/// temporarily suspended their remote access via VNC" — while SSH (a
/// separate, unfirewalled gateway) kept working.
class Firewall {
 public:
  /// Most clients the table tracks. Failures arrive before authentication,
  /// so a flood of bad tokens under ever-new names must not grow it: making
  /// room evicts lapsed blocks first, then the clients whose last failure
  /// is oldest, and never an active block. A new name that finds the table
  /// full of active blocks goes untracked.
  static constexpr std::size_t kMaxClients = 4096;

  struct Policy {
    int max_failures = 3;          ///< failures before the client is blocked
    double lockout_minutes = 30.0; ///< how long a block lasts
  };

  explicit Firewall(Policy policy);

  /// Record one failed authentication from `client` at time `now_minutes`.
  /// Returns true if the client is now blocked.
  bool record_failure(const std::string& client, double now_minutes);

  /// Record a successful authentication: forgets the failure counter
  /// (an existing active block is NOT lifted — the learner's correct
  /// password no longer helps, which is what made the incident confusing).
  void record_success(const std::string& client);

  /// Whether `client` is blocked at time `now_minutes`. A lapsed block is
  /// forgotten (and the failure count reset).
  [[nodiscard]] bool is_blocked(const std::string& client,
                                double now_minutes) const;

  /// Administrative unblock (what the workshop staff did live).
  void unblock(const std::string& client);

  /// Consecutive failures currently recorded for `client`.
  [[nodiscard]] int failures(const std::string& client) const;

  /// Clients the table holds now (at most kMaxClients).
  [[nodiscard]] std::size_t tracked() const noexcept { return clients_.size(); }

  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }

 private:
  struct ClientState {
    int failures = 0;
    double blocked_until = -1.0;  ///< minute the block lapses; < 0 = none
    std::uint64_t last_failure = 0;  ///< failure_clock_ at the latest one
  };

  /// Bring the table to 7/8 of kMaxClients where evictable entries allow,
  /// so a flood pays one sweep per kMaxClients/8 new names.
  void make_room(double now_minutes);

  Policy policy_;
  mutable std::map<std::string, ClientState> clients_;
  std::uint64_t failure_clock_ = 0;
};

}  // namespace pdc::remote
