#pragma once

/// \file network.hpp
/// Convenience layer: DTP-enable an entire net::Network.
///
/// This is the "replace your switches and NICs" deployment step of Section
/// 5.3 in one call: every device in the network gets an Agent, and helper
/// queries report network-wide synchronization quality (the max pairwise
/// counter offset — the quantity the 4TD bound constrains).

#include <memory>
#include <unordered_map>
#include <vector>

#include "dtp/agent.hpp"
#include "net/topology.hpp"

namespace dtpsim::dtp {

/// Owns the agents covering one network.
class DtpNetwork {
 public:
  DtpNetwork() = default;
  DtpNetwork(DtpNetwork&&) = default;
  DtpNetwork& operator=(DtpNetwork&&) = default;

  /// The agent attached to `dev`, or nullptr.
  Agent* agent_of(const net::Device* dev) const;

  /// The parameters every agent here was built with (`enable_dtp`'s).
  const DtpParams& params() const { return params_; }

  std::size_t size() const { return agents_.size(); }
  Agent& agent(std::size_t i) { return *agents_.at(i); }
  const Agent& agent(std::size_t i) const { return *agents_.at(i); }

  /// Largest |gc_i(t) - gc_j(t)| over all agent pairs, in counter units.
  unsigned __int128 max_pairwise_offset_units(fs_t t) const;
  /// Same in fractional ticks.
  double max_pairwise_offset_ticks(fs_t t) const;

  /// True iff every port of every agent reached the SYNCED state.
  bool all_synced() const;

  /// Tear down the agent on `dev` (node crash / power-off): protocol state,
  /// timers and PHY hooks disappear; the device and its cables stay. Peers
  /// keep running — their beacons to this device go unanswered. Returns true
  /// if an agent was removed.
  bool remove_agent(const net::Device& dev);

  /// DTP-enable `dev` (again) after a crash: a fresh agent with zeroed
  /// counters and this network's parameters comes up and re-runs INIT on
  /// every up link, re-learning the network counter through BEACON-JOIN
  /// (Section 3.2). `dev` must not already have an agent.
  Agent& attach_agent(net::Device& dev);

 private:
  friend DtpNetwork enable_dtp(net::Network& net, DtpParams params);

  DtpParams params_;
  std::vector<sim::ArenaPtr<Agent>> agents_;  ///< in the simulator's arena
  std::unordered_map<const net::Device*, Agent*> by_device_;
};

/// Attach a DTP agent to every device currently in `net`. Call after the
/// topology (all cables) is built.
DtpNetwork enable_dtp(net::Network& net, DtpParams params = {});

/// Master-tree mode helper (Section 5.4): breadth-first from `root`, mark
/// each device's port toward its BFS parent as the parent port. All agents
/// must have been created with SyncMode::kMasterTree. Returns the number of
/// devices reached (the root counts).
std::size_t configure_master_tree(DtpNetwork& dtp, net::Device& root);

}  // namespace dtpsim::dtp
