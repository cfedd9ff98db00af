#pragma once

/// \file tdma.hpp
/// TDMA slot scheduling over the timebase page (DESIGN.md §16).
///
/// The paper's fine-grained scheduling application: N senders share a
/// repeating schedule of `slot`-long windows on the synchronized timeline —
/// sender i owns slot i of every round — and each transmits one frame per
/// round, aimed just inside its window. Each window is shrunk by a `guard`
/// band on both sides; a frame whose *hardware TX instant* falls outside
/// the guarded window is a counted application failure (in deployment it
/// would collide with the neighboring slot).
///
/// The sender *aims* with its timebase page (software time service) but the
/// verdict is measured against the host's own hardware counter at the TX
/// instant — the NIC's view of network time. The gap between the two is
/// exactly the serving layer's error, so a daemon whose page goes wrong by
/// more than the guard band (a stale page free-running through a network
/// rate change, say) produces counted misses, while the page's stale flag
/// tells the app it *could have known* — both numbers reach the campaign
/// verdict.

#include <cstdint>
#include <vector>

#include "apps/service.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::apps {

struct TdmaSlotPacket : net::Packet {
  std::uint32_t schedule_id = 0;
  std::uint32_t sender = 0;
  std::uint64_t round = 0;
};

/// Slot length in counter units (3.2 us at 10G), and the guard band on each
/// side of it (0.8 us).
inline constexpr std::int64_t kTdmaSlotUnits = 500;
inline constexpr std::int64_t kTdmaGuardUnits = 125;

/// Per-sender counters; each is written only from its host's shard.
struct TdmaSenderStats {
  std::uint64_t sends = 0;
  std::uint64_t misses = 0;       ///< hardware TX outside the guarded window
  std::uint64_t stale_fires = 0;  ///< fired on a stale page (detected hazard)
  std::uint64_t unc_warnings = 0; ///< page uncertainty exceeded the guard
  double worst_miss_ns = 0.0;     ///< worst excursion past a guard edge

  bool operator==(const TdmaSenderStats&) const = default;
};

class TdmaApp {
 public:
  TdmaApp(sim::Simulator& sim, std::vector<TimeService> senders);

  TdmaApp(const TdmaApp&) = delete;
  TdmaApp& operator=(const TdmaApp&) = delete;

  /// Arm every sender's scheduling loop at simulated time `at`.
  void start(fs_t at);
  void stop();

  std::size_t size() const { return senders_.size(); }
  const TdmaSenderStats& sender_stats(std::size_t i) const { return stats_.at(i); }
  /// Sum over senders (call after the run).
  TdmaSenderStats total() const;

 private:
  void arm(std::size_t me);
  void fire(std::size_t me);
  void on_transmit(std::size_t me, fs_t tx_start);

  sim::Simulator& sim_;
  std::vector<TimeService> senders_;
  std::vector<TdmaSenderStats> stats_;
  std::vector<std::uint64_t> rounds_;  ///< per-sender round counter (own shard)
  std::int64_t round_units_ = 0;
  double ns_per_unit_ = 1.0;
  bool running_ = false;
};

}  // namespace dtpsim::apps
