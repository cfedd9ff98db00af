#pragma once

/// \file hierarchy.hpp
/// Multi-source time hierarchy: stratum selection, falseticker quarantine,
/// and holdover (DESIGN.md §13).
///
/// §5.2 of the paper maps the internal DTP counter to UTC through *one*
/// healthy timeserver. Real deployments have several candidate roots — GPS
/// receivers, upstream DTP islands bridged over PTP/NTP segments — and any
/// of them can die, lie, or partition away. This module models that layer
/// (frequency-only references such as SyncE are not modeled):
///
///   * `UtcSourceServer` — a timeserver broadcasting hardware-stamped
///     (DTP counter, UTC) syncs that *advertise* a stratum and a claimed
///     accuracy, with chaos controls (loss of its reference, a
///     plausible-but-wrong UTC lie, stratum flaps).
///   * `HierarchyClient` — tracks every source concurrently, selects one
///     with a BMCA-lite ordering (stratum, then measured quality, then a
///     stable id tiebreak — all deterministic under the parallel engine),
///     quarantines falsetickers, and serves UTC monotonically with an
///     explicit uncertainty bound.
///   * Holdover: when every source is stale or quarantined the client
///     free-runs on the DTP counter (the "last disciplined rate" — the
///     counter keeps the island's rate), its uncertainty grows linearly
///     with a configured drift bound, and past a configurable uncertainty
///     ceiling it refuses to serve time at all rather than serve a number
///     it cannot bound.
///   * Crashes: a node crash destroys the host's DTP agent. A server on that
///     host falls silent and a client serves `kUnavailable`, both for the
///     rest of the run; neither reads the destroyed agent.
///
/// Honesty by construction: a sample is only *accepted* when its implied
/// step fits inside the served uncertainty (plus the source's claimed
/// accuracy and a margin); accepted innovations inflate the measured
/// dispersion before the fix is used, and backward raw jumps are never
/// served — the client slews (serves at a reduced minimum rate) and adds
/// the slew gap to the uncertainty it reports. The sentinel asserts both
/// properties (no backward UTC step, |served − true| ≤ uncertainty) on
/// every sample, with no fault blackouts.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtp/agent.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::dtp {

/// A sync hardware-stamped with the server's DTP counter and UTC at the
/// transmit instant (§5.2's DTP-assisted variant), plus the source's
/// advertisement (id, stratum, claimed accuracy).
struct SourceSyncPacket : net::Packet {
  std::uint32_t source_id = 0;
  int stratum = 1;
  double accuracy_ns = 0;       ///< the source's *claimed* accuracy
  double tx_dtp_counter = 0.0;  ///< server gc at hardware TX (filled at TX)
  fs_t utc_at_tx = 0;           ///< server UTC at the same instant
  /// Set with the stamp. A sync queued before its server's host crashed
  /// leaves unstamped once the link is back, and clients drop it.
  bool stamped = false;
};

/// Static description of one source.
struct TimeSourceParams {
  std::uint32_t source_id = 0;
  int stratum = 1;
  double accuracy_ns = 100.0;    ///< claimed; clients budget against this
  fs_t period = from_us(200);    ///< broadcast cadence
  double utc_error_ns = 0.0;     ///< *actual* reference noise (normal sigma)

  /// A GPS-class stratum-1 source.
  static TimeSourceParams gps(std::uint32_t id, fs_t period = from_us(200));
  /// An upstream DTP island reached over a PTP/NTP segment: one stratum
  /// worse per bridged segment, with the bridging error in the claim.
  static TimeSourceParams upstream_island(std::uint32_t id, int stratum,
                                          double accuracy_ns,
                                          fs_t period = from_us(200));
};

/// Timeserver for one source: multicasts `SourceSyncPacket`s whose counter
/// and UTC are captured at the hardware transmit instant (one-step clock),
/// plus the source's current advertisement. Chaos controls model the ways a
/// root fails: `set_down` (reference lost — broadcasts stop), `set_lie_ns`
/// (rogue grandmaster — plausible-but-wrong UTC), `set_stratum` (flapping
/// advertisement). A node crash silences it for good.
class UtcSourceServer {
 public:
  UtcSourceServer(sim::Simulator& sim, net::Host& host, Agent& agent,
                  TimeSourceParams params);

  void start() { proc_.start(); }
  void stop() { proc_.stop(); }

  // --- chaos controls -------------------------------------------------------
  /// Reference lost (GPS loss): broadcasts stop while down.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }
  /// Rogue grandmaster: every broadcast UTC is shifted by `lie_ns` (0 heals).
  void set_lie_ns(double lie_ns) { lie_ns_ = lie_ns; }
  double lie_ns() const { return lie_ns_; }
  /// Stratum flap: change the advertised stratum mid-run.
  void set_stratum(int stratum) { stratum_ = stratum; }
  int stratum() const { return stratum_; }

  const TimeSourceParams& params() const { return params_; }
  net::Host& host() { return host_; }
  const net::Host& host() const { return host_; }
  std::uint64_t broadcasts() const { return count_; }

 private:
  void fire();

  sim::Simulator& sim_;
  net::Host& host_;
  Agent& agent_;
  std::weak_ptr<const void> agent_alive_;
  TimeSourceParams params_;
  int stratum_;
  bool down_ = false;
  double lie_ns_ = 0.0;
  Rng rng_;
  std::uint64_t count_ = 0;
  sim::PeriodicProcess proc_;
};

/// Client-side knobs.
struct HierarchyParams {
  /// Refuse to serve once uncertainty exceeds this (femtoseconds of
  /// uncertainty, i.e. a duration). 0 = never refuse.
  fs_t holdover_ceiling = from_us(2);
};

/// Client view of the hierarchy's health.
enum class HierarchyStatus : std::uint8_t {
  kAcquiring,    ///< no source has ever delivered a fix
  kLocked,       ///< serving from a selected live source
  kHoldover,     ///< all sources lost; free-running with growing uncertainty
  kUnavailable,  ///< holdover past the ceiling, or the host crashed; refusing
};

/// One `serve()` result.
struct ServedTime {
  HierarchyStatus status = HierarchyStatus::kAcquiring;
  bool available = false;    ///< kLocked or kHoldover (time is being served)
  double utc = 0.0;          ///< served UTC (fs); valid iff available
  double uncertainty = 0.0;  ///< honest |served − true| bound (fs); iff available
  int source_id = -1;        ///< selected source; -1 in holdover/acquiring
  int stratum = 0;           ///< selected source's stratum (0 if none)
};

/// Per-source client state (one per source the client has heard from).
struct SourceTrack {
  std::uint32_t id = 0;
  int stratum = 1;
  double accuracy_ns = 0;

  bool have_fix = false;
  double fix_counter = 0.0;    ///< our gc at the last accepted sync
  double fix_utc = 0.0;        ///< implied UTC at that instant (fs)
  fs_t last_accept = 0;        ///< sim time of the last accepted sync
  fs_t inter_arrival = 0;      ///< gap between the last two accepted syncs
  double dispersion_ns = 0;    ///< decayed max |innovation| (measured quality)
  int strikes = 0;             ///< consecutive falseticker rejections
  fs_t quarantined_until = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
};

/// Tracks every source concurrently, selects one (BMCA-lite), and serves
/// monotone UTC with an explicit uncertainty. All mutation happens on the
/// owning host's receive path or in coordinator-context `serve()` calls, so
/// the parallel engine sees a deterministic schedule.
class HierarchyClient {
 public:
  HierarchyClient(net::Host& host, Agent& agent, HierarchyParams params = {});

  /// Selection + serving + monotonicity in one step. Mutating: the served
  /// value ratchets. Coordinator context only (sentinel sampler, probes,
  /// application readers).
  ServedTime serve(fs_t now);

  /// Last `serve()` outcome without advancing the ratchet.
  const ServedTime& last_served() const { return last_; }
  bool ever_served() const { return have_served_; }

  /// Currently selected source id as of the last evaluation; -1 = none.
  int selected_source() const { return selected_id_; }
  HierarchyStatus status() const { return last_.status; }

  const std::vector<SourceTrack>& tracks() const { return tracks_; }
  const SourceTrack* track(std::uint32_t id) const;

  std::uint64_t syncs_received() const { return syncs_; }
  std::uint64_t samples_rejected() const { return rejected_; }
  std::uint64_t selection_changes() const { return selection_changes_; }

  net::Host& host() { return host_; }
  const net::Host& host() const { return host_; }
  const HierarchyParams& params() const { return params_; }
  void set_holdover_ceiling(fs_t c) { params_.holdover_ceiling = c; }

 private:
  void handle_sync(const net::Frame& f, fs_t hw_rx);
  SourceTrack& track_for(const SourceSyncPacket& p);
  /// ns of UTC per counter unit (nominal tick / counter_delta).
  double tick_ns() const;
  /// The track's fix extrapolated along our DTP counter to `now` (fs).
  double extrapolate(const SourceTrack& t, fs_t now) const;
  /// Honest error bound (fs) of `extrapolate(t, now)`.
  double uncertainty_of(const SourceTrack& t, fs_t now) const;
  bool stale(const SourceTrack& t, fs_t now) const;
  bool usable(const SourceTrack& t, fs_t now) const;
  /// BMCA-lite: best usable track, or nullptr.
  const SourceTrack* select(fs_t now) const;
  /// Selection changes and quarantines become global trace instants when
  /// the simulator's hub traces (the sink is internally locked, safe from
  /// the receive path).
  void observe_selection(const SourceTrack* best, fs_t now);

  net::Host& host_;
  Agent& agent_;
  std::weak_ptr<const void> agent_alive_;
  HierarchyParams params_;
  std::vector<SourceTrack> tracks_;

  int selected_id_ = -1;
  int holdover_id_ = -1;  ///< track free-run follows when nothing is usable
  std::uint64_t selection_changes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t rejected_ = 0;

  bool have_served_ = false;
  double served_utc_ = 0.0;
  fs_t served_at_ = 0;
  ServedTime last_{};
};

/// Container wiring servers and clients onto a built network, with name
/// lookup for the chaos layer and pull-model metrics for obs.
class TimeHierarchy {
 public:
  TimeHierarchy() = default;
  TimeHierarchy(const TimeHierarchy&) = delete;
  TimeHierarchy& operator=(const TimeHierarchy&) = delete;

  UtcSourceServer& add_server(sim::Simulator& sim, net::Host& host, Agent& agent,
                              TimeSourceParams params);
  HierarchyClient& add_client(net::Host& host, Agent& agent,
                              HierarchyParams params = {});

  /// Start every server's broadcast process. When the simulator's hub keeps
  /// metrics, also register the per-client pull probes (served uncertainty,
  /// selected source, selection changes, status) as `hier.<host>.*`.
  void start();

  const std::vector<std::unique_ptr<UtcSourceServer>>& servers() const {
    return servers_;
  }
  const std::vector<std::unique_ptr<HierarchyClient>>& clients() const {
    return clients_;
  }

  /// Lookup by the hosting device's name (the chaos serialization key).
  UtcSourceServer* server_on(const std::string& host_name);
  HierarchyClient* client_on(const std::string& host_name);

 private:
  std::vector<std::unique_ptr<UtcSourceServer>> servers_;
  std::vector<std::unique_ptr<HierarchyClient>> clients_;
};

}  // namespace dtpsim::dtp
