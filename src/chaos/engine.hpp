#pragma once

/// \file engine.hpp
/// The chaos engine: deterministic execution of a `FaultPlan` against a
/// live DTP network.
///
/// The engine is constructed over a finished topology (`net::Network`) and
/// its DTP layer (`dtp::DtpNetwork`), whose `DtpParams` give the beacon
/// interval recovery is reported in, the Section 5.4 stall ceiling, and the
/// fresh agents a restarted node comes up with. `schedule()` translates each
/// `FaultSpec` into simulator events — unplug/replug cables, tear down and
/// re-attach agents, step oscillators, stress daemons — and attaches a
/// `RecoveryProbe` to each fault measuring time-to-reconverge against the
/// affected devices' direct neighbors. Everything runs on the simulator
/// clock from seeded RNG streams, so a campaign is exactly reproducible.
///
/// Topology primitives (`take_link_down`, `crash_node`, ...) are public so
/// tests can drive individual failures without writing a plan.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/plan.hpp"
#include "chaos/probe.hpp"
#include "chaos/report.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"

namespace dtpsim::dtp {
class Daemon;
class TimeHierarchy;
class UtcSourceServer;
}

namespace dtpsim::chaos {

/// Executes fault plans and collects recovery results.
class ChaosEngine {
 public:
  /// One cable endpoint pair, tracked across unplug/replug cycles (each
  /// replug is a new `phy::Cable` owned by the Network).
  struct Link {
    phy::PhyPort* a = nullptr;
    phy::PhyPort* b = nullptr;
    net::Device* dev_a = nullptr;
    net::Device* dev_b = nullptr;
    phy::Cable* cable = nullptr;  ///< current cable; stale while down
    bool up = true;
  };

  /// Snapshot the topology (all links must exist already; cables connected
  /// afterwards are invisible to the engine).
  ChaosEngine(net::Network& net, dtp::DtpNetwork& dtp);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Schedule every fault in the plan onto the simulator. May be called
  /// before or during a run; injection times must be in the future. Every
  /// fault is resolved before any is scheduled: a device name this network
  /// lacks, an uncabled pair, a source fault without its server, or a fault
  /// ending past the fs_t range throws std::invalid_argument.
  void schedule(const FaultPlan& plan);

  /// The link between two devices, or nullptr if they are not cabled.
  Link* link_between(const net::Device& a, const net::Device& b);

  // --- Topology primitives (also used directly by tests) -------------------
  void take_link_down(Link& link);
  void bring_link_up(Link& link);
  /// Power the node off: its agent is destroyed (timers cancelled, PHY hooks
  /// cleared) and every attached cable goes dark.
  void crash_node(net::Device& dev);
  /// Power the node back on: links re-lit, then a fresh zero-counter agent
  /// attaches and rejoins through INIT + BEACON-JOIN.
  void restart_node(net::Device& dev);

  /// True once every scheduled fault's probe has reported.
  bool all_probes_done() const;

  /// Has every live neighbor quarantined its port facing `rogue`?
  bool rogue_isolated(const net::Device& rogue) const;

  CampaignReport& report() { return report_; }
  const CampaignReport& report() const { return report_; }

  fs_t beacon_interval() const { return beacon_interval_; }
  /// Probe cadence (beacon interval / 8) and per-fault give-up (50 beacon
  /// intervals) unless a FaultSpec overrides them.
  fs_t probe_sample_period() const { return beacon_interval_ / 8; }
  fs_t probe_timeout() const { return 50 * beacon_interval_; }

  /// Attach the time hierarchy (null detaches). Required before scheduling
  /// any source-level fault (kGpsLoss, kRogueGrandmaster, kIslandPartition,
  /// kStratumFlap); those faults target servers by hosting-device name and
  /// their probes measure the hierarchy's clients.
  void set_hierarchy(dtp::TimeHierarchy* hierarchy) { hierarchy_ = hierarchy; }

 private:
  /// A fault's names resolved against this network (null where unused).
  struct Target {
    net::Device* a = nullptr;
    net::Device* b = nullptr;
    Link* link = nullptr;
    dtp::UtcSourceServer* server = nullptr;
  };
  Target resolve(const FaultSpec& spec);
  net::Device* require_device(const std::string& name) const;
  void schedule_fault(const FaultSpec& spec, const Target& t);
  /// Kick off a probe measuring `affected` devices against their neighbors.
  void start_probe(const FaultSpec& spec, ProbeResult seed,
                   std::vector<net::Device*> affected);
  void start_daemon_probe(const FaultSpec& spec, ProbeResult seed);
  ProbeResult make_seed(const FaultSpec& spec, fs_t recovery_start) const;
  /// Worst offset (ticks) between each affected device and its direct,
  /// non-quarantined neighbors. Invalid while any affected device has no
  /// agent (crashed) or no measurable neighbor.
  ProbeSample neighbor_offsets(const std::vector<net::Device*>& affected) const;
  net::Device* owner_of(const phy::PhyPort* port) const;
  dtp::PortLogic* port_logic_at(phy::PhyPort* port) const;
  /// The rogue watchers' loop (a broken oscillator, a lying grandmaster):
  /// poll `detected` every `poll`; once it holds, mark `found` and after the
  /// operator reaction delay (spec.period) run `heal`, which starts the
  /// recovery probe. At the fault's deadline a miss is recorded instead.
  struct RogueWatch;
  void watch_rogue(const FaultSpec& spec, fs_t poll, std::string found,
                   std::function<bool()> detected, std::function<void()> heal);
  void rogue_poll(const std::shared_ptr<const RogueWatch>& w);
  /// Operator remediation: clear every kFaulty port in the network except
  /// those facing the rogue device (which stays quarantined).
  void remediate_collateral(const net::Device& rogue);
  /// The hierarchy server hosted on device spec.a; throws without one.
  dtp::UtcSourceServer* require_server(const FaultSpec& spec) const;
  /// Probe over the hierarchy's clients: every client must be kLocked (and,
  /// when `exclude_source` >= 0, locked to some *other* source) with served
  /// UTC within the threshold of true time. Reported in broadcast intervals
  /// of `source_period` — the source layer's beacon.
  void start_hierarchy_probe(const FaultSpec& spec, ProbeResult seed,
                             fs_t source_period, int exclude_source);
  /// Rogue-grandmaster detection: true once no client selects `rogue_id`.
  bool rogue_gm_deselected(std::uint32_t rogue_id) const;
  /// Global trace instant at sim-now (no-op unless the simulator's hub
  /// traces). Fault begin/end and every recovery verdict are marked, and
  /// faults and recoveries feed the chaos.* metrics; all of it runs as
  /// global events on the coordinator.
  void mark(const std::string& name) const;
  /// Single funnel for probe completion: report, bookkeeping, obs emission.
  void record_result(const ProbeResult& r);

  net::Network& net_;
  dtp::DtpNetwork& dtp_;
  sim::Simulator& sim_;
  fs_t beacon_interval_ = 0;
  std::vector<Link> links_;
  std::unordered_map<const phy::PhyPort*, net::Device*> port_owner_;
  std::vector<std::unique_ptr<RecoveryProbe>> probes_;
  std::size_t faults_pending_ = 0;  ///< scheduled faults not yet reported
  CampaignReport report_;
  dtp::TimeHierarchy* hierarchy_ = nullptr;    ///< see set_hierarchy
};

}  // namespace dtpsim::chaos
