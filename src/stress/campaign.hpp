#pragma once

/// \file campaign.hpp
/// The campaign runner and the table of named fault campaigns (DESIGN.md
/// §17).
///
/// A `Scenario` says *what* a campaign is: network, DTP and chaos
/// parameters, load, an optional time hierarchy or health watchdog, the
/// fault plan, the horizon, the sentinel and its blackout windows, and the
/// gates a run must pass. `Campaign` owns *how* it runs: it assembles those
/// pieces in the one order they can legally be built in and keeps them alive
/// for inspection after the run. `dtpsim --chaos`, the recovery benches, the
/// campaign tests and the stress fuzzer (`run_campaign`) all go through it,
/// so PASS means the same gates everywhere.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/engine.hpp"
#include "check/sentinel.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/watchdog.hpp"
#include "net/topology.hpp"
#include "obs/session.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::stress {

class Campaign;

/// One pass/fail check on a finished campaign.
struct Gate {
  std::string name;
  std::function<bool(Campaign&)> holds;
};

/// Optional observability attachment: a non-empty trace or metrics path
/// attaches an obs::Session configured with it.
using ObsOptions = obs::SessionConfig;

/// How to execute a scenario: the seed, the engine (threads > 1 shards onto
/// the parallel engine; bridged, the default, selects tick-bridging and
/// false the serial exact reference; both are bit-identical to it), and
/// observability.
struct RunOptions {
  RunOptions(std::uint64_t s = 1, unsigned t = 1, bool b = true, ObsOptions o = {})
      : seed(s), threads(t), bridged(b), obs(std::move(o)) {}
  std::uint64_t seed;
  unsigned threads;
  bool bridged;
  ObsOptions obs;
};

/// One campaign, as data. Hooks receive the campaign under assembly.
struct Scenario {
  std::string name;     ///< table key (`dtpsim --chaos=<name>`)
  std::string setting;  ///< report-header text after "on the Fig. 5 tree"
  /// dtpsim flags this campaign reads beyond the ones every campaign reads
  /// (see kCampaignFlags).
  std::vector<std::string> flags;

  net::NetworkParams net;
  dtp::DtpParams dtp;
  /// Builds the topology and returns its traffic hosts; empty = the Fig. 5
  /// tree (then `Campaign::tree()` is valid and the leaves are the hosts).
  std::function<std::vector<net::Host*>(net::Network&)> topology;
  std::function<void(Campaign&)> load;       ///< empty = idle
  std::function<void(Campaign&)> hierarchy;  ///< adds sources/clients; empty = none
  fs_t holdover_ceiling = 0;  ///< applied to every hierarchy client; 0 = default
  std::optional<dtp::WatchdogParams> watchdog;  ///< seeded from the run seed
  std::function<chaos::FaultPlan(Campaign&)> plan;  ///< empty = no faults
  fs_t horizon = 0;
  std::optional<check::SentinelParams> sentinel;  ///< nullopt = no sentinel
  std::vector<std::pair<fs_t, fs_t>> blackouts;   ///< sentinel [from, until)
  std::vector<Gate> gates;  ///< evaluated by callers after `Campaign::run()`
};

/// The dtpsim flags every named campaign reads.
inline const std::vector<std::string> kCampaignFlags = {
    "chaos", "protocol", "seed", "threads", "engine", "trace", "metrics", "metrics-interval"};

/// The two-source time hierarchy both the `source` row and hierarchy stress
/// specs run: a stratum-1 GPS source on host `gps`, a stratum-2
/// upstream-island source on host `island` (both broadcasting every 100 us),
/// and a client on every other host.
void add_two_sources(Campaign& c, std::size_t gps, std::size_t island);

/// The named campaigns, in `dtpsim --chaos` order.
const std::vector<Scenario>& scenario_table();

/// The row called `name`, or nullptr.
const Scenario* find_scenario(const std::string& name);

/// A built campaign. The constructor assembles everything in order —
/// simulator, network, DTP, load, hierarchy and watchdog, chaos engine and
/// plan, sentinel with blackouts, observability — and `run()` schedules the
/// plan, shards onto threads and runs to the horizon. Between the two,
/// callers may attach instruments of their own or add faults to `plan()`.
class Campaign {
 public:
  Campaign(Scenario scenario, const RunOptions& options);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Schedule the plan, start observability, engage threads, run to the
  /// horizon, write the observability files (std::runtime_error on failure).
  void run();

  const Scenario& scenario() const { return scenario_; }
  sim::Simulator& sim() { return sim_; }
  net::Network& net() { return net_; }
  const net::PaperTreeTopology& tree() const { return tree_; }
  const std::vector<net::Host*>& hosts() const { return hosts_; }
  dtp::DtpNetwork& dtp() { return dtp_; }
  dtp::TimeHierarchy& hierarchy() { return hierarchy_; }
  dtp::HealthWatchdog* watchdog() { return watchdog_.get(); }
  chaos::ChaosEngine& engine() { return *engine_; }
  const chaos::CampaignReport& report() const { return engine_->report(); }
  chaos::FaultPlan& plan() { return plan_; }
  check::Sentinel* sentinel() { return sentinel_.get(); }

 private:
  Scenario scenario_;
  RunOptions options_;
  sim::Simulator sim_;
  net::Network net_;
  net::PaperTreeTopology tree_;
  std::vector<net::Host*> hosts_;
  dtp::DtpNetwork dtp_;
  // Everything below holds pointers into what is above it; the obs session
  // is declared before its users so the hub outlives every holder.
  dtp::TimeHierarchy hierarchy_;
  std::unique_ptr<obs::Session> session_;
  std::unique_ptr<dtp::HealthWatchdog> watchdog_;
  std::unique_ptr<chaos::ChaosEngine> engine_;
  chaos::FaultPlan plan_;
  std::unique_ptr<check::Sentinel> sentinel_;
};

}  // namespace dtpsim::stress
