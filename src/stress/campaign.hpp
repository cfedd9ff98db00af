#pragma once

/// \file campaign.hpp
/// The campaign runner and the table of named fault campaigns (DESIGN.md
/// §17).
///
/// A `Scenario` says *what* a campaign is: network and protocol parameters,
/// load, the time services on the hosts (PTP, NTP or the app harness), an
/// optional time hierarchy or health watchdog, the fault plan, the horizon,
/// the sentinel and its blackout windows, and the gates a run must pass.
/// `Campaign` owns *how* it runs: it assembles those pieces in the one order
/// they can legally be built in and keeps them alive for inspection after
/// the run. Every dtpsim mode, the Fig. 5 bench testbeds, the recovery
/// benches, the campaign tests and the stress fuzzer (`run_campaign`) all
/// go through it, so PASS means the same gates everywhere.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/harness.hpp"
#include "chaos/engine.hpp"
#include "check/sentinel.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/watchdog.hpp"
#include "net/topology.hpp"
#include "ntp/ntp.hpp"
#include "obs/session.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"
#include "ptp/transparent.hpp"
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

/// PTP as the paper's testbed runs it (§6.1): a grandmaster on the first
/// host, a transparent clock in every switch, a client on every other host.
struct PtpSetup {
  ptp::GrandmasterParams grandmaster;
  ptp::PtpClientParams client;
};

/// One campaign, as data. Hooks receive the campaign under assembly.
struct Scenario {
  std::string name;     ///< table key (`dtpsim --chaos=<name>`) or protocol/app name
  std::string setting;  ///< report-header text after "on the Fig. 5 tree"
  std::vector<std::string> flags;  ///< every dtpsim flag this row reads

  net::NetworkParams net;
  /// nullopt runs no DTP (the PTP and NTP rows). A kMasterTree mode roots
  /// the master tree at the first device the topology builds: S0, the
  /// star's hub, the chain's left host, the fat-tree's first core switch.
  std::optional<dtp::DtpParams> dtp = dtp::DtpParams{};
  /// Builds the topology and returns its traffic hosts; empty = the Fig. 5
  /// tree (then `Campaign::tree()` is valid and the leaves are the hosts).
  std::function<std::vector<net::Host*>(net::Network&)> topology;
  std::function<void(Campaign&)> load;       ///< empty = idle
  // Time services, built after the load. PTP and NTP start when built,
  // before the obs session starts; the app harness in `Campaign::start()`.
  std::optional<PtpSetup> ptp;  ///< empty = no PTP
  std::optional<ntp::NtpClientParams> ntp;  ///< server on the first host; empty = none
  /// The app harness over every host, its pages watched by the sentinel.
  std::function<apps::AppHarnessParams(Campaign&)> apps;
  std::function<void(Campaign&)> hierarchy;  ///< adds sources/clients; empty = none
  fs_t holdover_ceiling = 0;  ///< applied to every hierarchy client; 0 = default
  std::optional<dtp::WatchdogParams> watchdog;  ///< seeded from the run seed
  std::function<chaos::FaultPlan(Campaign&)> plan;  ///< empty = no faults
  fs_t horizon = 0;
  std::optional<check::SentinelParams> sentinel;  ///< nullopt = no sentinel
  std::vector<std::pair<fs_t, fs_t>> blackouts;   ///< sentinel [from, until)
  std::vector<Gate> gates;  ///< evaluated by callers after `Campaign::run()`
};

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
/// simulator, network, DTP, observability, load, time services, hierarchy
/// and watchdog, chaos engine and plan, sentinel with blackouts — and
/// `run()` starts it, runs to the horizon and finishes it. Before `run()`
/// (or `start()`), callers may attach instruments of their own or add
/// faults to `plan()`.
class Campaign {
 public:
  Campaign(Scenario scenario, const RunOptions& options);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// `start()`, run to the horizon, `finish()`.
  void run();
  /// Schedule the plan, start observability and the app harness, and shard
  /// onto threads: everything before the clock moves. A caller that drives
  /// the clock itself (a settle phase, load started mid-run, sampling)
  /// calls this, runs `sim()`, then `finish()`.
  void start();
  /// Write the observability files (std::runtime_error on failure).
  void finish();

  const Scenario& scenario() const { return scenario_; }
  sim::Simulator& sim() { return sim_; }
  net::Network& net() { return net_; }
  const net::PaperTreeTopology& tree() const { return tree_; }
  const std::vector<net::Host*>& hosts() const { return hosts_; }
  dtp::DtpNetwork& dtp() { return dtp_; }
  ptp::Grandmaster* grandmaster() { return grandmaster_.get(); }
  const std::vector<std::unique_ptr<ptp::PtpClient>>& ptp_clients() { return ptp_clients_; }
  const std::vector<std::unique_ptr<ntp::NtpClient>>& ntp_clients() { return ntp_clients_; }
  apps::AppHarness* apps() { return apps_.get(); }
  dtp::TimeHierarchy& hierarchy() { return hierarchy_; }
  dtp::HealthWatchdog* watchdog() { return watchdog_.get(); }
  /// The chaos engine exists only when the scenario has a plan.
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
  std::unique_ptr<obs::Session> session_;
  // Everything below holds pointers into what is above it; the time
  // services are declared before the sentinel that watches their pages.
  std::unique_ptr<ptp::Grandmaster> grandmaster_;
  std::vector<std::unique_ptr<ptp::TransparentClockAdapter>> transparent_clocks_;
  std::vector<std::unique_ptr<ptp::PtpClient>> ptp_clients_;
  std::unique_ptr<ntp::NtpServer> ntp_server_;
  std::vector<std::unique_ptr<ntp::NtpClient>> ntp_clients_;
  std::unique_ptr<apps::AppHarness> apps_;
  dtp::TimeHierarchy hierarchy_;
  std::unique_ptr<dtp::HealthWatchdog> watchdog_;
  std::unique_ptr<chaos::ChaosEngine> engine_;
  chaos::FaultPlan plan_;
  std::unique_ptr<check::Sentinel> sentinel_;
};

}  // namespace dtpsim::stress
