#include <gtest/gtest.h>

#include <iostream>

#include "chaos/campaign.hpp"
#include "stress/campaign.hpp"

/// The named fault campaigns (stress/campaign.hpp) on the paper's Fig. 5
/// tree, built through the same runner and gated by the same table rows as
/// `dtpsim --chaos` and the recovery benches. Each row's gate list is the
/// acceptance story: every loud fault class except the rogue oscillator
/// reconverges within two beacon intervals, the rogue is quarantined by its
/// direct neighbor and the healthy remainder reconverges; sources fail over,
/// lies are rejected and holdover stays honest; gray faults are detected and
/// remediated by the watchdog ladder.

namespace dtpsim {
namespace {

using namespace dtpsim::literals;

stress::Scenario row(const char* name) { return *stress::find_scenario(name); }

/// Every gate of the campaign's row held; on failure, dump the report and
/// any sentinel violations for the postmortem.
void expect_gates(stress::Campaign& c) {
  for (const stress::Gate& g : c.scenario().gates) EXPECT_TRUE(g.holds(c)) << g.name;
  if (!::testing::Test::HasFailure()) return;
  c.report().print(std::cerr);
  if (const check::Sentinel* sentinel = c.sentinel())
    for (const auto& v : sentinel->violations()) std::cerr << "  !! " << v.to_string() << "\n";
}

TEST(ChaosCampaign, CanonicalCampaignRecoversWithinTwoBeacons) {
  stress::Campaign c(row("canonical"), {77});
  c.run();
  ASSERT_TRUE(c.engine().all_probes_done()) << "a probe never reported";
  expect_gates(c);

  if (HasFailure()) {  // per-port state for the postmortem
    for (std::size_t i = 0; i < c.dtp().size(); ++i) {
      dtp::Agent& a = c.dtp().agent(i);
      std::cerr << a.device().name() << ":";
      for (std::size_t p = 0; p < a.port_count(); ++p) {
        const dtp::PortLogic& pl = a.port_logic(p);
        std::cerr << "  [" << p << "] " << dtp::to_string(pl.state())
                  << " rx=" << pl.stats().beacons_received
                  << " filt=" << pl.stats().filtered_range
                  << " joins=" << pl.stats().joins_received << "/"
                  << pl.stats().joins_sent;
      }
      std::cerr << "\n";
    }
  }
}

TEST(ChaosCampaign, CampaignIsDeterministic) {
  // Same seed, same plan — byte-identical recovery numbers. Chaos results
  // are only debuggable if a failing campaign can be replayed exactly.
  auto reconverge_times = [](std::uint64_t seed) {
    stress::Scenario s = row("canonical");
    const fs_t t0 = chaos::CanonicalCampaign::settle_time();
    // A two-fault sub-plan keeps the runtime modest.
    s.plan = [t0](stress::Campaign& c) {
      chaos::FaultPlan plan;
      plan.add(chaos::FaultSpec::link_flap(*c.tree().leaves[0], *c.tree().aggs[0], t0, 50_us))
          .add(chaos::FaultSpec::node_crash(*c.tree().leaves[4], t0 + 1_ms, 400_us));
      return plan;
    };
    s.horizon = t0 + 3_ms;
    stress::Campaign c(s, {seed});
    c.run();
    std::vector<double> out;
    for (const auto& r : c.report().results()) out.push_back(r.reconverge_beacons);
    return out;
  };
  EXPECT_EQ(reconverge_times(99), reconverge_times(99));
}

TEST(ChaosCampaign, SourceCampaignGates) {
  // GPS loss, rogue grandmaster, island partition (holdover), stratum flap,
  // with the sentinel's UTC invariants armed throughout: a backward served
  // step or an understated uncertainty is never legal, fault or not.
  stress::Campaign c(row("source"), {77});
  c.run();
  ASSERT_TRUE(c.engine().all_probes_done()) << "a source-fault probe never reported";
  expect_gates(c);
}

TEST(ChaosCampaign, CrashedHierarchyHostsStopForTheRestOfTheRun) {
  // A node crash destroys the host's DTP agent, and the hierarchy objects
  // on it must never read that agent again. The island server (leaf 3)
  // falls silent and the client on leaf 4 refuses to serve, while down and
  // after the restart; the other clients stay locked to the GPS source.
  stress::Campaign c(row("source"), {77});
  const fs_t at = chaos::CanonicalCampaign::settle_time() + 13_ms;  // after the row's faults
  net::Host& island = *c.tree().leaves[3];
  net::Host& victim_host = *c.tree().leaves[4];
  c.plan()
      .add(chaos::FaultSpec::node_crash(island, at, 400_us))
      .add(chaos::FaultSpec::node_crash(victim_host, at, 400_us));
  const dtp::UtcSourceServer& server = *c.hierarchy().server_on(island.name());
  dtp::HierarchyClient& victim = *c.hierarchy().client_on(victim_host.name());

  std::uint64_t broadcasts_while_down = 0;
  dtp::ServedTime served_while_down;
  c.sim().schedule_at(at + 200_us, [&] {
    broadcasts_while_down = server.broadcasts();
    served_while_down = victim.serve(c.sim().now());
  });
  c.run();

  EXPECT_EQ(served_while_down.status, dtp::HierarchyStatus::kUnavailable);
  EXPECT_EQ(victim.status(), dtp::HierarchyStatus::kUnavailable);
  EXPECT_FALSE(victim.last_served().available);
  EXPECT_EQ(server.broadcasts(), broadcasts_while_down) << "a crashed server broadcast";
  for (const auto& client : c.hierarchy().clients()) {
    if (client.get() == &victim) continue;
    EXPECT_EQ(client->status(), dtp::HierarchyStatus::kLocked) << client->host().name();
  }
}

/// Bit-identical serial vs 2 vs 4 worker threads: the sentinel digest, the
/// recovery numbers, and a per-row set of raw counters.
struct Fingerprint {
  std::string digest;
  std::vector<double> reconverge;
  std::vector<std::uint64_t> counters;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const char* name, unsigned threads) {
  stress::Campaign c(row(name), {321, threads});
  c.run();
  Fingerprint fp;
  fp.digest = c.sentinel()->digest().hex();
  for (const auto& r : c.report().results()) fp.reconverge.push_back(r.reconverge_beacons);
  for (const auto& client : c.hierarchy().clients()) {
    fp.counters.push_back(client->syncs_received());
    fp.counters.push_back(client->samples_rejected());
    fp.counters.push_back(client->selection_changes());
  }
  if (const dtp::HealthWatchdog* wd = c.watchdog()) {
    for (std::size_t i = 0; i < wd->watch_count(); ++i) {
      const dtp::WatchdogPortStats& ws = wd->watch_stats(i);
      fp.counters.push_back(ws.strikes);
      fp.counters.push_back(ws.quarantines);
      fp.counters.push_back(ws.reinits);
      fp.counters.push_back(static_cast<std::uint64_t>(ws.last_backoff));
    }
  }
  return fp;
}

TEST(ChaosCampaign, SourceCampaignDeterministicAcrossThreads) {
  // Selection churn, quarantine, holdover and reconvergence: the sentinel
  // digest folds every served sample, and the per-client counters are
  // compared raw.
  const Fingerprint serial = fingerprint("source", 1);
  EXPECT_EQ(serial, fingerprint("source", 2)) << "2-thread run diverged from serial";
  EXPECT_EQ(serial, fingerprint("source", 4)) << "4-thread run diverged from serial";
}

TEST(ChaosCampaign, GrayCampaignDetectsAndRemediatesAllClasses) {
  // Asymmetric delay, limping port, silent corruption, frozen counter:
  // partial faults the loud detectors cannot see, detected and remediated
  // by the per-port HealthWatchdog's escalation ladder (DESIGN.md §15).
  stress::Campaign c(row("gray"), {77});
  c.run();
  ASSERT_TRUE(c.engine().all_probes_done()) << "a gray-fault probe never reported";
  expect_gates(c);
}

TEST(ChaosCampaign, GrayCampaignDeterministicAcrossThreads) {
  // Detection, quarantine, backoff jitter, re-INIT and probation: the
  // sentinel digest folds the per-port ladder counters, and the per-watch
  // stats are compared raw.
  const Fingerprint serial = fingerprint("gray", 1);
  EXPECT_EQ(serial, fingerprint("gray", 2)) << "2-thread gray run diverged from serial";
  EXPECT_EQ(serial, fingerprint("gray", 4)) << "4-thread gray run diverged from serial";
}

TEST(ChaosCampaign, ProbeExcludesWatchdogQuarantinedPorts) {
  // Regression pin: a watchdog-quarantined port must not count as a neighbor
  // relation in the recovery probe's measurement. A frozen counter gets both
  // sides of the leaf6-S3 link quarantined; with the re-INIT backoff pushed
  // far past the horizon they stay kFaulty for the whole probe window. The
  // probe must still converge — S3's healthy ports are the measurable
  // remainder — exactly like rogue isolation, where the quarantined
  // divergence is the *correct* outcome, not a recovery failure.
  stress::Scenario s = row("gray");
  s.watchdog->reinit_backoff = 50_ms;
  s.sentinel.reset();
  const fs_t t0 = chaos::CanonicalCampaign::settle_time();
  s.plan = [t0](stress::Campaign& c) {
    chaos::FaultPlan plan;
    plan.add(chaos::FaultSpec::frozen_counter(*c.tree().leaves[6], *c.tree().aggs[2], t0,
                                              2_ms));
    plan.faults.back().probe_timeout = 5_ms;
    return plan;
  };
  s.horizon = t0 + 8_ms;
  stress::Campaign c(s, {77});
  c.run();
  ASSERT_TRUE(c.engine().all_probes_done());

  // Both victim ports were quarantined and are still parked there.
  EXPECT_GE(c.watchdog()->total_quarantines(), 2u);
  dtp::Agent* leaf = c.dtp().agent_of(c.tree().leaves[6]);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->port_logic(0).state(), dtp::PortState::kFaulty)
      << "the frozen leaf's port should still be quarantined";
  EXPECT_EQ(c.watchdog()->total_reinits(), 0u) << "backoff should outlast the run";

  // The probe converged on the healthy remainder despite the live quarantine.
  const chaos::ClassSummary sum = c.report().summary("frozen_counter");
  EXPECT_EQ(sum.n, 1);
  EXPECT_EQ(sum.converged, 1)
      << "quarantined ports leaked into the probe's neighbor measurement";
}

}  // namespace
}  // namespace dtpsim
