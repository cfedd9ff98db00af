#include <gtest/gtest.h>

#include <iostream>
#include <memory>

#include "check/sentinel.hpp"
#include "dtp/network.hpp"
#include "dtp/watchdog.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

/// Unit tests for the HealthWatchdog escalation ladder (DESIGN.md §15) on the
/// smallest real network — two hosts on one cable. The counter-freeze seam
/// (chaos kFrozenCounter) is the fault injector of choice here because it
/// produces exactly one deterministic strike per fully-frozen window on the
/// frozen port itself, with no RNG in the detection path. The plausibility
/// gate is opened wide so the peer's staleness signal stays out of the way:
/// each test exercises one port's ladder in isolation.

namespace dtpsim {
namespace {

using namespace dtpsim::literals;

struct PairRun {
  sim::Simulator sim;
  net::Network net;
  net::ChainTopology chain;
  dtp::DtpNetwork dtp;
  std::unique_ptr<dtp::HealthWatchdog> watchdog;

  explicit PairRun(const dtp::WatchdogParams& wp, std::uint64_t seed = 7)
      : sim(seed), net(sim), chain(net::build_chain(net, 0)) {
    dtp = dtp::enable_dtp(net, dtp::DtpParams{});
    watchdog = std::make_unique<dtp::HealthWatchdog>(net, dtp, wp, seed);
  }

  dtp::PortLogic& left_port() { return dtp.agent_of(chain.left)->port_logic(0); }

  std::size_t left_watch() const {
    const std::size_t i = watchdog->find_watch("left", 0);
    EXPECT_NE(i, static_cast<std::size_t>(-1));
    return i;
  }
};

/// Watchdog parameters that isolate the counter-advance signal: the gate is
/// effectively off, backoff is short so a test covers several ladder rungs
/// in a few milliseconds of simulated time.
dtp::WatchdogParams ladder_params() {
  dtp::WatchdogParams wp;
  wp.plausible_delta_ticks = 1.0e9;  // staleness signal out of the picture
  wp.reinit_backoff = from_us(50);
  wp.probation_windows = 4;
  return wp;
}

TEST(Watchdog, SuspectClearsAfterOneCleanWindow) {
  PairRun run(ladder_params());
  // Freeze across exactly one full 50 us check window ([3.05, 3.10] ms):
  // the partial windows on either side see the counter advance.
  run.sim.run_until(3'040 * 1_us);
  run.left_port().set_counter_frozen(true);
  run.sim.run_until(3'110 * 1_us);
  run.left_port().set_counter_frozen(false);
  run.sim.run_until(3'500 * 1_us);

  const dtp::WatchdogPortStats& ws = run.watchdog->watch_stats(run.left_watch());
  EXPECT_EQ(ws.suspects, 1u) << "one stalled window is one suspicion";
  EXPECT_EQ(ws.quarantines, 0u)
      << "a single strike must never quarantine (kSuspectStrikes = 2)";
  EXPECT_EQ(run.watchdog->watch_health(run.left_watch()),
            dtp::PortHealth::kHealthy)
      << "the next clean window must clear a suspicion";
  EXPECT_GE(ws.first_suspected_at, 3'050 * 1_us);
  EXPECT_LT(ws.first_suspected_at, 3'160 * 1_us);
}

TEST(Watchdog, LadderEscalatesMonotonicallyAndRecovers) {
  PairRun run(ladder_params());
  check::Sentinel sentinel(run.net, run.dtp);
  sentinel.set_watchdog(run.watchdog.get());
  // The victim's offset is garbage while frozen; only the ladder invariants
  // are under test here, so blanket-blackout the offset monitors.
  sentinel.add_blackout(0, 8'000 * 1_us);

  run.sim.run_until(3'000 * 1_us);
  run.left_port().set_counter_frozen(true);
  run.sim.run_until(5'000 * 1_us);  // fault persists across several re-INITs
  run.left_port().set_counter_frozen(false);
  run.sim.run_until(8'000 * 1_us);

  const std::size_t w = run.left_watch();
  const dtp::WatchdogPortStats& ws = run.watchdog->watch_stats(w);
  EXPECT_GE(ws.quarantines, 2u) << "a persistent fault must relapse";
  EXPECT_GE(ws.reinits, 2u);
  EXPECT_GT(ws.last_backoff, run.watchdog->params().reinit_backoff)
      << "relapses must double the backoff, not retry at the base delay";
  EXPECT_EQ(ws.disables, 0u) << "the fault healed before the attempt ceiling";
  EXPECT_EQ(run.watchdog->watch_health(w), dtp::PortHealth::kHealthy)
      << "a full clean probation must end the episode";
  EXPECT_EQ(ws.attempts, 0)
      << "only a completed probation resets the attempt counter";
  EXPECT_EQ(run.left_port().state(), dtp::PortState::kSynced);

  // The sentinel watched every transition live: attempts never exceeded the
  // ceiling and the backoff grew strictly monotonically within the episode.
  for (const auto& v : sentinel.violations()) std::cout << v.to_string() << "\n";
  EXPECT_TRUE(sentinel.clean());
  EXPECT_GT(sentinel.stats().watchdog_checks, 0u);
}

TEST(Watchdog, DisableIsFinalAndFilesVerdict) {
  dtp::WatchdogParams wp = ladder_params();
  wp.max_reinit_attempts = 1;
  PairRun run(wp);
  check::Sentinel sentinel(run.net, run.dtp);
  sentinel.set_watchdog(run.watchdog.get());
  sentinel.add_blackout(0, 6'000 * 1_us);

  run.sim.run_until(3'000 * 1_us);
  run.left_port().set_counter_frozen(true);  // never healed
  run.sim.run_until(6'000 * 1_us);

  const std::size_t w = run.left_watch();
  const dtp::WatchdogPortStats& ws = run.watchdog->watch_stats(w);
  EXPECT_EQ(run.watchdog->watch_health(w), dtp::PortHealth::kDisabled);
  EXPECT_EQ(ws.disables, 1u);
  EXPECT_EQ(ws.reinits, 1u)
      << "a disabled port must never be re-INITed again";
  EXPECT_EQ(run.left_port().state(), dtp::PortState::kFaulty)
      << "a disabled port stays down";

  ASSERT_EQ(run.watchdog->verdicts().size(), 1u)
      << "giving up on a port must file an operator-visible verdict";
  const dtp::WatchdogVerdict& v = run.watchdog->verdicts()[0];
  EXPECT_EQ(v.device, "left");
  EXPECT_EQ(v.port, 0u);
  EXPECT_FALSE(v.reason.empty());

  for (const auto& viol : sentinel.violations())
    std::cout << viol.to_string() << "\n";
  EXPECT_TRUE(sentinel.clean()) << "disable-finality invariant violated";
}

TEST(Watchdog, HealthyRunStaysQuiet) {
  PairRun run(dtp::WatchdogParams{});
  run.sim.run_until(5'000 * 1_us);
  EXPECT_EQ(run.watchdog->total_suspects(), 0u)
      << "suspicion on a clean two-host link is a false positive";
  EXPECT_EQ(run.watchdog->total_quarantines(), 0u);
  for (std::size_t i = 0; i < run.watchdog->watch_count(); ++i)
    EXPECT_GT(run.watchdog->watch_stats(i).windows, 0u)
        << run.watchdog->watch_label(i) << " was never evaluated";
}

}  // namespace
}  // namespace dtpsim
