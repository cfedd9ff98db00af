#include "dtp/daemon.hpp"

#include <gtest/gtest.h>

#include "dtp/external.hpp"
#include "dtp_test_util.hpp"

namespace dtpsim::dtp {
namespace {

using namespace dtpsim::literals;
using testutil::TwoNodes;

DaemonParams fast_daemon() {
  DaemonParams dp;
  dp.poll_period = from_ms(20);
  dp.sample_period = from_ms(2);
  return dp;
}

TEST(Daemon, CalibratesAfterTwoPolls) {
  TwoNodes n(91, 50.0, -50.0);
  Daemon d(n.sim, *n.agent_a, fast_daemon(), 10.0);
  d.start();
  EXPECT_FALSE(d.calibrated());
  EXPECT_THROW(d.get_dtp_counter(0), std::logic_error);
  n.sim.run_until(100_ms);
  EXPECT_TRUE(d.calibrated());
  EXPECT_GE(d.polls(), 4u);
}

TEST(Daemon, EstimateTracksCounter) {
  TwoNodes n(92, 50.0, -50.0);
  Daemon d(n.sim, *n.agent_a, fast_daemon(), 10.0);
  d.start();
  n.sim.run_until(500_ms);
  const fs_t now = n.sim.now();
  const double est = d.get_dtp_counter(now);
  const double truth = n.agent_a->global_fractional_at(now);
  EXPECT_NEAR(est, truth, 120.0) << "within ~120 ticks even at a poll boundary";
}

TEST(Daemon, RawOffsetUsuallyWithin16Ticks) {
  // Fig. 7a: offset_sw usually <= 16 ticks (~102.4 ns) with spikes.
  TwoNodes n(93, 50.0, -50.0);
  Daemon d(n.sim, *n.agent_a, fast_daemon(), 25.0);
  d.start();
  n.sim.run_until(2_sec);
  const auto& pts = d.raw_series().points();
  ASSERT_GT(pts.size(), 500u);
  std::size_t within = 0;
  for (const auto& p : pts) within += std::abs(p.value) <= 16.0;
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(pts.size()), 0.85)
      << "usually within 16 ticks";
}

TEST(Daemon, SmoothingTightensToFourTicks) {
  // Fig. 7b: window-10 moving average usually within 4 ticks.
  TwoNodes n(94, 50.0, -50.0);
  Daemon d(n.sim, *n.agent_a, fast_daemon(), 25.0);
  d.start();
  n.sim.run_until(2_sec);
  const auto& raw = d.raw_series().points();
  const auto& smooth = d.smoothed_series().points();
  ASSERT_EQ(raw.size(), smooth.size());
  std::size_t smooth_within = 0;
  for (std::size_t i = 0; i < smooth.size(); ++i)
    smooth_within += std::abs(smooth[i].value) <= 4.0;
  EXPECT_GT(static_cast<double>(smooth_within) / static_cast<double>(smooth.size()), 0.8);
  EXPECT_LE(d.smoothed_series().stats().stddev(), d.raw_series().stats().stddev())
      << "smoothing must not widen the spread";
}

TEST(Daemon, SpikesAppearInRawSeries) {
  DaemonParams dp = fast_daemon();
  dp.pcie_spike_prob = 0.3;  // force spikes
  dp.pcie_spike_mean = from_us(1);
  TwoNodes n(95, 0.0, 0.0);
  Daemon d(n.sim, *n.agent_a, dp, 0.0);
  d.start();
  n.sim.run_until(2_sec);
  EXPECT_GT(d.raw_series().stats().max_abs(), 30.0)
      << "PCIe spikes must show as large raw offsets";
}

TEST(Daemon, TimeInNsMatchesTickScale) {
  TwoNodes n(96, 0.0, 0.0);
  Daemon d(n.sim, *n.agent_a, fast_daemon(), 5.0);
  d.start();
  n.sim.run_until(1_sec);
  const double t_ns = d.get_time_ns(n.sim.now());
  // One second of 6.4 ns ticks ~ 1e9 ns on the counter.
  EXPECT_NEAR(t_ns, 1e9, 2e6);
}

TEST(Daemon, TwoDaemonsAgreeAcrossTheWire) {
  // The point of the whole system: software clocks on two hosts agree to
  // tens of ns because the hardware counters agree to 4 ticks.
  TwoNodes n(97, 100.0, -100.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 30.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), -20.0);
  da.start();
  db.start();
  n.sim.run_until(2_sec);
  SampleSeries disagreement;
  testutil::run_sampled(n.sim, 3_sec, 10_ms, [&](fs_t t) {
    disagreement.add(da.get_dtp_counter(t) - db.get_dtp_counter(t));
  });
  // End-to-end: 4TD (hardware) + 8T (two software accesses) ~ 12 ticks for
  // D = 1, *usually* (PCIe spikes break it occasionally, as in Fig. 7a).
  EXPECT_LE(disagreement.percentile(90), 12.0);
  EXPECT_GE(disagreement.percentile(10), -12.0);
  EXPECT_LE(disagreement.max_abs(), 200.0);
  EXPECT_LE(std::abs(disagreement.mean()), 10.0);
}

TEST(ExternalSync, ClientLearnsUtc) {
  TwoNodes n(98, 50.0, -50.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 10.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), -10.0);
  da.start();
  db.start();
  UtcBroadcaster bc(n.sim, *n.a, da, from_ms(200));
  UtcClient client(*n.b, db);
  bc.start();
  n.sim.run_until(3_sec);
  ASSERT_TRUE(client.ready());
  EXPECT_GT(client.pairs_received(), 5u);
  const fs_t now = n.sim.now();
  const double err_ns = (client.utc_at(now) - static_cast<double>(now)) /
                        static_cast<double>(kFsPerNs);
  EXPECT_LT(std::abs(err_ns), 1'000.0) << "UTC estimate within a microsecond";
}

TEST(ExternalSync, ErrorSeriesStaysSmall) {
  TwoNodes n(99, 50.0, -50.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 10.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), -10.0);
  da.start();
  db.start();
  UtcBroadcaster bc(n.sim, *n.a, da, from_ms(200));
  UtcClient client(*n.b, db);
  bc.start();
  n.sim.run_until(5_sec);
  ASSERT_GT(client.error_series().points().size(), 10u);
  // Skip the first ratio estimates; steady state should be sub-us.
  const auto& pts = client.error_series().points();
  double worst = 0;
  for (std::size_t i = pts.size() / 2; i < pts.size(); ++i)
    worst = std::max(worst, std::abs(pts[i].value));
  EXPECT_LT(worst, 1'000.0) << "ns-scale UTC agreement in steady state";
}

TEST(ExternalSync, ServerUtcErrorPropagates) {
  // A GPS-grade server error (~100 ns) bounds what clients can achieve.
  TwoNodes n(100, 0.0, 0.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 0.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), 0.0);
  da.start();
  db.start();
  UtcBroadcaster bc(n.sim, *n.a, da, from_ms(200), /*utc_error_ns=*/100.0);
  UtcClient client(*n.b, db);
  bc.start();
  n.sim.run_until(5_sec);
  ASSERT_TRUE(client.ready());
  const auto& pts = client.error_series().points();
  StreamingStats tail;
  for (std::size_t i = pts.size() / 2; i < pts.size(); ++i) tail.add(pts[i].value);
  EXPECT_GT(tail.stddev(), 1.0) << "server noise must be visible";
  EXPECT_LT(tail.max_abs(), 5'000.0);
}

TEST(ExternalSync, DeadBroadcasterMakesTheClientStale) {
  // utc_at() extrapolates on the last ratio forever, so a dead broadcaster
  // must surface through stale()/age(), not through an estimate that keeps
  // looking authoritative.
  TwoNodes n(101, 25.0, -25.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 25.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), 25.0);
  da.start();
  db.start();
  n.sim.run_until(200_ms);
  UtcBroadcaster bc(n.sim, *n.a, da, from_ms(100));
  UtcClient client(*n.b, db);
  bc.start();
  n.sim.run_until(n.sim.now() + 1_sec);
  ASSERT_TRUE(client.ready());
  EXPECT_FALSE(client.stale(n.sim.now())) << "live broadcasts flagged stale";

  bc.stop();
  const fs_t died_at = n.sim.now();
  n.sim.run_until(n.sim.now() + 2_sec);
  EXPECT_NO_THROW(client.utc_at(n.sim.now()));  // still extrapolates...
  EXPECT_TRUE(client.stale(n.sim.now())) << "...but must read as degraded";
  EXPECT_GE(client.age(n.sim.now()), n.sim.now() - died_at - from_ms(100));
}

TEST(ExternalSync, ExplicitStalenessLimitOverridesTheMeasuredGap) {
  TwoNodes n(102, 25.0, -25.0);
  Daemon da(n.sim, *n.agent_a, fast_daemon(), 25.0);
  Daemon db(n.sim, *n.agent_b, fast_daemon(), 25.0);
  da.start();
  db.start();
  n.sim.run_until(200_ms);
  UtcBroadcaster bc(n.sim, *n.a, da, from_ms(100));
  UtcClient client(*n.b, db);
  bc.start();
  n.sim.run_until(n.sim.now() + 1_sec);
  ASSERT_TRUE(client.ready());
  // A 50 ms application limit on a 100 ms cadence: a read taken 94-95 ms
  // after the last pair is already too old for this consumer.
  client.set_staleness_after(from_ms(50));
  const std::uint64_t pairs = client.pairs_received();
  while (client.pairs_received() == pairs) n.sim.run_until(n.sim.now() + 1_ms);
  n.sim.run_until(n.sim.now() + 94_ms);
  EXPECT_TRUE(client.stale(n.sim.now()));
  client.set_staleness_after(0);  // back to 3x the measured gap
  EXPECT_FALSE(client.stale(n.sim.now()));
}

// ---------------------------------------------------------------------------
// Clock-reading bugfix regressions (PR 10)
// ---------------------------------------------------------------------------

TEST(Daemon, RttFilterRelearnsAfterLatencyRegimeChange) {
  // Regression: best_rtt_ used to ratchet down forever, so any *permanent*
  // increase in PCIe latency (firmware update, bus renegotiation) made every
  // subsequent poll look like an outlier and the clock never re-anchored.
  // With a windowed minimum the filter must re-learn the new floor after
  // rtt_window_polls polls and resume accepting.
  TwoNodes n(201, 50.0, -50.0);
  DaemonParams dp;
  dp.poll_period = from_ms(1);
  dp.sample_period = 0;
  dp.rtt_window_polls = 16;
  Daemon d(n.sim, *n.agent_a, dp, 10.0);
  d.start();
  n.sim.run_until(50_ms);
  ASSERT_TRUE(d.calibrated());
  ASSERT_FALSE(d.stale(n.sim.now()));

  // A step change, not a storm: +600 ns on every MMIO leg, forever.
  d.set_pcie_stress(from_ns(600), 0.0, 0);
  n.sim.run_until(n.sim.now() + 100_ms);

  // The window has long since cycled: polls are being accepted again under
  // the new latency floor, and accuracy is back (the extra latency is
  // symmetric across the request/response legs, so the midpoint is honest).
  const fs_t now = n.sim.now();
  EXPECT_FALSE(d.stale(now)) << "filter never re-learned the new RTT floor";
  EXPECT_LE(d.anchor_age(now), 3 * dp.poll_period)
      << "polls are still being rejected against the stale pre-change floor";
  EXPECT_LT(d.current_error_ticks(now), 120.0);
}

TEST(Daemon, AnchorGoesStaleWithoutAcceptedPolls) {
  // Regression: get_dtp_counter() used to extrapolate from the last anchor
  // without bound — a daemon whose polls all failed would serve confidently
  // wrong time forever. The anchor-age cap must flag the clock (and its
  // page) stale while still serving, and a restart must bump the epoch.
  TwoNodes n(202, 50.0, -50.0);
  DaemonParams dp;
  dp.poll_period = from_ms(1);
  dp.sample_period = 0;
  dp.max_anchor_age = from_ms(4);
  Daemon d(n.sim, *n.agent_a, dp, 10.0);

  // Before any poll there is no anchor at all.
  EXPECT_EQ(d.anchor_age(n.sim.now()), -1);
  EXPECT_TRUE(d.stale(n.sim.now()));

  d.start();
  n.sim.run_until(20_ms);
  ASSERT_TRUE(d.calibrated());
  EXPECT_FALSE(d.stale(n.sim.now()));
  const TimebaseSample fresh = d.timebase_sample(n.sim.now());
  ASSERT_TRUE(fresh.valid);
  EXPECT_FALSE(fresh.stale);

  // Stop polling entirely; the anchor ages past the cap.
  d.stop();
  n.sim.run_until(n.sim.now() + 20_ms);
  const fs_t now = n.sim.now();
  EXPECT_GT(d.anchor_age(now), dp.max_anchor_age);
  EXPECT_TRUE(d.stale(now));
  EXPECT_NO_THROW(d.get_dtp_counter(now)) << "a stale clock still serves";
  const TimebaseSample old = d.timebase_sample(now);
  EXPECT_TRUE(old.valid);
  EXPECT_TRUE(old.stale) << "staleness must reach page readers";
  EXPECT_GT(old.uncertainty_units, fresh.uncertainty_units)
      << "the claimed bound must grow while coasting";

  // Restart: fresh polls clear the flag and the epoch moves so readers can
  // tell a recovery from a continuously serving daemon.
  d.start();
  n.sim.run_until(n.sim.now() + 10_ms);
  const TimebaseSample back = d.timebase_sample(n.sim.now());
  EXPECT_FALSE(d.stale(n.sim.now()));
  EXPECT_FALSE(back.stale);
  EXPECT_EQ(back.epoch, fresh.epoch + 1);
}

TEST(Daemon, SplitCounterKeepsTickPrecisionPastDoubleCliff) {
  // Regression: the double returned by get_dtp_counter() quantizes to
  // 256-unit steps once the network counter passes 2^60 (a few months of
  // uptime at 156.25 MHz). The split API must keep integer-unit accuracy.
  TwoNodes n(203, 50.0, -50.0);
  n.sim.run_until(2_ms);
  n.agent_a->force_global(n.sim.now(), WideCounter(std::uint64_t{1} << 60));
  n.agent_a->port_logic(0).send_join();
  n.sim.run_until(4_ms);

  DaemonParams dp;
  dp.poll_period = from_ms(1);
  dp.sample_period = 0;
  Daemon d(n.sim, *n.agent_a, dp, 10.0);
  d.start();
  n.sim.run_until(200_ms);
  ASSERT_TRUE(d.calibrated());

  const fs_t now = n.sim.now();
  const CounterReading r = d.get_dtp_counter_split(now);
  EXPECT_GT(r.units, std::int64_t{1} << 60);
  EXPECT_GE(r.frac, 0.0);
  EXPECT_LT(r.frac, 1.0);
  // Exact integer differencing against the hardware counter: still within
  // the normal poll-boundary envelope, far below the 256-unit double ulp.
  EXPECT_LT(d.current_error_ticks(now), 120.0);
  // And the double view is indeed the lossy one at this magnitude.
  const double dbl = d.get_dtp_counter(now);
  EXPECT_EQ(dbl, dbl + 1.0) << "double view must be quantized here";
}

}  // namespace
}  // namespace dtpsim::dtp
