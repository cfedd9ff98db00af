#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"
#include "ptp/servo.hpp"
#include "ptp/transparent.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::ptp {
namespace {

using namespace dtpsim::literals;

TEST(HardwareClockTest, FreeRunningFollowsOscillatorError) {
  phy::Oscillator osc(6'400'000, 100.0);  // +100 ppm fast
  HardwareClock clock(osc);
  // After 1 simulated second the clock should read ~1 s + 100 us.
  const double t_ns = clock.time_ns_at(from_sec(1));
  EXPECT_NEAR(t_ns, 1e9 + 1e5, 100.0);
}

TEST(HardwareClockTest, FreqAdjustCancelsOscillatorError) {
  phy::Oscillator osc(6'400'000, 100.0);
  HardwareClock clock(osc);
  clock.adj_freq(0, -99'990);  // -100 ppm (ppb), the servo's job
  const double t_ns = clock.time_ns_at(from_sec(1));
  EXPECT_NEAR(t_ns, 1e9, 1000.0);
}

TEST(HardwareClockTest, StepShiftsReading) {
  phy::Oscillator osc(6'400'000);
  HardwareClock clock(osc);
  clock.step(from_us(1), 500.0);
  EXPECT_NEAR(clock.time_ns_at(from_us(2)), 2000.0 + 500.0, 7.0);
}

TEST(HardwareClockTest, TimestampQuantized) {
  phy::Oscillator osc(6'400'000);
  HardwareClock clock(osc, from_ns(8));
  const double ts = clock.timestamp_ns(from_ns(100));
  EXPECT_EQ(ts, 96.0);  // floor(100/8)*8
}

TEST(HardwareClockTest, IdealClockIsTruth) {
  phy::Oscillator osc(6'400'000, 100.0);
  HardwareClock clock(osc, from_ns(8), /*ideal=*/true);
  EXPECT_DOUBLE_EQ(clock.time_ns_at(from_sec(1)), 1e9);
  clock.step(0, 1e9);  // ignored
  EXPECT_DOUBLE_EQ(clock.time_ns_at(from_sec(1)), 1e9);
}

TEST(HardwareClockTest, MonotoneAcrossAdjustments) {
  phy::Oscillator osc(6'400'000, -50.0);
  HardwareClock clock(osc);
  double last = 0;
  for (int i = 1; i < 1000; ++i) {
    const fs_t t = i * from_us(10);
    if (i % 100 == 0) clock.adj_freq(t, (i % 200) ? 500.0 : -500.0);
    const double v = clock.time_ns_at(t);
    EXPECT_GT(v, last);
    last = v;
  }
}

TEST(PiServoTest, FirstUpdateSteps) {
  PiServo servo;
  const auto action = servo.update(5000.0, 1.0);
  EXPECT_EQ(action.step_ns, -5000.0);
}

TEST(PiServoTest, ConvergesOnConstantRateError) {
  // Plant: clock with +50 ppm rate error vs its trim.
  PiServo servo;
  servo.update(0.0, 1.0);  // get past the initial step
  double phase_ns = 0.0;
  double trim_ppb = 0.0;
  const double rate_err_ppb = 50'000.0;
  double last_offsets = 1e12;
  for (int i = 0; i < 200; ++i) {
    phase_ns += (rate_err_ppb + trim_ppb) * 1.0;  // 1 s interval
    const auto action = servo.update(phase_ns, 1.0);
    if (action.step_ns != 0) phase_ns += action.step_ns;
    trim_ppb = action.freq_ppb;
    if (i > 150) last_offsets = std::min(last_offsets, std::abs(phase_ns));
  }
  EXPECT_LT(std::abs(phase_ns), 100.0);
  EXPECT_NEAR(trim_ppb, -rate_err_ppb, 2000.0);
}

TEST(PiServoTest, MedianRejectsOutlier) {
  ServoParams p;
  p.median_window = 5;
  p.step_threshold_ns = 1e9;  // never step
  PiServo servo(p);
  servo.update(0.0, 1.0);
  for (int i = 0; i < 5; ++i) servo.update(10.0, 1.0);
  const auto action = servo.update(100000.0, 1.0);  // spike
  EXPECT_NEAR(action.filtered_offset_ns, 10.0, 1e-9) << "median unmoved by one spike";
}

TEST(PiServoTest, ResetClearsState) {
  PiServo servo;
  servo.update(0.0, 1.0);
  servo.update(1000.0, 1.0);
  servo.reset();
  const auto action = servo.update(777.0, 1.0);
  EXPECT_EQ(action.step_ns, -777.0) << "first-update semantics restored";
}

// ---------------------------------------------------------------------------
// End-to-end PTP over the simulated network.

struct PtpFixture {
  sim::Simulator sim;
  net::Network net;
  net::StarTopology star;
  std::unique_ptr<Grandmaster> gm;
  std::vector<std::unique_ptr<PtpClient>> clients;
  std::unique_ptr<TransparentClockAdapter> tc;

  explicit PtpFixture(std::uint64_t seed, std::size_t n_clients, bool with_tc = true,
                      fs_t sync_interval = from_ms(250),
                      TransparentClockParams tc_params = {})
      : sim(seed), net(sim, make_params()), star(net::build_star(net, n_clients + 1)) {
    GrandmasterParams gp;
    gp.sync_interval = sync_interval;
    gp.announce_interval = sync_interval * 2;
    gm = std::make_unique<Grandmaster>(sim, *star.hosts[0], gp);
    PtpClientParams cp;
    cp.delay_req_interval = sync_interval * 3 / 4;
    for (std::size_t i = 1; i <= n_clients; ++i) {
      clients.push_back(
          std::make_unique<PtpClient>(sim, *star.hosts[i], gm->phc(), cp));
    }
    if (with_tc) tc = std::make_unique<TransparentClockAdapter>(*star.hub, tc_params);
    gm->start();
    for (auto& c : clients) c->start();
  }

  static net::NetworkParams make_params() {
    net::NetworkParams np;
    np.enable_drift = true;
    return np;
  }

  /// Max |true offset| over all clients in the last portion of the run.
  double steady_state_error_ns(double tail_fraction = 0.5) const {
    double worst = 0;
    for (const auto& c : clients) {
      const auto& pts = c->true_series().points();
      for (std::size_t i = static_cast<std::size_t>(
               static_cast<double>(pts.size()) * (1 - tail_fraction));
           i < pts.size(); ++i)
        worst = std::max(worst, std::abs(pts[i].value));
    }
    return worst;
  }
};

TEST(PtpEndToEnd, ClientsLockToGrandmaster) {
  PtpFixture f(71, 3);
  f.sim.run_until(20_sec);
  for (auto& c : f.clients) {
    EXPECT_GT(c->syncs_completed(), 40u);
    EXPECT_EQ(c->master(), f.gm->addr());
    ASSERT_TRUE(c->path_delay_ns().has_value());
    EXPECT_GT(*c->path_delay_ns(), 0.0);
    EXPECT_LT(*c->path_delay_ns(), 10'000.0);
  }
}

TEST(PtpEndToEnd, IdlePrecisionIsSubMicrosecondButNotNanosecond) {
  PtpFixture f(72, 3);
  f.sim.run_until(30_sec);
  const double err = f.steady_state_error_ns();
  // The paper's Fig. 6d: idle PTP sits at hundreds of ns.
  EXPECT_LT(err, 2'000.0) << "idle PTP should be sub-2us";
  // Floor: one 6.4ns tick. Unbiased period quantization (no systematic
  // per-clock frequency offset) puts idle PTP in the low tens of ns here;
  // it still cannot be tick-perfect.
  EXPECT_GT(err, 6.4) << "...but cannot be implausibly perfect";
}

TEST(PtpEndToEnd, LoadDegradesPrecision) {
  // Fig. 6e/f mechanism: fan-in congestion (two senders into one receiver's
  // downlink) builds a standing queue that Sync messages share.
  PtpFixture idle(73, 3);
  idle.sim.run_until(12_sec);
  const double idle_err = idle.steady_state_error_ns(0.3);

  PtpFixture loaded(73, 3);
  loaded.sim.run_until(6_sec);  // let it lock first
  net::TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = net::kMtuFrameBytes;
  loaded.net.add_traffic(*loaded.star.hosts[1], loaded.star.hosts[3]->addr(), tp).start();
  loaded.net.add_traffic(*loaded.star.hosts[2], loaded.star.hosts[3]->addr(), tp).start();
  loaded.sim.run_until(12_sec);
  const double loaded_err = loaded.steady_state_error_ns(0.3);

  EXPECT_GT(loaded_err, 4 * idle_err) << "congestion must visibly degrade PTP";
  EXPECT_GT(loaded_err, 5'000.0) << "microsecond-scale degradation expected";
}

TEST(PtpEndToEnd, IdealTransparentClockImprovesLoadedPrecision) {
  // A standard-conforming TC (unbounded correction capacity) must beat no
  // TC at all — the paper's point that a *correct* implementation should
  // not degrade under congestion.
  auto run = [](bool with_tc) {
    TransparentClockParams ideal;
    ideal.max_correctable_residence_ns = 1e12;
    PtpFixture f(74, 3, with_tc, from_ms(250), ideal);
    f.sim.run_until(6_sec);
    net::TrafficParams tp;
    tp.saturate = true;
    tp.frame_bytes = net::kMtuFrameBytes;
    // Fan-in congestion on host 3's downlink, which Sync messages share.
    f.net.add_traffic(*f.star.hosts[1], f.star.hosts[3]->addr(), tp).start();
    f.net.add_traffic(*f.star.hosts[2], f.star.hosts[3]->addr(), tp).start();
    f.sim.run_until(12_sec);
    return f.steady_state_error_ns(0.3);
  };
  const double with_tc = run(true);
  const double without_tc = run(false);
  EXPECT_LT(with_tc, without_tc)
      << "residence-time correction must remove some queueing error";
}

TEST(PtpEndToEnd, MeasuredOffsetsTrackTruthWhenIdle) {
  PtpFixture f(75, 1);
  f.sim.run_until(20_sec);
  // The servo's measured offsets should have settled near zero.
  const auto& pts = f.clients[0]->measured_series().points();
  ASSERT_GT(pts.size(), 20u);
  double tail_max = 0;
  for (std::size_t i = pts.size() / 2; i < pts.size(); ++i)
    tail_max = std::max(tail_max, std::abs(pts[i].value));
  EXPECT_LT(tail_max, 2'000.0);
}

TEST(PtpEndToEnd, GrandmasterCountsProtocolPackets) {
  PtpFixture f(76, 2);
  f.sim.run_until(10_sec);
  // Sync + FollowUp + Announce + DelayResps: PTP has real packet overhead —
  // the Table 1 contrast with DTP's zero.
  EXPECT_GT(f.gm->packets_sent(), 80u);
  EXPECT_GT(f.gm->delay_reqs_answered(), 20u);
  EXPECT_GT(f.clients[0]->delay_reqs_sent(), 20u);
}

TEST(PtpEndToEnd, BmcPrefersLowerPriority) {
  // Two grandmasters; clients must pick the lower priority value.
  sim::Simulator sim(77);
  net::Network net(sim, PtpFixture::make_params());
  auto star = net::build_star(net, 3);
  GrandmasterParams gp1;
  gp1.priority = 10;
  gp1.sync_interval = from_ms(250);
  GrandmasterParams gp2;
  gp2.priority = 5;  // better
  gp2.sync_interval = from_ms(250);
  Grandmaster gm1(sim, *star.hosts[0], gp1);
  Grandmaster gm2(sim, *star.hosts[1], gp2);
  PtpClient client(sim, *star.hosts[2], gm2.phc(), {});
  gm1.start();
  gm2.start();
  client.start();
  sim.run_until(5_sec);
  EXPECT_EQ(client.master(), gm2.addr());
}

TEST(TransparentClockTest, AccumulatesResidenceAcrossQueueing) {
  // Force queueing at the switch and verify Sync frames carry correction.
  sim::Simulator sim(78);
  net::Network net(sim);
  auto star = net::build_star(net, 3);
  TransparentClockParams ideal;
  ideal.max_correctable_residence_ns = 1e12;
  TransparentClockAdapter tc(*star.hub, ideal);
  double seen_correction = -1;
  star.hosts[1]->on_hw_receive.add(net::kEtherTypePtp, [&](const net::Frame& f, fs_t) {
    seen_correction = f.correction_ns;
  });
  // Saturate the downlink toward host 1 so the PTP frame queues.
  net::TrafficParams tp;
  tp.saturate = true;
  net.add_traffic(*star.hosts[2], star.hosts[1]->addr(), tp).start();
  sim.run_until(10_ms);
  auto msg = std::make_shared<PtpMessage>();
  msg->type = PtpType::kSync;
  star.hosts[0]->send_hw(make_ptp_frame(star.hosts[0]->addr(),
                                        star.hosts[1]->addr(), msg));
  sim.run_until(50_ms);
  ASSERT_GE(seen_correction, 0.0) << "PTP frame must arrive";
  EXPECT_GT(seen_correction, 1'000.0) << "queueing residence must be recorded";
  EXPECT_GT(tc.corrections_applied(), 0u);
}

}  // namespace
}  // namespace dtpsim::ptp
