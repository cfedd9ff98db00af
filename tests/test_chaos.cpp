#include <gtest/gtest.h>

#include <cmath>

#include "chaos/engine.hpp"
#include "chaos/campaign.hpp"
#include "dtp/daemon.hpp"
#include "dtp_test_util.hpp"

/// Recovery-hardening tests: the quarantine re-enable paths (clear_fault,
/// cooldown-gated link bounce), the Section 3.2 counter reset on
/// all-ports-down, node crash/restart against live peers, and the chaos
/// engine's fault primitives and probes.

namespace dtpsim {
namespace {

using namespace dtpsim::literals;
using dtp::testutil::TwoNodes;

/// Drive b's jump detector into kFaulty by periodically bumping a's counter.
/// Returns promptly after the trip so the caller sits inside fault_cooldown.
void trip_detector(TwoNodes& n, sim::PeriodicProcess& fault) {
  fault.start();
  const fs_t deadline = n.sim.now() + 20_ms;
  while (n.sim.now() < deadline &&
         n.port_b().state() != dtp::PortState::kFaulty)
    n.sim.run_until(n.sim.now() + 100_us);
  fault.stop();
  ASSERT_EQ(n.port_b().state(), dtp::PortState::kFaulty);
}

dtp::DtpParams detector_params() {
  dtp::DtpParams p;
  p.enable_jump_detector = true;
  p.jump_threshold_ticks = 4;
  p.max_jumps = 8;
  p.jump_window = 10_ms;
  p.fault_cooldown = 2_ms;
  return p;
}

TEST(ChaosRecovery, ClearFaultReInitsAndResyncs) {
  TwoNodes n(51, 0.0, 0.0, detector_params());
  n.sim.run_until(2_ms);
  ASSERT_EQ(n.port_b().state(), dtp::PortState::kSynced);

  sim::PeriodicProcess fault(n.sim, 100_us, [&] {
    n.agent_a->force_global(n.sim.now(), n.agent_a->global_at(n.sim.now()).plus(6));
  });
  trip_detector(n, fault);

  // Operator override: the port re-runs INIT and (via the peer's join reply
  // to a fresh INIT) re-adopts the network counter.
  n.port_b().clear_fault();
  EXPECT_FALSE(n.port_b().jump_detector().tripped());
  n.sim.run_until(n.sim.now() + 1_ms);
  EXPECT_EQ(n.port_b().state(), dtp::PortState::kSynced);
  EXPECT_LE(n.abs_offset_ticks(), 4.0);
}

TEST(ChaosRecovery, ClearFaultIsNoOpOnHealthyPort) {
  TwoNodes n(52, 50.0, -50.0, detector_params());
  n.sim.run_until(2_ms);
  ASSERT_EQ(n.port_b().state(), dtp::PortState::kSynced);
  n.port_b().clear_fault();
  EXPECT_EQ(n.port_b().state(), dtp::PortState::kSynced);
}

TEST(ChaosRecovery, LinkBounceInsideCooldownStaysQuarantined) {
  TwoNodes n(53, 0.0, 0.0, detector_params());
  n.sim.run_until(2_ms);
  sim::PeriodicProcess fault(n.sim, 100_us, [&] {
    n.agent_a->force_global(n.sim.now(), n.agent_a->global_at(n.sim.now()).plus(6));
  });
  trip_detector(n, fault);

  // Bounce the cable immediately: inside fault_cooldown (2 ms) the
  // quarantine must survive the replug.
  phy::Cable* cable = n.net.cables().front().get();
  cable->disconnect();
  n.sim.run_until(n.sim.now() + 50_us);
  cable = &n.net.connect_ports(n.a->nic_port(), n.b->nic_port());
  n.sim.run_until(n.sim.now() + 200_us);
  EXPECT_EQ(n.port_b().state(), dtp::PortState::kFaulty)
      << "a flapping cable must not launder a faulty peer back in";

  // Bounce again after the cooldown: the detector resets, INIT re-runs.
  n.sim.run_until(n.sim.now() + 3_ms);
  cable->disconnect();
  n.sim.run_until(n.sim.now() + 50_us);
  n.net.connect_ports(n.a->nic_port(), n.b->nic_port());
  n.sim.run_until(n.sim.now() + 1_ms);
  EXPECT_EQ(n.port_b().state(), dtp::PortState::kSynced);
  EXPECT_LE(n.abs_offset_ticks(), 4.0);
}

/// A three-device chain so the middle keeps its counter when an edge link
/// flaps (the network's memory the rejoiner must re-acquire).
struct Chain {
  sim::Simulator sim;
  net::Network net;
  net::Host* a;
  net::Switch* s;
  net::Host* b;
  dtp::DtpNetwork dtp;

  explicit Chain(std::uint64_t seed, dtp::DtpParams params)
      : sim(seed), net(sim) {
    a = &net.add_host("a", 80.0);
    s = &net.add_switch("s", -20.0);
    b = &net.add_host("b", -90.0);
    net.connect(*a, *s);
    net.connect(*s, *b);
    dtp = dtp::enable_dtp(net, params);
  }

  double offset_ticks(net::Device& x, net::Device& y) {
    return std::abs(dtp::true_offset_fractional(*dtp.agent_of(&x), *dtp.agent_of(&y),
                                                sim.now())) /
           static_cast<double>(dtp.agent(0).params().counter_delta);
  }
};

TEST(ChaosRecovery, AllPortsDownResetsCounterAndRejoinsWithinTwoBeacons) {
  // Section 3.2: a node whose every port goes inactive zeroes its counter;
  // on reconnection it re-acquires the network counter via BEACON-JOIN.
  const dtp::DtpParams params = chaos::CanonicalCampaign::dtp_params();
  Chain c(54, params);
  c.sim.run_until(2_ms);  // ~312k counter units accrued network-wide
  ASSERT_TRUE(c.dtp.all_synced());
  const auto resets_before = c.dtp.agent_of(c.a)->counter_resets();

  phy::Cable* cable = c.net.cables().front().get();  // the a--s link
  cable->disconnect();
  c.sim.run_until(c.sim.now() + 50_us);
  EXPECT_EQ(c.dtp.agent_of(c.a)->counter_resets(), resets_before + 1);
  // ~2 ms of runtime had accrued ~312k units; after the reset the counter
  // restarts from zero, so 50 us dark leaves it under ~8k units.
  EXPECT_LT(static_cast<double>(c.dtp.agent_of(c.a)->global_at(c.sim.now()).value()),
            20'000.0)
      << "the counter must restart near zero while dark";

  c.net.connect_ports(cable->port_a(), cable->port_b());
  const fs_t re_up = c.sim.now();
  const fs_t two_beacons = 2 * params.beacon_interval_ticks *
                           nominal_period(phy::LinkRate::k10G);
  c.sim.run_until(re_up + two_beacons);
  EXPECT_LE(c.offset_ticks(*c.a, *c.s), 4.0)
      << "rejoin must complete within two beacon intervals";
}

TEST(ChaosRecovery, CrashRestartRejoinsAgainstLivePeers) {
  const dtp::DtpParams params = chaos::CanonicalCampaign::dtp_params();
  Chain c(55, params);
  c.sim.run_until(2_ms);
  ASSERT_TRUE(c.dtp.all_synced());

  chaos::ChaosEngine engine(c.net, c.dtp);

  engine.crash_node(*c.a);
  EXPECT_EQ(c.dtp.agent_of(c.a), nullptr);
  // Peers keep running against the dead node: beacons go unanswered, s's
  // port toward a is down, s--b stays synced.
  c.sim.run_until(c.sim.now() + 200_us);
  EXPECT_LE(c.offset_ticks(*c.s, *c.b), 4.0);

  engine.restart_node(*c.a);
  dtp::Agent* fresh = c.dtp.agent_of(c.a);
  ASSERT_NE(fresh, nullptr);
  const fs_t two_beacons = 2 * params.beacon_interval_ticks *
                           nominal_period(phy::LinkRate::k10G);
  c.sim.run_until(c.sim.now() + two_beacons);
  EXPECT_LE(c.offset_ticks(*c.a, *c.s), 4.0);
  EXPECT_LE(c.offset_ticks(*c.a, *c.b), 4.0);
}

TEST(ChaosReport, ClassPercentilesSpanTheDistribution) {
  // SampleSeries::percentile takes q in [0, 100]: a class with several
  // samples must report its median and tail, not (as q = 0.50 / 0.99 would)
  // roughly its minimum. Probes that never converged stay out of the series.
  chaos::CampaignReport report;
  auto add = [&report](const char* cls, double beacons, bool converged = true) {
    chaos::ProbeResult r;
    r.fault_class = cls;
    r.converged = converged;
    r.reconverge_beacons = beacons;
    report.add(r);
  };
  for (int i = 1; i <= 11; ++i) add("link_flap", i);
  add("node_crash", 2);
  add("node_crash", 4);
  add("node_crash", 100, /*converged=*/false);

  const chaos::ClassSummary flap = report.summary("link_flap");
  EXPECT_EQ(flap.n, 11);
  EXPECT_DOUBLE_EQ(flap.p50_bi, 6.0);
  EXPECT_DOUBLE_EQ(flap.p99_bi, 10.9);
  EXPECT_DOUBLE_EQ(flap.worst_bi, 11.0);

  const chaos::ClassSummary crash = report.summary("node_crash");
  EXPECT_EQ(crash.n, 3);
  EXPECT_EQ(crash.converged, 2);
  EXPECT_DOUBLE_EQ(crash.p50_bi, 3.0);
  EXPECT_DOUBLE_EQ(crash.p99_bi, 3.98);
  EXPECT_DOUBLE_EQ(crash.worst_bi, 4.0);
}

TEST(ChaosEngine, LinkFlapProbeMeasuresReconvergence) {
  const dtp::DtpParams params = chaos::CanonicalCampaign::dtp_params();
  Chain c(56, params);
  chaos::ChaosEngine engine(c.net, c.dtp);

  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*c.a, *c.s, 2_ms, 50_us));
  engine.schedule(plan);
  c.sim.run_until(4_ms);

  ASSERT_TRUE(engine.all_probes_done());
  const auto summary = engine.report().summary("link_flap");
  EXPECT_EQ(summary.n, 1);
  EXPECT_EQ(summary.converged, 1);
  EXPECT_LE(summary.p99_bi, 2.0);
  EXPECT_TRUE(summary.stall_ok);
}

TEST(ChaosEngine, UnknownLinkInPlanThrows) {
  Chain c(57, chaos::CanonicalCampaign::dtp_params());
  chaos::ChaosEngine engine(c.net, c.dtp);
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*c.a, *c.b, 1_ms, 50_us));  // not cabled
  EXPECT_THROW(engine.schedule(plan), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gray-failure named constructors (DESIGN.md §15): every malformed spec must
// fail loudly at construction or scheduling time — a gray fault that half
// injects IS the gray failure mode the tier exists to kill.

TEST(ChaosGray, NamedConstructorsRejectMalformedSpecs) {
  Chain c(59, chaos::CanonicalCampaign::dtp_params());

  // Zero / negative windows.
  EXPECT_THROW(chaos::FaultSpec::asymmetric_delay(*c.a, *c.s, 1_ms, 0, from_ns(50)),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::limping_port(*c.a, *c.s, 1_ms, -1_ms, 0.3, from_ns(80)),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::silent_corruption(*c.a, *c.s, 1_ms, 0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::frozen_counter(*c.a, *c.s, 1_ms, -1),
               std::invalid_argument);

  // Degenerate magnitudes.
  EXPECT_THROW(chaos::FaultSpec::asymmetric_delay(*c.a, *c.s, 1_ms, 1_ms, 0),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::asymmetric_delay(*c.a, *c.s, 1_ms, 1_ms, -from_ns(50)),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::limping_port(*c.a, *c.s, 1_ms, 1_ms, 1.5, from_ns(80)),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::limping_port(*c.a, *c.s, 1_ms, 1_ms, 0.3, 0),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::silent_corruption(*c.a, *c.s, 1_ms, 1_ms, -0.1),
               std::invalid_argument);
}

TEST(ChaosGray, ScheduleRejectsUncabledGrayFaults) {
  Chain c(60, chaos::CanonicalCampaign::dtp_params());
  chaos::ChaosEngine engine(c.net, c.dtp);
  // a and b are two hops apart — no direct cable, so the direction the spec
  // names does not exist.
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::frozen_counter(*c.a, *c.b, 1_ms, 1_ms));
  EXPECT_THROW(engine.schedule(plan), std::invalid_argument);
}

TEST(ChaosGray, SourceFaultWithoutHierarchyThrows) {
  Chain c(61, chaos::CanonicalCampaign::dtp_params());
  chaos::ChaosEngine engine(c.net, c.dtp);
  // No set_hierarchy(): scheduling a source-kind fault must fail loudly, not
  // silently skip the injection.
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::gps_loss(*c.a, 1_ms, 1_ms));
  EXPECT_THROW(engine.schedule(plan), std::invalid_argument);
}

TEST(ChaosEngine, PcieStormRejectedThenRecovered) {
  sim::Simulator sim(58);
  net::Network net(sim);
  net::Host& a = net.add_host("a", 40.0);
  net::Host& b = net.add_host("b", -40.0);
  net.connect(a, b);
  dtp::DtpNetwork dtpn = dtp::enable_dtp(net, {});

  dtp::DaemonParams dp;
  dp.poll_period = 50_us;
  dp.sample_period = 0;
  dtp::Daemon daemon(sim, *dtpn.agent_of(&a), dp, 25.0);
  daemon.start();
  sim.run_until(2_ms);
  ASSERT_TRUE(daemon.calibrated());
  // A handful of benign rejections can occur while best-RTT settles.
  const auto rejected_baseline = daemon.rejected_polls();

  chaos::ChaosEngine engine(net, dtpn);
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::pcie_storm(daemon, 3_ms, 2_ms, from_ns(400), 0.3,
                                        2_us, 24.0));
  engine.schedule(plan);
  sim.run_until(5_ms);
  EXPECT_GT(daemon.rejected_polls(), rejected_baseline + 10)
      << "the RTT quality filter must discard storm-inflated reads";
  EXPECT_FALSE(daemon.pcie_stressed());

  sim.run_until(10_ms);
  ASSERT_TRUE(engine.all_probes_done());
  const auto summary = engine.report().summary("pcie_storm");
  EXPECT_EQ(summary.n, 1);
  EXPECT_EQ(summary.converged, 1)
      << "the software clock must re-anchor once the storm clears";
}

}  // namespace
}  // namespace dtpsim
