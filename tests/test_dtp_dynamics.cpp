/// Section 3.2 "Network dynamics": link loss, counter resets, partition
/// healing through BEACON-JOIN, and recovery re-INIT.

#include <gtest/gtest.h>

#include "dtp_test_util.hpp"
#include "phy/drift.hpp"

namespace dtpsim::dtp {
namespace {

using namespace dtpsim::literals;

TEST(OscillatorDrift, WalkStateEqualsQuantizedOscillatorPpm) {
  // The walk must continue from the ppm the integer period actually
  // realizes: current_ppm() and osc.ppm() are the same value after every
  // step, not merely close, or long campaigns accumulate quantization bias.
  sim::Simulator sim(204);
  phy::Oscillator osc(6'400'000, 23.0);
  phy::DriftParams dp;
  dp.step_ppm = 5.0;
  dp.update_interval = 1_us;
  phy::DriftProcess drift(sim, osc, dp, sim.fork_rng(7));
  drift.start();
  for (int i = 0; i < 500; ++i) {
    sim.run_until(sim.now() + 1_us);
    ASSERT_EQ(drift.current_ppm(), osc.ppm()) << "step " << i;
  }
}

TEST(LinkDynamics, DisconnectDropsToDown) {
  sim::Simulator sim(201);
  net::Network net(sim);
  auto& a = net.add_host("a", 50.0);
  auto& b = net.add_host("b", -50.0);
  phy::Cable& cable = net.connect(a, b);
  Agent agent_a(a), agent_b(b);
  sim.run_until(1_ms);
  ASSERT_EQ(agent_a.port_logic(0).state(), PortState::kSynced);

  cable.disconnect();
  EXPECT_EQ(agent_a.port_logic(0).state(), PortState::kDown);
  EXPECT_EQ(agent_b.port_logic(0).state(), PortState::kDown);
  EXPECT_FALSE(a.nic_port().link_up());
  EXPECT_FALSE(agent_a.port_logic(0).measured_owd().has_value())
      << "a reconnection must re-measure the delay";
}

TEST(LinkDynamics, DisconnectIsIdempotent) {
  sim::Simulator sim(202);
  net::Network net(sim);
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  phy::Cable& cable = net.connect(a, b);
  cable.disconnect();
  cable.disconnect();
  EXPECT_FALSE(cable.connected());
}

TEST(LinkDynamics, AllPortsDownResetsCounters) {
  // "The global counter is set to zero when all ports become inactive."
  sim::Simulator sim(203);
  net::Network net(sim);
  auto& a = net.add_host("a", 50.0);
  auto& b = net.add_host("b", -50.0);
  phy::Cable& cable = net.connect(a, b);
  Agent agent_a(a), agent_b(b);
  sim.run_until(10_ms);
  ASSERT_GT(agent_a.global_at(sim.now()).low64(), 1'000'000u);

  cable.disconnect();
  sim.run_until(11_ms);
  EXPECT_LT(agent_a.global_at(sim.now()).low64(), 1'000'000u)
      << "counter restarted from zero";
  EXPECT_EQ(agent_a.counter_resets(), 1u);
  EXPECT_EQ(agent_b.counter_resets(), 1u);
}

TEST(LinkDynamics, SwitchKeepsCountingWhileOnePortRemains) {
  sim::Simulator sim(204);
  net::Network net(sim);
  auto& sw = net.add_switch("sw");
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  phy::Cable& c1 = net.connect(sw, h1);
  net.connect(sw, h2);
  DtpNetwork dtp = enable_dtp(net);
  sim.run_until(5_ms);
  const auto before = dtp.agent_of(&sw)->global_at(sim.now()).low64();

  c1.disconnect();
  sim.run_until(6_ms);
  EXPECT_GT(dtp.agent_of(&sw)->global_at(sim.now()).low64(), before)
      << "one live port keeps the device's counter running";
  EXPECT_EQ(dtp.agent_of(&sw)->counter_resets(), 0u);
  EXPECT_EQ(dtp.agent_of(&h1)->counter_resets(), 1u);
}

TEST(LinkDynamics, ReconnectionResynchronizes) {
  sim::Simulator sim(205);
  net::Network net(sim);
  auto& a = net.add_host("a", 100.0);
  auto& b = net.add_host("b", -100.0);
  phy::Cable& cable = net.connect(a, b);
  Agent agent_a(a), agent_b(b);
  sim.run_until(5_ms);

  cable.disconnect();
  sim.run_until(10_ms);  // b's counter reset; a's too

  net.connect_ports(a.nic_port(), b.nic_port());  // new cable
  sim.run_until(20_ms);
  EXPECT_EQ(agent_a.port_logic(0).state(), PortState::kSynced);
  EXPECT_EQ(agent_b.port_logic(0).state(), PortState::kSynced);
  double worst = 0;
  testutil::run_sampled(sim, 40_ms, 100_us, [&](fs_t) {
    worst = std::max(
        worst, std::abs(true_offset_fractional(agent_a, agent_b, sim.now())));
  });
  EXPECT_LE(worst, 4.0) << "full precision restored after re-cabling";
}

TEST(LinkDynamics, PartitionHealViaJoin) {
  // Two subnets around two switches; the inter-switch trunk fails, the
  // subnets drift (the live one keeps counting, the cut one... both keep
  // their own counters), then the trunk is restored and BEACON-JOIN makes
  // everyone agree on the maximum again.
  sim::Simulator sim(206);
  net::Network net(sim);
  auto& sw1 = net.add_switch("sw1");
  auto& sw2 = net.add_switch("sw2");
  auto& h1 = net.add_host("h1", 80.0);
  auto& h2 = net.add_host("h2", -80.0);
  net.connect(sw1, h1);
  net.connect(sw2, h2);
  phy::Cable& trunk = net.connect(sw1, sw2);
  DtpNetwork dtp = enable_dtp(net);
  sim.run_until(5_ms);
  ASSERT_TRUE(dtp.all_synced());

  const std::size_t sw1_trunk_port = 1;  // port 0 is h1, port 1 the trunk
  trunk.disconnect();
  // Make the divergence unmistakable: age subnet 1 by a million ticks.
  dtp.agent_of(&sw1)->force_global(
      sim.now(), dtp.agent_of(&sw1)->global_at(sim.now()).plus(1'000'000));
  sim.run_until(15_ms);
  ASSERT_GT(static_cast<long long>(
                true_offset_units(*dtp.agent_of(&sw1), *dtp.agent_of(&sw2), sim.now())),
            900'000);

  net.connect_ports(sw1.port(sw1_trunk_port), sw2.port(1));
  sim.run_until(25_ms);
  EXPECT_TRUE(dtp.all_synced());
  EXPECT_LE(dtp.max_pairwise_offset_ticks(sim.now()), 8.0)
      << "both subnets agreed on the (larger) counter";
  EXPECT_GE(dtp.agent_of(&h2)->global_at(sim.now()).low64(), 1'000'000u);
}

TEST(LinkDynamics, InFlightMessagesAtUnplugAreHarmless) {
  sim::Simulator sim(207);
  net::Network net(sim);
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  phy::Cable& cable = net.connect(a, b);
  Agent agent_a(a), agent_b(b);
  sim.run_until(1_ms);
  // Queue a beacon-ish message and cut the cable before it is processed.
  agent_a.port_logic(0).send_log();
  cable.disconnect();
  EXPECT_NO_THROW(sim.run_until(2_ms));
  EXPECT_EQ(agent_b.port_logic(0).state(), PortState::kDown);
}

}  // namespace
}  // namespace dtpsim::dtp
