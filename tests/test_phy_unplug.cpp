#include <gtest/gtest.h>

#include <memory>

#include "phy/oscillator.hpp"
#include "phy/port.hpp"
#include "sim/simulator.hpp"

/// Unplug semantics (Section 3.2, "network dynamics"): pulling a cable kills
/// the light in the fiber, so anything serialized but not yet delivered —
/// frames in flight, control blocks crossing the CDC — must vanish rather
/// than arrive at a link-down port.

namespace dtpsim::phy {
namespace {

using namespace dtpsim::literals;

struct TwoPorts {
  sim::Simulator sim{11};
  Oscillator osc_a{nominal_period(LinkRate::k10G), 50.0, 0};
  Oscillator osc_b{nominal_period(LinkRate::k10G), -50.0, 1'000'000};
  PhyPort a{sim, osc_a, {}, "a"};
  PhyPort b{sim, osc_b, {}, "b"};
};

TEST(PhyUnplug, FrameInFlightIsDroppedByDisconnect) {
  TwoPorts tp;
  Cable cable(tp.sim, tp.a, tp.b, {});

  int frames_at_b = 0;
  tp.b.on_frame = [&](const FrameRx&) { ++frames_at_b; };

  auto payload = std::make_shared<int>(42);
  const auto timing = tp.a.send_frame(1522, payload);
  // The last bit leaves a's serializer at timing.end; it reaches b one
  // propagation delay (50 ns) later. Unplug inside that window.
  tp.sim.run_until(timing.end + 10_ns);
  cable.disconnect();
  tp.sim.run();

  EXPECT_EQ(frames_at_b, 0) << "a frame was delivered to a link-down port";
  EXPECT_FALSE(tp.b.link_up());
}

TEST(PhyUnplug, ControlBlockInFlightIsDroppedByDisconnect) {
  TwoPorts tp;
  Cable cable(tp.sim, tp.a, tp.b, {});

  int control_at_b = 0;
  tp.b.set_probe_control_rx([&](const ControlRx&) { ++control_at_b; });

  bool sent = false;
  tp.a.request_control_slot([&](fs_t, std::int64_t) {
    sent = true;
    return std::uint64_t{0xABCD};
  });
  // Let the block serialize (the line is idle: next tick edge), then pull
  // the cable before the 50 ns propagation completes.
  tp.sim.run_until(tp.sim.now() + 20_ns);
  ASSERT_TRUE(sent);
  cable.disconnect();
  tp.sim.run();

  EXPECT_EQ(control_at_b, 0) << "a control block crossed a dead cable";
}

TEST(PhyUnplug, BridgedControlBlockBetweenDevicesIsDroppedByDisconnect) {
  // The same unplug on the bridged engine, with each port on a device of
  // its own: the block in flight is a bridged arrival in the far device's
  // step array, which is where the unplug must find it.
  TwoPorts tp;
  ASSERT_TRUE(tp.sim.bridged());
  tp.a.set_node(tp.sim.register_node());
  tp.b.set_node(tp.sim.register_node());
  Cable cable(tp.sim, tp.a, tp.b, {});

  int control_at_b = 0;
  tp.b.set_probe_control_rx([&](const ControlRx&) { ++control_at_b; });

  bool sent = false;
  tp.a.request_control_slot([&](fs_t, std::int64_t) {
    sent = true;
    return std::uint64_t{0xABCD};
  });
  tp.sim.run_until(tp.sim.now() + 20_ns);
  ASSERT_TRUE(sent);
  ASSERT_EQ(tp.sim.events_pending(), 1u) << "the block should be on the wire";
  cable.disconnect();
  EXPECT_EQ(tp.sim.events_pending(), 0u);
  EXPECT_EQ(tp.sim.stats().cancelled, 1u);
  tp.sim.run();

  EXPECT_EQ(control_at_b, 0) << "a control block crossed a dead cable";
}

TEST(PhyUnplug, ReconnectAfterUnplugDeliversCleanly) {
  TwoPorts tp;
  auto cable = std::make_unique<Cable>(tp.sim, tp.a, tp.b, Cable::Params{});

  int frames_at_b = 0;
  int link_ups_at_b = 1;  // the first Cable ctor already fired it
  tp.b.on_frame = [&](const FrameRx& rx) {
    if (rx.fcs_ok) ++frames_at_b;
  };
  tp.b.on_link_up = [&] { ++link_ups_at_b; };

  auto payload = std::make_shared<int>(1);
  const auto timing = tp.a.send_frame(1522, payload);
  tp.sim.run_until(timing.end + 10_ns);
  cable->disconnect();
  tp.sim.run();
  ASSERT_EQ(frames_at_b, 0);

  // Replug: a fresh cable. The lost frame stays lost; new traffic flows.
  cable = std::make_unique<Cable>(tp.sim, tp.a, tp.b, Cable::Params{});
  EXPECT_TRUE(tp.b.link_up());
  EXPECT_EQ(link_ups_at_b, 2);
  tp.a.send_frame(1522, payload);
  tp.sim.run();
  EXPECT_EQ(frames_at_b, 1);
}

TEST(PhyUnplug, DisconnectIsIdempotentWithManyInFlight) {
  TwoPorts tp;
  Cable cable(tp.sim, tp.a, tp.b, {});
  int frames_at_b = 0;
  tp.b.on_frame = [&](const FrameRx&) { ++frames_at_b; };

  // Exceed the in-flight tracking compaction threshold to exercise pruning.
  auto payload = std::make_shared<int>(0);
  for (int i = 0; i < 100; ++i) tp.a.send_frame(64, payload);
  const auto timing = tp.a.send_frame(1522, payload);
  tp.sim.run_until(timing.end + 10_ns);
  const int delivered_before = frames_at_b;
  cable.disconnect();
  cable.disconnect();  // idempotent
  tp.sim.run();
  EXPECT_EQ(frames_at_b, delivered_before) << "disconnect must stop all deliveries";
  EXPECT_LT(frames_at_b, 101);
}

}  // namespace
}  // namespace dtpsim::phy
