#include "phy/port.hpp"

#include <gtest/gtest.h>

#include "phy/sync_fifo.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::phy {
namespace {

using namespace dtpsim::literals;

constexpr fs_t kT = 6'400'000;

struct LinkFixture : ::testing::Test {
  sim::Simulator sim{123};
  Oscillator osc_a{kT, 10.0};
  Oscillator osc_b{kT, -10.0, -123'456};
  PhyPort a{sim, osc_a, {}, "a"};
  PhyPort b{sim, osc_b, {}, "b"};
};

TEST_F(LinkFixture, CableFiresLinkUpOnBothSides) {
  int ups = 0;
  a.on_link_up = [&] { ++ups; };
  b.on_link_up = [&] { ++ups; };
  Cable cable(sim, a, b, {from_ns(50), 0.0});
  EXPECT_EQ(ups, 2);
  EXPECT_TRUE(a.link_up());
  EXPECT_EQ(a.peer(), &b);
  EXPECT_EQ(b.peer(), &a);
  EXPECT_EQ(a.propagation_delay(), from_ns(50));
}

TEST_F(LinkFixture, SelfConnectionRejected) {
  EXPECT_THROW(Cable(sim, a, a, {}), std::invalid_argument);
}

TEST_F(LinkFixture, DoubleConnectionRejected) {
  Cable c1(sim, a, b, {});
  PhyPort c{sim, osc_a, {}, "c"};
  EXPECT_THROW(Cable(sim, a, c, {}), std::logic_error);
}

TEST_F(LinkFixture, ControlMessageDelivered) {
  Cable cable(sim, a, b, {from_ns(50), 0.0});
  std::uint64_t got = 0;
  fs_t visible = 0;
  b.set_probe_control_rx([&](const ControlRx& rx) {
    got = rx.bits56;
    visible = rx.crossing.visible_time;
  });
  a.request_control_slot([](fs_t, std::int64_t) { return 0xABCDEFULL; });
  sim.run_until(1_us);
  EXPECT_EQ(got, 0xABCDEFULL);
  // Visible time = 1 block serialization + 50 ns propagation + crossing.
  EXPECT_GT(visible, from_ns(50));
  EXPECT_LT(visible, from_ns(50) + 8 * kT);
}

TEST_F(LinkFixture, ControlFactoryStampedAtTxTick) {
  Cable cable(sim, a, b, {});
  fs_t tx_time = -1;
  std::int64_t tx_tick = -1;
  a.request_control_slot([&](fs_t t, std::int64_t k) {
    tx_time = t;
    tx_tick = k;
    return 1ULL;
  });
  sim.run_until(1_us);
  ASSERT_GE(tx_tick, 0);
  EXPECT_EQ(osc_a.edge_of_tick(tx_tick), tx_time) << "factory runs exactly on a tick edge";
}

TEST_F(LinkFixture, ControlMessagesSerializeOnePerBlock) {
  Cable cable(sim, a, b, {});
  std::vector<fs_t> arrivals;
  b.set_probe_control_rx(
      [&](const ControlRx& rx) { arrivals.push_back(rx.wire_arrival); });
  for (int i = 0; i < 3; ++i)
    a.request_control_slot([](fs_t, std::int64_t) { return 7ULL; });
  sim.run_until(1_us);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[1] - arrivals[0], osc_a.period());
  EXPECT_EQ(arrivals[2] - arrivals[1], osc_a.period());
}

// The control queue is FIFO: distinct factories requested back to back, on
// an idle line and behind a frame, go out in request order, one block apart.
TEST_F(LinkFixture, QueuedControlFactoriesSerializeInRequestOrder) {
  Cable cable(sim, a, b, {});
  std::vector<std::uint64_t> payloads;
  std::vector<fs_t> arrivals;
  b.set_probe_control_rx([&](const ControlRx& rx) {
    payloads.push_back(rx.bits56);
    arrivals.push_back(rx.wire_arrival);
  });
  auto request = [&](std::uint64_t payload) {
    a.request_control_slot([payload](fs_t, std::int64_t) { return payload; });
  };
  for (std::uint64_t v : {0x11ULL, 0x22ULL, 0x33ULL}) request(v);
  sim.run_until(1_us);
  const auto frame = a.send_frame(1530, nullptr);
  for (std::uint64_t v : {0x44ULL, 0x55ULL, 0x66ULL}) request(v);
  EXPECT_EQ(a.pending_control(), 3u);
  sim.run_until(100_us);

  ASSERT_EQ(payloads,
            (std::vector<std::uint64_t>{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}));
  for (std::size_t i : {1, 2, 4, 5})
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], osc_a.period()) << "block " << i;
  // The second batch waited for the frame: its first block ends one block
  // after the frame's last bit, then propagates.
  EXPECT_EQ(arrivals[3], frame.end + osc_a.period() + cable.propagation_delay());
}

TEST_F(LinkFixture, FrameDelivered) {
  Cable cable(sim, a, b, {from_ns(50), 0.0});
  std::uint32_t got_bytes = 0;
  bool fcs = false;
  b.on_frame = [&](const FrameRx& rx) {
    got_bytes = rx.wire_bytes;
    fcs = rx.fcs_ok;
  };
  auto payload = std::make_shared<int>(42);
  a.send_frame(1530, payload);
  sim.run_until(10_us);
  EXPECT_EQ(got_bytes, 1530u);
  EXPECT_TRUE(fcs);
  EXPECT_EQ(a.frames_sent(), 1u);
}

TEST_F(LinkFixture, FrameOccupiesLineForItsBlocks) {
  Cable cable(sim, a, b, {});
  const auto timing = a.send_frame(1530, nullptr);
  const std::int64_t blocks = blocks_for_frame(1530);
  EXPECT_EQ(timing.end - timing.start, blocks * osc_a.period());
  EXPECT_EQ(timing.next_frame_allowed - timing.end, kIpgBlocks * osc_a.period());
}

TEST_F(LinkFixture, BackToBackFramesRespectIpg) {
  Cable cable(sim, a, b, {});
  const auto t1 = a.send_frame(64 + 8, nullptr);
  const auto t2 = a.send_frame(64 + 8, nullptr);
  EXPECT_GE(t2.start, t1.next_frame_allowed);
}

TEST_F(LinkFixture, ControlSlotWaitsForFrameEnd) {
  Cable cable(sim, a, b, {});
  const auto timing = a.send_frame(1530, nullptr);
  fs_t ctl_tx = -1;
  a.request_control_slot([&](fs_t t, std::int64_t) {
    ctl_tx = t;
    return 1ULL;
  });
  sim.run_until(100_us);
  ASSERT_GE(ctl_tx, 0);
  // The control block takes the inter-packet gap slot right at frame end.
  EXPECT_GE(ctl_tx, timing.end);
  EXPECT_LE(ctl_tx, timing.end + 2 * osc_a.period());
}

TEST_F(LinkFixture, ControlInIpgDoesNotDelayWhenGapAvailable) {
  // One control block per gap fits inside the standard's IPG: the following
  // frame is not pushed beyond its normal allowance.
  Cable cable(sim, a, b, {});
  const auto t1 = a.send_frame(1530, nullptr);
  a.request_control_slot([](fs_t, std::int64_t) { return 1ULL; });
  const auto t2 = a.send_frame(1530, nullptr);
  EXPECT_EQ(t2.start, t1.next_frame_allowed);
}

TEST_F(LinkFixture, SendFrameWithoutLinkThrows) {
  EXPECT_THROW(a.send_frame(100, nullptr), std::logic_error);
}

TEST_F(LinkFixture, EmptyControlFactoryRejected) {
  EXPECT_THROW(a.request_control_slot(nullptr), std::invalid_argument);
}

TEST_F(LinkFixture, ZeroOverheadAccounting) {
  // Sending control messages does not create frames: the paper's headline
  // "no Ethernet packets" claim as an invariant.
  Cable cable(sim, a, b, {});
  for (int i = 0; i < 100; ++i)
    a.request_control_slot([](fs_t, std::int64_t) { return 3ULL; });
  sim.run_until(1_ms);
  EXPECT_EQ(a.control_blocks_sent(), 100u);
  EXPECT_EQ(a.frames_sent(), 0u);
}

TEST(SyncFifoTest, CrossingWithinOneToTwoPlusPipelineCycles) {
  sim::Simulator sim(9);
  Oscillator osc(kT, 0.0);
  SyncFifoParams params;  // pipeline = 2
  SyncFifo fifo(params, sim.fork_rng(1));
  for (int i = 0; i < 500; ++i) {
    const fs_t arrival = static_cast<fs_t>(i) * 7'919'000;  // arbitrary phases
    const auto r = fifo.cross(osc, arrival);
    EXPECT_GT(r.visible_time, arrival);
    // Bound: next edge (< T away) + up to 1 random + 2 pipeline cycles.
    EXPECT_LE(r.visible_time - arrival, 4 * kT);
    EXPECT_TRUE(r.random_extra == 0 || r.random_extra == 1);
  }
}

TEST(SyncFifoTest, RandomExtraOnlyNearTheEdge) {
  sim::Simulator sim(10);
  Oscillator osc(kT, 0.0);
  SyncFifoParams params;
  params.extra_cycle_prob = 0.5;
  params.pipeline_cycles = 0;
  params.metastability_window = 0.08;
  SyncFifo fifo(params, sim.fork_rng(2));
  int ones_far = 0, ones_near = 0;
  for (int i = 0; i < 1000; ++i) {
    // Far from the edge: mid-period arrivals are deterministic.
    ones_far += fifo.cross(osc, i * kT + kT / 2).random_extra;
    // Within the window (just before the next edge): may resolve late.
    ones_near += fifo.cross(osc, i * kT + kT - kT / 50).random_extra;
  }
  EXPECT_EQ(ones_far, 0);
  EXPECT_GT(ones_near, 400);
  EXPECT_LT(ones_near, 600);
}

TEST(SyncFifoTest, FullWindowBehavesIid) {
  sim::Simulator sim(15);
  Oscillator osc(kT, 0.0);
  SyncFifoParams params;
  params.extra_cycle_prob = 0.5;
  params.pipeline_cycles = 0;
  params.metastability_window = 1.0;  // every arrival is "near the edge"
  SyncFifo fifo(params, sim.fork_rng(4));
  int ones = 0;
  for (int i = 0; i < 1000; ++i) ones += fifo.cross(osc, i * 7919).random_extra;
  EXPECT_GT(ones, 400);
  EXPECT_LT(ones, 600);
}

TEST(SyncFifoTest, ZeroProbabilityIsDeterministic) {
  sim::Simulator sim(11);
  Oscillator osc(kT, 0.0);
  SyncFifoParams params;
  params.extra_cycle_prob = 0.0;
  params.pipeline_cycles = 3;
  SyncFifo fifo(params, sim.fork_rng(3));
  const auto r = fifo.cross(osc, 100);
  EXPECT_EQ(r.random_extra, 0);
  EXPECT_EQ(r.visible_tick, 1 + 3);  // next edge after 100 fs is tick 1, plus pipeline
}

TEST(BerTest, ControlCorruptionAtHighBer) {
  sim::Simulator sim(12);
  Oscillator oa(kT), ob(kT, 0.0, -1);
  PhyPort a{sim, oa, {}, "a"}, b{sim, ob, {}, "b"};
  Cable cable(sim, a, b, {from_ns(5), 1e-4});  // absurd BER to force hits
  int corrupted = 0, total = 0;
  b.set_probe_control_rx([&](const ControlRx& rx) {
    ++total;
    corrupted += rx.corrupted;
  });
  for (int i = 0; i < 2000; ++i)
    a.request_control_slot([](fs_t, std::int64_t) { return 0x15ULL; });
  sim.run_until(1_ms);
  EXPECT_EQ(total, 2000);
  // p_block ~ 1 - (1-1e-4)^66 ~ 0.66%.
  EXPECT_GT(corrupted, 2);
  EXPECT_LT(corrupted, 60);
  EXPECT_EQ(cable.corrupted_control(), static_cast<std::uint64_t>(corrupted));
}

TEST(BerTest, CorruptionFlipsExactlyOneBit) {
  sim::Simulator sim(13);
  Oscillator oa(kT), ob(kT);
  PhyPort a{sim, oa, {}, "a"}, b{sim, ob, {}, "b"};
  Cable cable(sim, a, b, {from_ns(5), 1e-3});
  b.set_probe_control_rx([&](const ControlRx& rx) {
    if (rx.corrupted) {
      EXPECT_EQ(__builtin_popcountll(rx.bits56 ^ 0x15ULL), 1);
    } else {
      EXPECT_EQ(rx.bits56, 0x15ULL);
    }
  });
  for (int i = 0; i < 500; ++i)
    a.request_control_slot([](fs_t, std::int64_t) { return 0x15ULL; });
  sim.run_until(1_ms);
}

TEST(BerTest, FramesMarkedBad) {
  sim::Simulator sim(14);
  Oscillator oa(kT), ob(kT);
  PhyPort a{sim, oa, {}, "a"}, b{sim, ob, {}, "b"};
  Cable cable(sim, a, b, {from_ns(5), 1e-6});
  int bad = 0, total = 0;
  b.on_frame = [&](const FrameRx& rx) {
    ++total;
    bad += !rx.fcs_ok;
  };
  for (int i = 0; i < 300; ++i) a.send_frame(1530, nullptr);
  sim.run();
  EXPECT_EQ(total, 300);
  // p ~ 1-(1-1e-6)^(1530*8) ~ 1.2% per frame.
  EXPECT_GT(bad, 0);
  EXPECT_LT(bad, 40);
}

}  // namespace
}  // namespace dtpsim::phy
