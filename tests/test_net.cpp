#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "check/sentinel.hpp"
#include "common/rng.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {
namespace {

using namespace dtpsim::literals;

struct PairFixture : ::testing::Test {
  sim::Simulator sim{51};
  Network net{sim};
  Host* a = nullptr;
  Host* b = nullptr;

  void SetUp() override {
    a = &net.add_host("a");
    b = &net.add_host("b");
    net.connect(*a, *b);
  }

  Frame frame_to_b(std::uint32_t payload = 46) {
    Frame f;
    f.dst = b->addr();
    f.src = a->addr();
    f.payload_bytes = payload;
    return f;
  }
};

TEST_F(PairFixture, HardwarePathDelivers) {
  int got = 0;
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got; });
  a->send_hw(frame_to_b());
  sim.run_until(1_ms);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(a->nic().stats().tx_frames, 1u);
  EXPECT_EQ(b->nic().stats().rx_frames, 1u);
}

TEST_F(PairFixture, HandlersOfAFramesEtherTypeRunInRegistrationOrder) {
  std::vector<int> order;
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { order.push_back(1); });
  b->on_hw_receive.add(kEtherTypeNtp, [&](const Frame&, fs_t) { order.push_back(2); });
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { order.push_back(3); });
  a->send_hw(frame_to_b());
  sim.run_until(1_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_F(PairFixture, AppPathAddsStackDelay) {
  fs_t hw_time = 0, app_time = 0;
  b->on_app_receive.add(kEtherTypeTest, [&](const Frame&, fs_t hw, fs_t app) {
    hw_time = hw;
    app_time = app;
  });
  a->send_app(frame_to_b());
  sim.run_until(10_ms);
  ASSERT_GT(hw_time, 0);
  EXPECT_GT(app_time, hw_time) << "software delivery strictly after the wire";
  EXPECT_GE(app_time - hw_time, from_us(2)) << "at least the base RX stack cost";
}

TEST_F(PairFixture, AppSendAlsoDelayed) {
  fs_t hw_rx = 0;
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t t) { hw_rx = t; });
  a->send_app(frame_to_b());
  sim.run_until(10_ms);
  // TX stack base is 2 us; wire+serialization alone would be < 2 us.
  EXPECT_GE(hw_rx, from_us(2));
}

TEST_F(PairFixture, UnicastToOtherAddressIgnored) {
  int got = 0;
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got; });
  Frame f = frame_to_b();
  f.dst = MacAddr{0xDEADBEEF};
  a->send_hw(f);
  sim.run_until(1_ms);
  EXPECT_EQ(got, 0);
}

TEST_F(PairFixture, BroadcastAccepted) {
  int got = 0;
  b->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got; });
  Frame f = frame_to_b();
  f.dst = MacAddr::broadcast();
  a->send_hw(f);
  sim.run_until(1_ms);
  EXPECT_EQ(got, 1);
}

TEST_F(PairFixture, MacQueueDropsWhenFull) {
  // Tiny queue: only a few frames fit.
  sim::Simulator s2(52);
  NetworkParams np;
  np.mac.queue_capacity_bytes = 3000;
  Network n2(s2, np);
  Host& h1 = n2.add_host("h1");
  Host& h2 = n2.add_host("h2");
  n2.connect(h1, h2);
  Frame f;
  f.dst = h2.addr();
  f.payload_bytes = 1500;
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += h1.nic().enqueue(f);
  EXPECT_LT(accepted, 10);
  EXPECT_GT(h1.nic().stats().tx_drops, 0u);
  s2.run();
  EXPECT_EQ(h2.nic().stats().rx_frames, static_cast<std::uint64_t>(accepted));
}

TEST_F(PairFixture, TransmitHookSeesWireTime) {
  fs_t tx_start = -1;
  a->nic().on_transmit.add(kEtherTypeTest, [&](Frame&, fs_t t) { tx_start = t; });
  a->send_hw(frame_to_b());
  sim.run_until(1_ms);
  EXPECT_GE(tx_start, 0);
}

TEST(SwitchTest, ForwardsByLearnedRoute) {
  sim::Simulator sim(53);
  Network net(sim);
  auto star = build_star(net, 3);
  int got_1 = 0, got_2 = 0;
  star.hosts[1]->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got_1; });
  star.hosts[2]->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got_2; });

  // First frame from h1 teaches the switch where h1 lives.
  Frame teach;
  teach.dst = star.hosts[0]->addr();
  star.hosts[1]->send_hw(teach);
  sim.run_until(1_ms);

  // Now h0 -> h1 must be forwarded only to h1.
  Frame f;
  f.dst = star.hosts[1]->addr();
  star.hosts[0]->send_hw(f);
  sim.run_until(2_ms);
  EXPECT_EQ(got_1, 1);
  EXPECT_EQ(got_2, 0);
  EXPECT_GE(star.hub->stats().forwarded, 1u);
}

TEST(SwitchTest, UnknownUnicastFloods) {
  sim::Simulator sim(54);
  Network net(sim);
  auto star = build_star(net, 3);
  int got = 0;
  for (auto* h : star.hosts)
    h->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got; });
  Frame f;
  f.dst = star.hosts[2]->addr();  // never seen as src yet
  star.hosts[0]->send_hw(f);
  sim.run_until(1_ms);
  // Flooded to h1 and h2; only h2's address matches, so got == 1, but the
  // switch counted a flood.
  EXPECT_EQ(got, 1);
  EXPECT_GE(star.hub->stats().flooded, 1u);
}

TEST(SwitchTest, DropOnMissWhenFloodDisabled) {
  sim::Simulator sim(55);
  NetworkParams np;
  np.switch_params.flood_on_miss = false;
  Network net(sim, np);
  auto star = build_star(net, 2);
  Frame f;
  f.dst = MacAddr{0x999999};
  star.hosts[0]->send_hw(f);
  sim.run_until(1_ms);
  EXPECT_EQ(star.hub->stats().dropped_no_route, 1u);
}

TEST(SwitchTest, MulticastFloodsToAll) {
  sim::Simulator sim(56);
  Network net(sim);
  auto star = build_star(net, 4);
  int got = 0;
  for (auto* h : star.hosts)
    h->on_hw_receive.add(kEtherTypeTest, [&](const Frame&, fs_t) { ++got; });
  Frame f;
  f.dst = MacAddr{0x0180'C200'000EULL};
  star.hosts[0]->send_hw(f);
  sim.run_until(1_ms);
  EXPECT_EQ(got, 3) << "everyone except the sender";
}

TEST(SwitchTest, StaticRoutesRespected) {
  sim::Simulator sim(57);
  Network net(sim);
  auto& sw = net.add_switch("sw");
  auto& h0 = net.add_host("h0");
  auto& h1 = net.add_host("h1");
  net.connect(sw, h0);  // port 0
  net.connect(sw, h1);  // port 1
  sw.add_route(h1.addr(), 1);
  EXPECT_EQ(sw.route(h1.addr()), 1u);
  EXPECT_EQ(sw.route(MacAddr{12345}), Switch::kNoRoute);
}

TEST(SwitchTest, QueueingDelayUnderContention) {
  // Two hosts blast a third: its downlink is the bottleneck and the switch
  // egress queue must absorb (and delay) traffic — the mechanism that
  // degrades PTP in Fig. 6e/f.
  sim::Simulator sim(58);
  Network net(sim);
  auto star = build_star(net, 3);
  TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = kMtuFrameBytes;
  net.add_traffic(*star.hosts[0], star.hosts[2]->addr(), tp).start();
  net.add_traffic(*star.hosts[1], star.hosts[2]->addr(), tp).start();
  sim.run_until(20_ms);
  const auto& egress = star.hub->mac(2);  // toward host 2
  EXPECT_GT(egress.stats().max_queue_bytes, 10'000u) << "backlog must have built";
}

TEST(TrafficTest, RateIsApproximatelyRespected) {
  sim::Simulator sim(59);
  Network net(sim);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  net.connect(h1, h2);
  TrafficParams tp;
  tp.rate_bps = 1e9;  // 1 Gbps on a 10 G link: no loss expected
  tp.frame_bytes = kMtuFrameBytes;
  net.add_traffic(h1, h2.addr(), tp).start();
  sim.run_until(50_ms);
  const double bits = static_cast<double>(h2.nic().stats().rx_bytes) * 8;
  const double rate = bits / 0.05;
  EXPECT_NEAR(rate, 1e9, 1e8);
}

TEST(TrafficTest, SaturationFillsTheLink) {
  sim::Simulator sim(60);
  Network net(sim);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  net.connect(h1, h2);
  TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = kMtuFrameBytes;
  net.add_traffic(h1, h2.addr(), tp).start();
  sim.run_until(50_ms);
  const double bits = static_cast<double>(h2.nic().stats().rx_bytes) * 8;
  const double rate = bits / 0.05;
  EXPECT_GT(rate, 9e9) << "saturation must reach ~wire speed";
}

TEST(TrafficTest, InvalidParamsThrow) {
  sim::Simulator sim(61);
  Network net(sim);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  net.connect(h1, h2);
  TrafficParams bad_rate;
  bad_rate.rate_bps = 0;
  EXPECT_THROW(TrafficGenerator(sim, h1, h2.addr(), bad_rate), std::invalid_argument);
  TrafficParams bad_size;
  bad_size.frame_bytes = 10;
  EXPECT_THROW(TrafficGenerator(sim, h1, h2.addr(), bad_size), std::invalid_argument);
}

TEST(TopologyTest, StarShape) {
  sim::Simulator sim(62);
  Network net(sim);
  auto star = build_star(net, 5);
  EXPECT_EQ(star.hosts.size(), 5u);
  EXPECT_EQ(star.hub->port_count(), 5u);
  EXPECT_EQ(net.cables().size(), 5u);
}

TEST(TopologyTest, PaperTreeShape) {
  sim::Simulator sim(63);
  Network net(sim);
  auto tree = build_paper_tree(net);
  EXPECT_EQ(tree.leaves.size(), 8u);
  EXPECT_EQ(tree.root->port_count(), 3u);
  // S1 has 3 leaves + uplink, S2 has 2 + uplink, S3 has 3 + uplink.
  EXPECT_EQ(tree.aggs[0]->port_count(), 4u);
  EXPECT_EQ(tree.aggs[1]->port_count(), 3u);
  EXPECT_EQ(tree.aggs[2]->port_count(), 4u);
  EXPECT_EQ(net.cables().size(), 11u);
}

TEST(TopologyTest, ChainShape) {
  sim::Simulator sim(64);
  Network net(sim);
  auto chain = build_chain(net, 4);
  EXPECT_EQ(chain.switches.size(), 4u);
  EXPECT_EQ(net.cables().size(), 5u);  // 5 hops
  EXPECT_EQ(chain.switches[0]->port_count(), 2u);
}

TEST(TopologyTest, FatTreeShape) {
  sim::Simulator sim(65);
  Network net(sim);
  auto ft = build_fat_tree(net, 4);
  EXPECT_EQ(ft.core.size(), 4u);
  EXPECT_EQ(ft.agg.size(), 8u);
  EXPECT_EQ(ft.edge.size(), 8u);
  EXPECT_EQ(ft.hosts.size(), 16u);
  // Edges: 4 core-agg links per pod * 4 pods + 4 agg-edge per pod * 4 +
  // 2 hosts per edge * 8 = 16 + 16 + 16 = 48.
  EXPECT_EQ(net.cables().size(), 48u);
}

TEST(TopologyTest, FatTreeOddKRejected) {
  sim::Simulator sim(66);
  Network net(sim);
  EXPECT_THROW(build_fat_tree(net, 3), std::invalid_argument);
}

TEST(TopologyTest, HostCannotBeConnectedTwice) {
  sim::Simulator sim(67);
  Network net(sim);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  auto& h3 = net.add_host("h3");
  net.connect(h1, h2);
  EXPECT_THROW(net.connect(h1, h3), std::logic_error);
}

TEST(TopologyTest, DevicesGetDistinctOscillators) {
  sim::Simulator sim(68);
  Network net(sim);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  EXPECT_NE(h1.oscillator().period(), h2.oscillator().period());
}

TEST(TopologyTest, ExplicitPpmHonored) {
  sim::Simulator sim(69);
  Network net(sim);
  auto& h = net.add_host("h", 42.0);
  EXPECT_NEAR(h.oscillator().ppm(), 42.0, 0.2);
}

TEST(HopDiameter, FatTreeSlices) {
  struct Case {
    int k, pods;
    std::size_t diameter;
  };
  // One pod: edge switches meet at an agg (4 hops between hosts). Two or
  // more: host-edge-agg-core-agg-edge-host (6). k=2 with one pod is the
  // chain core-agg-edge-host (3).
  for (const Case c : {Case{4, 1, 4}, Case{4, 2, 6}, Case{4, 4, 6}, Case{2, 1, 3}}) {
    sim::Simulator sim(70);
    Network net(sim);
    build_fat_tree(net, FatTreeParams{c.k, -1, c.pods});
    EXPECT_EQ(hop_diameter(net), c.diameter) << "k=" << c.k << " pods=" << c.pods;
  }
}

TEST(HopDiameter, StarChainAndPaperTree) {
  {
    sim::Simulator sim(71);
    Network net(sim);
    build_star(net, 5);
    EXPECT_EQ(hop_diameter(net), 2u);
  }
  for (std::size_t d = 1; d <= 6; ++d) {
    sim::Simulator sim(72);
    Network net(sim);
    build_chain(net, d - 1);
    EXPECT_EQ(hop_diameter(net), d);
  }
  sim::Simulator sim(73);
  Network net(sim);
  build_paper_tree(net);
  EXPECT_EQ(hop_diameter(net), 4u);
}

TEST(HopDiameter, MatchesFloydWarshall) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Simulator sim(seed);
    Network net(sim);
    Rng rng(seed * 31);
    const std::size_t n_switches = 1 + rng.uniform(10);
    const RandomTreeTopology topo =
        build_random_tree(net, seed, n_switches, rng.uniform(8));
    // Odd seeds add cross links, so graphs with cycles are covered too.
    for (int i = 0; seed % 2 == 1 && n_switches > 1 && i < 3; ++i) {
      const std::size_t a = rng.uniform(n_switches);
      const std::size_t b = (a + 1 + rng.uniform(n_switches - 1)) % n_switches;
      net.connect(*topo.switches[a], *topo.switches[b]);
    }

    // Reference: Floyd-Warshall over the port peers.
    const std::vector<Device*> devs = net.devices();
    const std::size_t n = devs.size();
    std::unordered_map<const phy::PhyPort*, std::size_t> owner;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t p = 0; p < devs[i]->port_count(); ++p) owner[&devs[i]->port(p)] = i;
    constexpr std::size_t kInf = 1 << 20;
    std::vector<std::vector<std::size_t>> dist(n, std::vector<std::size_t>(n, kInf));
    for (std::size_t i = 0; i < n; ++i) {
      dist[i][i] = 0;
      for (std::size_t p = 0; p < devs[i]->port_count(); ++p)
        if (const phy::PhyPort* peer = devs[i]->port(p).peer())
          dist[i][owner.at(peer)] = std::min<std::size_t>(dist[i][owner.at(peer)], 1);
    }
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
    std::size_t expected = 0;
    for (const auto& row : dist)
      for (std::size_t d : row)
        if (d < kInf) expected = std::max(expected, d);
    EXPECT_EQ(hop_diameter(net), expected) << "seed " << seed;
  }
}

TEST(HopDiameter, SentinelBoundsAFatTreeByItsTrueDiameter) {
  // A double BFS from core0 ends on a core and reads D=4 (bound 17 ticks);
  // hosts in different pods are 6 hops apart.
  sim::Simulator sim(74);
  Network net(sim);
  build_fat_tree(net, 4, 1);
  dtp::DtpNetwork dtpn = dtp::enable_dtp(net);
  const check::Sentinel sentinel(net, dtpn);
  EXPECT_EQ(sentinel.diameter_hops(), 6u);
  EXPECT_DOUBLE_EQ(sentinel.offset_bound_ticks(), 25.0);
}

}  // namespace
}  // namespace dtpsim::net
