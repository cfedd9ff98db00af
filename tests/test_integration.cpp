/// Capstone integration: the paper's whole world in one simulation.
///
/// The Fig. 5 tree runs DTP on every device; the same hosts simultaneously
/// run a PTP client and an NTP client against a timeserver leaf; daemons
/// serve software time; iperf-style load comes and goes; a link fails and
/// is re-cabled. At the end, every protocol must sit in its own precision
/// decade and DTP must never have budged.

#include <gtest/gtest.h>

#include "dtp/daemon.hpp"
#include "dtp/network.hpp"
#include "dtp_test_util.hpp"
#include "net/topology.hpp"
#include "ntp/ntp.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"
#include "ptp/transparent.hpp"

namespace dtpsim {
namespace {

using namespace dtpsim::literals;

TEST(Integration, EverythingAtOnce) {
  sim::Simulator sim(777);
  net::NetworkParams np;
  np.enable_drift = true;
  net::Network net(sim, np);
  auto tree = net::build_paper_tree(net);

  // DTP everywhere.
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  // PTP: leaf S4 is the grandmaster, S7 and S10 are clients; the
  // aggregation switches act as transparent clocks.
  ptp::GrandmasterParams gp;
  gp.sync_interval = 250_ms;
  ptp::Grandmaster gm(sim, *tree.leaves[0], gp);
  std::vector<std::unique_ptr<ptp::TransparentClockAdapter>> tcs;
  for (auto* sw : net.switches())
    tcs.push_back(std::make_unique<ptp::TransparentClockAdapter>(*sw));
  ptp::PtpClientParams cp;
  cp.delay_req_interval = 187_ms;
  ptp::PtpClient ptp_c1(sim, *tree.leaves[3], gm.phc(), cp);
  ptp::PtpClient ptp_c2(sim, *tree.leaves[6], gm.phc(), cp);

  // NTP: S5 serves, S8 syncs.
  ntp::NtpServer ntp_server(sim, *tree.leaves[1]);
  ntp::NtpClientParams ncp;
  ncp.poll_interval = 250_ms;
  ntp::NtpClient ntp_client(sim, *tree.leaves[4], tree.leaves[1]->addr(),
                            ntp_server.clock(), ncp);

  // DTP daemons on two leaves.
  dtp::DaemonParams dp;
  dp.poll_period = 20_ms;
  dp.sample_period = 5_ms;
  dtp::Daemon daemon_a(sim, *dtp.agent_of(tree.leaves[2]), dp, 19.0);
  dtp::Daemon daemon_b(sim, *dtp.agent_of(tree.leaves[7]), dp, -12.0);

  gm.start();
  ptp_c1.start();
  ptp_c2.start();
  ntp_client.start();
  daemon_a.start();
  daemon_b.start();

  // Converge everything.
  sim.run_until(5_sec);

  // Phase 2: cross-aggregation load appears.
  net::TrafficParams tp;
  tp.rate_bps = 4e9;
  tp.burst_frames = 32;
  net.add_traffic(*tree.leaves[2], tree.leaves[5]->addr(), tp).start();
  net.add_traffic(*tree.leaves[5], tree.leaves[2]->addr(), tp).start();
  sim.run_until(7_sec);

  // Phase 3: a leaf link fails and is re-cabled (DTP must re-INIT). S11 is
  // leaf index 7; its cable is the last one the tree builder created.
  dtp::Agent* a11 = dtp.agent_of(tree.leaves[7]);
  ASSERT_EQ(a11->port_logic(0).state(), dtp::PortState::kSynced);
  phy::PhyPort& leaf_port = tree.leaves[7]->nic_port();
  phy::PhyPort* agg_port = leaf_port.peer();
  ASSERT_NE(agg_port, nullptr);
  net.cables().back()->disconnect();
  ASSERT_EQ(a11->port_logic(0).state(), dtp::PortState::kDown);
  sim.run_until(7'500_ms);
  net.connect_ports(leaf_port, *agg_port);
  sim.run_until(10_sec);

  // --- Verdicts ----------------------------------------------------------
  // DTP: everyone (including the re-cabled S11) within the 4-hop bound.
  EXPECT_TRUE(dtp.all_synced());
  double dtp_worst = 0;
  dtp::testutil::run_sampled(sim, 11_sec, 200_us, [&](fs_t t) {
    dtp_worst = std::max(dtp_worst, dtp.max_pairwise_offset_ticks(t));
  });
  EXPECT_LE(dtp_worst, 17.0) << "4TD (16) + sampling tick";

  // Daemons agree to software precision.
  const fs_t now = sim.now();
  EXPECT_LT(std::abs(daemon_a.get_dtp_counter(now) - daemon_b.get_dtp_counter(now)),
            40.0);

  // PTP: locked, somewhere between tens of ns and the sub-ms band (the
  // tree is only lightly congested on the PTP paths).
  for (auto* c : {&ptp_c1, &ptp_c2}) {
    EXPECT_GT(c->syncs_completed(), 20u);
    const auto& pts = c->true_series().points();
    double tail = 0;
    for (std::size_t i = pts.size() * 3 / 4; i < pts.size(); ++i)
      tail = std::max(tail, std::abs(pts[i].value));
    EXPECT_LT(tail, 500'000.0);
    EXPECT_GT(tail, 2.0) << "PTP cannot be implausibly perfect";
  }

  // NTP: microsecond decade.
  {
    const auto& pts = ntp_client.true_series().points();
    double tail = 0;
    for (std::size_t i = pts.size() * 3 / 4; i < pts.size(); ++i)
      tail = std::max(tail, std::abs(pts[i].value));
    EXPECT_LT(tail, 2'000'000.0);
    EXPECT_GT(tail, 100.0);
  }

  // Zero-overhead invariant survived everything: DTP added no frames. All
  // frames on leaf S6 (no apps there beyond DTP) must be... none sent.
  EXPECT_EQ(tree.leaves[2]->nic().stats().tx_frames > 0, true)
      << "traffic source did send";
  // S9 (leaves[5] is a traffic node; use S10 = leaves[6], a pure PTP client):
  // its NIC sent only PTP frames, counted by the client.
  EXPECT_LE(tree.leaves[6]->nic().stats().tx_frames,
            ptp_c2.delay_reqs_sent() + 5);
}

}  // namespace
}  // namespace dtpsim
