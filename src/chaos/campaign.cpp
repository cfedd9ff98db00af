#include "chaos/campaign.hpp"

namespace dtpsim::chaos {

net::NetworkParams CanonicalCampaign::net_params() {
  net::NetworkParams np;
  np.enable_drift = true;
  np.mac.data_holdoff = from_us(20);  // link-training stand-in; see header
  return np;
}

dtp::DtpParams CanonicalCampaign::dtp_params() {
  dtp::DtpParams p;
  p.beacon_interval_ticks = 800;  // 5.12 us; see campaign.hpp
  p.enable_jump_detector = true;
  p.jump_threshold_ticks = 0;  // rate mode: every positive jump counts
  p.max_jumps = 225;           // honest worst case ~156 per window
  p.jump_window = from_ms(5);
  p.fault_cooldown = from_ms(1);
  return p;
}

FaultPlan CanonicalCampaign::plan(const net::PaperTreeTopology& tree, fs_t t0) {
  net::Switch& root = *tree.root;
  net::Switch& s1 = *tree.aggs[0];
  net::Switch& s2 = *tree.aggs[1];
  net::Switch& s3 = *tree.aggs[2];

  FaultPlan plan;
  plan.add(FaultSpec::link_flap(*tree.leaves[0], s1, t0, from_us(50)))
      .add(FaultSpec::flap_storm(*tree.leaves[1], s1, t0 + from_ms(1), 6, from_us(150),
                                 from_us(60)))
      .add(FaultSpec::port_fail(root, s2, t0 + from_ms(2) + from_us(500), from_us(250)))
      .add(FaultSpec::ber_burst(*tree.leaves[3], s2, t0 + from_ms(4), from_ms(1) + from_us(500),
                                1e-5))
      .add(FaultSpec::beacon_loss(*tree.leaves[5], s3, t0 + from_ms(7), from_ms(1), 0.5))
      .add(FaultSpec::node_crash(*tree.leaves[4], t0 + from_ms(9), from_us(400)))
      .add(FaultSpec::rogue_oscillator(*tree.leaves[7], t0 + from_ms(15), 500.0,
                                       from_ms(6), from_ms(2)));
  return plan;
}

void CanonicalCampaign::start_heavy_load(net::Network& net,
                                         const net::PaperTreeTopology& tree,
                                         std::uint32_t frame_bytes) {
  net::TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = frame_bytes;
  const std::size_t n = tree.leaves.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Cross-aggregation destinations so uplinks and root trunks carry load.
    net::Host& src = *tree.leaves[i];
    net::Host& dst = *tree.leaves[(i + 3) % n];
    net.add_traffic(src, dst.addr(), tp).start();
  }
}

}  // namespace dtpsim::chaos
