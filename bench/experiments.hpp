#pragma once

/// Reusable experiment setups mirroring the paper's two testbeds (Fig. 5):
/// the DTP tree (S0 root, S1-S3 aggregation, S4-S11 leaves) and the PTP
/// star (timeserver + clients through one cut-through switch). Both are
/// campaign rows built by stress::Campaign; the benches drive the clock.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "dtp/network.hpp"
#include "dtp/probe.hpp"
#include "net/topology.hpp"
#include "stress/campaign.hpp"

namespace dtpsim::benchutil {

/// Both testbeds run with the oscillators' thermal drift walk on.
inline net::NetworkParams default_net_params() {
  net::NetworkParams np;
  np.enable_drift = true;
  return np;
}

/// The Fig. 5 tree running DTP with `params`, idle until a bench loads it.
inline stress::Scenario dtp_tree_row(dtp::DtpParams params) {
  stress::Scenario s;
  s.net = default_net_params();
  s.dtp = params;
  return s;
}

/// The Fig. 5 DTP deployment with the paper's measurement probes.
struct DtpTreeExperiment {
  stress::Campaign campaign;
  sim::Simulator& sim;
  net::Network& net;
  const net::PaperTreeTopology& tree;
  dtp::DtpNetwork& dtp;
  std::vector<std::string> probe_names;
  std::vector<std::unique_ptr<dtp::OffsetProbe>> probes;
  std::vector<std::pair<dtp::Agent*, dtp::Agent*>> probe_pairs;

  DtpTreeExperiment(std::uint64_t seed, dtp::DtpParams params)
      : campaign(dtp_tree_row(params), stress::RunOptions(seed)),
        sim(campaign.sim()),
        net(campaign.net()),
        tree(campaign.tree()),
        dtp(campaign.dtp()) {
    campaign.start();
    // The measured pairs of Fig. 6a/6b: leaf -> its aggregation switch, and
    // each aggregation switch -> root.
    add_probe("s1-s4", *tree.leaves[0], *tree.aggs[0]);
    add_probe("s1-s5", *tree.leaves[1], *tree.aggs[0]);
    add_probe("s1-s0", *tree.aggs[0], *tree.root);
    add_probe("s2-s7", *tree.leaves[3], *tree.aggs[1]);
    add_probe("s2-s8", *tree.leaves[4], *tree.aggs[1]);
    add_probe("s2-s0", *tree.aggs[1], *tree.root);
    add_probe("s3-s9", *tree.leaves[5], *tree.aggs[2]);
    add_probe("s3-s10", *tree.leaves[6], *tree.aggs[2]);
    add_probe("s3-s11", *tree.leaves[7], *tree.aggs[2]);
    add_probe("s3-s0", *tree.aggs[2], *tree.root);
  }

  /// Probe the link between two adjacent devices, LOGs sent by `sender_dev`.
  void add_probe(const std::string& name, net::Device& sender_dev, net::Device& receiver_dev) {
    dtp::Agent* sender = dtp.agent_of(&sender_dev);
    dtp::Agent* receiver = dtp.agent_of(&receiver_dev);
    for (std::size_t s = 0; s < sender->port_count(); ++s)
      for (std::size_t r = 0; r < receiver->port_count(); ++r)
        if (sender->port_logic(s).phy_port().peer() == &receiver->port_logic(r).phy_port()) {
          probe_names.push_back(name);
          probe_pairs.emplace_back(sender, receiver);
          probes.push_back(
              std::make_unique<dtp::OffsetProbe>(sim, *sender, s, *receiver, r, from_us(10)));
          return;
        }
    throw std::logic_error("add_probe: " + name + " is not a link");
  }

  /// Largest |counter difference| (integer units — the quantity the paper's
  /// 4TD bound constrains) seen for each probed pair while running until
  /// `end`, sampling every `step`.
  std::vector<double> measure_link_offsets(fs_t end, fs_t step = from_us(50)) {
    std::vector<double> worst(probe_pairs.size(), 0.0);
    while (sim.now() < end) {
      sim.run_until(std::min(end, sim.now() + step));
      for (std::size_t i = 0; i < probe_pairs.size(); ++i) {
        const auto d = dtp::true_offset_units(*probe_pairs[i].first,
                                              *probe_pairs[i].second, sim.now());
        const double mag = std::abs(static_cast<double>(static_cast<long long>(d)));
        worst[i] = std::max(worst[i], mag);
      }
    }
    return worst;
  }

  void start_probes() {
    for (auto& p : probes) p->start();
  }

  /// The Fig. 6 phasing: converge idle for 2 ms, then load every link with
  /// cross-aggregation saturating flows of `frame_bytes` frames (the
  /// "heavily loaded" condition of Fig. 6a/6b) and run to 4 ms, where the
  /// measured window starts.
  void converge_then_load(std::uint32_t frame_bytes) {
    sim.run_until(from_ms(2));
    chaos::CanonicalCampaign::start_heavy_load(net, tree, frame_bytes);
    sim.run_until(from_ms(4));
  }
};

/// The paper's PTP testbed as a campaign row: `n_clients` clients and a
/// timeserver (the first host) around one cut-through switch configured as
/// a transparent clock, Timekeeper-style smoothing, no DTP.
/// \param time_scale  divides the paper's 1 s sync interval so shorter
///                    simulations reach steady state (4 = 250 ms syncs)
inline stress::Scenario ptp_star_row(std::size_t n_clients, int time_scale) {
  stress::Scenario s;
  s.net = default_net_params();
  s.dtp.reset();
  s.topology = [n_clients](net::Network& net) { return net::build_star(net, n_clients + 1).hosts; };
  s.ptp = stress::PtpSetup{};
  s.ptp->grandmaster.sync_interval = from_sec(1) / time_scale;
  s.ptp->grandmaster.announce_interval = 2 * s.ptp->grandmaster.sync_interval;
  s.ptp->client.delay_req_interval = from_ms(750) / time_scale;  // 2 per 1.5 s, scaled
  return s;
}

/// The PTP star testbed; `hosts[0]` is the timeserver.
struct PtpStarExperiment {
  stress::Campaign campaign;
  sim::Simulator& sim;
  const std::vector<net::Host*>& hosts;
  ptp::Grandmaster* gm;
  const std::vector<std::unique_ptr<ptp::PtpClient>>& clients;

  PtpStarExperiment(std::uint64_t seed, std::size_t n_clients, int time_scale = 4)
      : campaign(ptp_star_row(n_clients, time_scale), stress::RunOptions(seed)),
        sim(campaign.sim()),
        hosts(campaign.hosts()),
        gm(campaign.grandmaster()),
        clients(campaign.ptp_clients()) {
    campaign.start();
  }

  /// Fig. 6e/6f load: `n` nodes send bursty traffic at `rate_bps` each,
  /// split across two destinations (iperf-style many-to-many). Each
  /// downlink then receives from two senders, so burst coincidences create
  /// the transient fan-in queues that delay Sync messages — one flow per
  /// egress would be perfectly paced by the source NIC and never queue.
  void start_load(std::size_t n_senders, double rate_bps, std::size_t burst_frames) {
    net::TrafficParams tp;
    tp.rate_bps = rate_bps / 2;
    tp.frame_bytes = net::kMtuFrameBytes;
    tp.poisson = true;
    tp.burst_frames = burst_frames;
    for (std::size_t i = 0; i < n_senders; ++i) {
      net::Host& src = *hosts[1 + i];
      campaign.net().add_traffic(src, hosts[1 + (i + 1) % n_senders]->addr(), tp).start();
      campaign.net().add_traffic(src, hosts[1 + (i + 2) % n_senders]->addr(), tp).start();
    }
  }
};

}  // namespace dtpsim::benchutil
