#pragma once

/// Reusable experiment setups mirroring the paper's two testbeds (Fig. 5):
/// the DTP tree (S0 root, S1-S3 aggregation, S4-S11 leaves) and the PTP
/// star (timeserver + clients through one cut-through switch).

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "dtp/network.hpp"
#include "dtp/probe.hpp"
#include "net/topology.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"
#include "ptp/transparent.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::benchutil {

/// Find which port of `receiver` is cabled to some port of `sender`.
inline std::size_t port_toward(dtp::Agent& receiver, dtp::Agent& sender) {
  for (std::size_t r = 0; r < receiver.port_count(); ++r) {
    auto* peer = receiver.port_logic(r).phy_port().peer();
    for (std::size_t s = 0; s < sender.port_count(); ++s) {
      if (peer == &sender.port_logic(s).phy_port()) return r;
    }
  }
  throw std::logic_error("port_toward: agents are not adjacent");
}

inline std::size_t port_toward_device(dtp::Agent& receiver, dtp::Agent& sender,
                                      std::size_t sender_port) {
  auto* target = &sender.port_logic(sender_port).phy_port();
  for (std::size_t r = 0; r < receiver.port_count(); ++r)
    if (receiver.port_logic(r).phy_port().peer() == target) return r;
  throw std::logic_error("port_toward_device: not adjacent");
}

/// Both testbeds run with the oscillators' thermal drift walk on.
inline net::NetworkParams default_net_params() {
  net::NetworkParams np;
  np.enable_drift = true;
  return np;
}

/// The Fig. 5 DTP deployment with the paper's measurement probes.
struct DtpTreeExperiment {
  sim::Simulator sim;
  net::Network net;
  net::PaperTreeTopology tree;
  dtp::DtpNetwork dtp;
  std::vector<std::string> probe_names;
  std::vector<std::unique_ptr<dtp::OffsetProbe>> probes;
  std::vector<std::pair<dtp::Agent*, dtp::Agent*>> probe_pairs;

  DtpTreeExperiment(std::uint64_t seed, dtp::DtpParams params,
                    net::NetworkParams net_params = default_net_params())
      : sim(seed), net(sim, net_params), tree(net::build_paper_tree(net)) {
    dtp = dtp::enable_dtp(net, params);
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

  void add_probe(const std::string& name, net::Device& sender_dev, net::Device& receiver_dev) {
    dtp::Agent* sender = dtp.agent_of(&sender_dev);
    dtp::Agent* receiver = dtp.agent_of(&receiver_dev);
    const std::size_t s_port = port_toward(*sender, *receiver);
    const std::size_t r_port = port_toward_device(*receiver, *sender, s_port);
    probe_names.push_back(name);
    probe_pairs.emplace_back(sender, receiver);
    probes.push_back(std::make_unique<dtp::OffsetProbe>(sim, *sender, s_port, *receiver,
                                                        r_port, from_us(10)));
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

  /// Cross-aggregation saturating flows loading every link with `bytes`
  /// frames (the "heavily loaded" condition of Fig. 6a/6b).
  void start_heavy_load(std::uint32_t frame_bytes) {
    chaos::CanonicalCampaign::start_heavy_load(net, tree, frame_bytes);
  }
};

/// The paper's PTP testbed: clients + timeserver around one cut-through
/// switch configured as a transparent clock, Timekeeper-style smoothing.
struct PtpStarExperiment {
  sim::Simulator sim;
  net::Network net;
  net::StarTopology star;  ///< hosts[0] is the timeserver
  std::unique_ptr<ptp::Grandmaster> gm;
  std::vector<std::unique_ptr<ptp::PtpClient>> clients;
  std::unique_ptr<ptp::TransparentClockAdapter> tc;

  /// \param time_scale  divides the paper's 1 s sync interval so shorter
  ///                    simulations reach steady state (4 = 250 ms syncs)
  PtpStarExperiment(std::uint64_t seed, std::size_t n_clients, int time_scale = 4,
                    ptp::TransparentClockParams tc_params = {})
      : sim(seed),
        net(sim, default_net_params()),
        star(net::build_star(net, n_clients + 1)) {
    ptp::GrandmasterParams gp;
    gp.sync_interval = from_sec(1) / time_scale;
    gp.announce_interval = 2 * gp.sync_interval;
    gm = std::make_unique<ptp::Grandmaster>(sim, *star.hosts[0], gp);
    ptp::PtpClientParams cp;
    cp.delay_req_interval = from_ms(750) / time_scale;  // 2 per 1.5 s, scaled
    for (std::size_t i = 1; i <= n_clients; ++i)
      clients.push_back(std::make_unique<ptp::PtpClient>(sim, *star.hosts[i],
                                                         gm->phc(), cp));
    tc = std::make_unique<ptp::TransparentClockAdapter>(*star.hub, tc_params);
    gm->start();
    for (auto& c : clients) c->start();
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
      net::Host& src = *star.hosts[1 + i];
      net.add_traffic(src, star.hosts[1 + (i + 1) % n_senders]->addr(), tp).start();
      net.add_traffic(src, star.hosts[1 + (i + 2) % n_senders]->addr(), tp).start();
    }
  }
};

}  // namespace dtpsim::benchutil
