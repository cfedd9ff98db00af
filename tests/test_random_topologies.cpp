/// Property sweep: random tree topologies of random sizes and skews must
/// all satisfy the 4TD bound, where D is the tree's hop diameter. This is
/// the paper's scalability claim tested beyond the fixed shapes of the
/// evaluation section.

#include <gtest/gtest.h>

#include "dtp/network.hpp"
#include "dtp_test_util.hpp"
#include "net/topology.hpp"

namespace dtpsim::dtp {
namespace {

using namespace dtpsim::literals;

struct RandomTree {
  std::vector<net::Device*> devices;
  std::size_t diameter_hops = 0;
};

/// Build a random tree: `n_switches` switches in a random tree shape, one
/// host hanging off every switch.
RandomTree build_random_tree(net::Network& net, Rng& rng, std::size_t n_switches) {
  RandomTree tree;
  std::vector<net::Switch*> switches;
  for (std::size_t i = 0; i < n_switches; ++i) {
    switches.push_back(&net.add_switch("sw" + std::to_string(i)));
    tree.devices.push_back(switches.back());
    if (i > 0) net.connect(*switches[rng.uniform(i)], *switches[i]);
  }
  for (std::size_t i = 0; i < n_switches; ++i) {
    auto& host = net.add_host("h" + std::to_string(i));
    net.connect(*switches[i], host);
    tree.devices.push_back(&host);
  }
  tree.diameter_hops = net::hop_diameter(net);
  return tree;
}

class RandomTrees : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTrees, FourTDBoundHolds) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  net::NetworkParams np;
  np.enable_drift = true;
  net::Network net(sim, np);
  Rng shape_rng(seed * 7919);
  const std::size_t n_switches = 2 + shape_rng.uniform(6);
  const RandomTree tree = build_random_tree(net, shape_rng, n_switches);

  DtpNetwork dtp = enable_dtp(net);
  sim.run_until(from_ms(3));
  ASSERT_TRUE(dtp.all_synced()) << "seed " << seed;

  double worst = 0;
  testutil::run_sampled(sim, from_ms(40), from_us(50), [&](fs_t t) {
    worst = std::max(worst, dtp.max_pairwise_offset_ticks(t));
  });
  const double bound = 4.0 * static_cast<double>(tree.diameter_hops);
  EXPECT_LE(worst, bound) << "seed " << seed << " diameter " << tree.diameter_hops
                          << " devices " << tree.devices.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrees, ::testing::Range<std::uint64_t>(1, 17));

class RandomTreesMasterMode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreesMasterMode, MasterTreeBoundHolds) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed + 5000);
  net::Network net(sim);
  Rng shape_rng(seed * 104729);
  const RandomTree tree = build_random_tree(net, shape_rng, 2 + shape_rng.uniform(4));

  DtpParams params;
  params.mode = SyncMode::kMasterTree;
  DtpNetwork dtp = enable_dtp(net, params);
  EXPECT_EQ(configure_master_tree(dtp, *tree.devices[0]), dtp.size());
  sim.run_until(from_ms(3));

  double worst = 0;
  testutil::run_sampled(sim, from_ms(40), from_us(50), [&](fs_t t) {
    worst = std::max(worst, dtp.max_pairwise_offset_ticks(t));
  });
  // Parent-following gives a comparable per-hop budget (a couple of ticks
  // of tracking error per level).
  EXPECT_LE(worst, 6.0 * static_cast<double>(tree.diameter_hops))
      << "seed " << seed << " diameter " << tree.diameter_hops;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreesMasterMode, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dtpsim::dtp
