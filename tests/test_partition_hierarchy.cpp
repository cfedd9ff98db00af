/// Two-level (pod-aware) partitioning: determinism of the partitioner
/// itself, pod integrity under packing, the cross-pod-only cut property,
/// and — end to end — bit-exact RunDigest equality of a k=32 fat-tree pod
/// slice run serially and on 2/4 worker threads. The [parallel] label
/// routes this binary through the tsan test preset.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "check/sentinel.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/partition.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::sim {
namespace {

/// Synthetic datacenter-ish input: `n_pods` pods of `pod_nodes` nodes each
/// (chained by short intra-pod cables), plus two shared "core" nodes outside
/// any pod, each pod uplinked to both cores by long cables.
PartitionInput pod_graph(std::int32_t n_pods, std::int32_t pod_nodes,
                         fs_t intra_delay, fs_t uplink_delay) {
  PartitionInput in;
  in.nodes = n_pods * pod_nodes + 2;
  in.weights.assign(static_cast<std::size_t>(in.nodes), 1);
  in.pods.assign(static_cast<std::size_t>(in.nodes), -1);
  const std::int32_t core0 = n_pods * pod_nodes;
  const std::int32_t core1 = core0 + 1;
  for (std::int32_t p = 0; p < n_pods; ++p) {
    const std::int32_t base = p * pod_nodes;
    for (std::int32_t n = 0; n < pod_nodes; ++n)
      in.pods[static_cast<std::size_t>(base + n)] = p;
    for (std::int32_t n = 1; n < pod_nodes; ++n)
      in.edges.push_back({base + n - 1, base + n, intra_delay});
    in.edges.push_back({base, core0, uplink_delay});
    in.edges.push_back({base, core1, uplink_delay});
  }
  return in;
}

bool same_result(const PartitionResult& a, const PartitionResult& b) {
  return a.shard_of == b.shard_of && a.shards == b.shards &&
         a.lookahead == b.lookahead && a.cut_edges == b.cut_edges &&
         a.shard_weight == b.shard_weight && a.two_level == b.two_level &&
         a.pod_count == b.pod_count && a.pods_intact == b.pods_intact;
}

TEST(PartitionHierarchy, IdenticalInputIdenticalResult) {
  const PartitionInput in = pod_graph(8, 6, from_ns(50), from_us(1));
  for (std::int32_t k : {2, 3, 4}) {
    const PartitionResult a = partition_graph(in, k);
    const PartitionResult b = partition_graph(in, k);
    EXPECT_TRUE(same_result(a, b)) << "max_shards=" << k;
  }
}

TEST(PartitionHierarchy, PodsPackWholeAndOnlyUplinksAreCut) {
  const PartitionInput in = pod_graph(8, 6, from_ns(50), from_us(1));
  const PartitionResult r = partition_graph(in, 4);
  EXPECT_TRUE(r.two_level);
  EXPECT_EQ(r.pod_count, 8);
  EXPECT_TRUE(r.pods_intact);
  EXPECT_GE(r.shards, 2);
  // Every node of a pod lands on one shard.
  for (std::int32_t p = 0; p < 8; ++p)
    for (std::int32_t n = 1; n < 6; ++n)
      EXPECT_EQ(r.shard_of[static_cast<std::size_t>(p * 6 + n)],
                r.shard_of[static_cast<std::size_t>(p * 6)])
          << "pod " << p;
  // Cut cables are exclusively cross-pod, so the lookahead is the uplink
  // delay — the long cables pay for the epochs, the short ones never do.
  ASSERT_FALSE(r.cut_edges.empty());
  for (std::size_t i : r.cut_edges) {
    const auto& e = in.edges[i];
    EXPECT_NE(in.pods[static_cast<std::size_t>(e.a)],
              in.pods[static_cast<std::size_t>(e.b)]);
  }
  EXPECT_EQ(r.lookahead, from_us(1));
}

TEST(PartitionHierarchy, FlatModeUnchangedByEmptyPodVector) {
  PartitionInput in = pod_graph(8, 6, from_ns(50), from_us(1));
  const PartitionResult two = partition_graph(in, 4);
  in.pods.clear();
  const PartitionResult flat = partition_graph(in, 4);
  EXPECT_FALSE(flat.two_level);
  EXPECT_EQ(flat.pod_count, 0);
  EXPECT_TRUE(flat.pods_intact);  // vacuously: nothing to split
  // Flat contraction also collapses the short intra-pod cables here, so the
  // realized sharding agrees — the pod tags are a constraint, not a rewrite.
  EXPECT_EQ(flat.shard_of, two.shard_of);
}

TEST(PartitionHierarchy, SplitsAPodOnlyWhenBalanceDemandsIt) {
  // One giant pod (weight 60) and three tiny ones on two shards: the giant
  // pod exceeds the 1.25x balance cap, so the sweep must descend into it.
  PartitionInput in = pod_graph(4, 6, from_us(2), from_us(1));
  for (std::int32_t n = 0; n < 6; ++n)
    in.weights[static_cast<std::size_t>(n)] = 10;
  const PartitionResult r = partition_graph(in, 2);
  EXPECT_TRUE(r.two_level);
  EXPECT_FALSE(r.pods_intact);
  EXPECT_EQ(r.shards, 2);
}

/// End-to-end digest of everything a DTP fat-tree run observably produces:
/// per-agent offsets at fixed probe times, engine event totals, per-port
/// frame/control counters.
struct SliceRun {
  check::RunDigest digest;
  std::uint64_t executed = 0;
  std::int32_t shards = 0;
  bool synced = false;
};

SliceRun run_k32_slice(unsigned threads) {
  Simulator sim(77);
  net::NetworkParams np;
  // Metres of fiber make femtoseconds of lookahead: 1 us of propagation per
  // cable gives the partitioner a usable conservative window.
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  // A 2-pod slice of the k=32 fabric: 256 cores + 2x(16 agg + 16 edge) +
  // 64 hosts = 384 devices, pod-tagged by the builder.
  net::FatTreeParams fp;
  fp.k = 32;
  fp.hosts_per_edge = 2;
  fp.pods = 2;
  const net::FatTreeTopology topo = net::build_fat_tree(net, fp);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  if (threads > 1) sim.set_threads(threads);

  SliceRun r;
  r.shards = sim.shard_count();
  const fs_t t_end = from_us(400);
  while (sim.now() < t_end) {
    sim.run_until(sim.now() + from_us(50));
    for (std::size_t i = 1; i < dtp.size(); ++i)
      r.digest.mix(static_cast<std::uint64_t>(
          dtp::true_offset_units(dtp.agent(0), dtp.agent(i), sim.now())));
  }
  r.synced = dtp.all_synced();
  const SimStats st = sim.stats();
  r.executed = st.executed;
  r.digest.mix(st.scheduled);
  r.digest.mix(st.executed);
  r.digest.mix(st.cancelled);
  for (net::Device* d : net.devices())
    for (std::size_t p = 0; p < d->port_count(); ++p) {
      r.digest.mix(d->port(p).frames_sent());
      r.digest.mix(d->port(p).control_blocks_sent());
    }
  (void)topo;
  return r;
}

class K32SliceDeterminism : public ::testing::Test {
 protected:
  static const SliceRun& serial() {
    static const SliceRun r = run_k32_slice(1);
    return r;
  }
};

TEST_F(K32SliceDeterminism, SerialBaselineIsSane) {
  const SliceRun& s = serial();
  EXPECT_TRUE(s.synced);
  EXPECT_GT(s.executed, 100000u);
}

TEST_F(K32SliceDeterminism, TwoThreadsBitExact) {
  const SliceRun par = run_k32_slice(2);
  EXPECT_EQ(par.shards, 2);
  EXPECT_EQ(par.digest, serial().digest);
  EXPECT_EQ(par.executed, serial().executed);
}

TEST_F(K32SliceDeterminism, FourThreadsBitExact) {
  const SliceRun par = run_k32_slice(4);
  EXPECT_GE(par.shards, 2);
  EXPECT_EQ(par.digest, serial().digest);
  EXPECT_EQ(par.executed, serial().executed);
}

}  // namespace
}  // namespace dtpsim::sim
