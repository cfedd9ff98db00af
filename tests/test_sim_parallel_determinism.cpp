/// Bit-exact equivalence of the parallel conservative engine (DESIGN.md §9):
/// running the Fig. 5 tree under MTU saturation + DTP + a chaos campaign on
/// 2..4 worker threads must reproduce the serial run exactly — per-device
/// offset traces, event counts per category, per-port frame/control counts,
/// agent adjustment counters, and chaos verdicts. The [parallel] label routes
/// this binary through the tsan test preset.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::sim {
namespace {

using namespace dtpsim::literals;

/// Everything a run observably produces. Two runs are "the same simulation"
/// iff these compare equal.
struct RunResult {
  // offsets[sample][agent] = true counter offset vs agent 0, in units.
  std::vector<std::vector<long long>> offsets;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::vector<std::uint64_t> by_category;
  std::vector<std::uint64_t> frames_sent;
  std::vector<std::uint64_t> control_sent;
  std::vector<std::uint64_t> adjustments;
  std::vector<std::uint64_t> resets;
  // (class, converged, reconverged_at) per chaos probe, in report order.
  std::vector<std::tuple<std::string, bool, fs_t>> verdicts;

  bool operator==(const RunResult&) const = default;
};

RunResult run_fig5(unsigned threads, int* shards_out = nullptr) {
  Simulator sim(42);
  // The exact engine, so every event (cross-shard deliveries included) runs
  // through a Callback; test_engine_bridge runs this network on the default
  // bridged engine at 2 and 4 threads.
  sim.set_engine(Simulator::EngineMode::kExact);
  net::NetworkParams np;
  // Metres of fiber make femtoseconds of lookahead: 1 us of propagation per
  // cable gives the partitioner a usable conservative window.
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  // MTU saturation pairs on distinct aggregation switches, so frames cross
  // the root (maximum cross-shard traffic under any partition).
  net::TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = 1518;
  net.add_traffic(*topo.leaves[0], topo.leaves[5]->addr(), tp).start();
  net.add_traffic(*topo.leaves[3], topo.leaves[7]->addr(), tp).start();

  // A small campaign: one flap on a leaf link, one BER burst near the root.
  chaos::ChaosEngine chaos_eng(net, dtp);
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*topo.aggs[0], *topo.leaves[0],
                                       from_us(900), from_us(150)));
  plan.add(chaos::FaultSpec::ber_burst(*topo.root, *topo.aggs[1], from_us(1200),
                                       from_us(200), 1e-5));
  chaos_eng.schedule(plan);

  if (threads > 1) sim.set_threads(threads);
  if (shards_out != nullptr) *shards_out = static_cast<int>(sim.shard_count());

  RunResult r;
  const fs_t t_end = from_ms(3);
  while (sim.now() < t_end) {
    sim.run_until(sim.now() + from_us(100));
    std::vector<long long> row;
    for (std::size_t i = 1; i < dtp.size(); ++i)
      row.push_back(static_cast<long long>(
          dtp::true_offset_units(dtp.agent(0), dtp.agent(i), sim.now())));
    r.offsets.push_back(std::move(row));
  }

  const SimStats st = sim.stats();
  r.scheduled = st.scheduled;
  r.executed = st.executed;
  r.cancelled = st.cancelled;
  r.by_category.assign(st.executed_by_category,
                       st.executed_by_category + kEventCategoryCount);
  for (net::Device* d : net.devices()) {
    for (std::size_t p = 0; p < d->port_count(); ++p) {
      r.frames_sent.push_back(d->port(p).frames_sent());
      r.control_sent.push_back(d->port(p).control_blocks_sent());
    }
  }
  for (std::size_t i = 0; i < dtp.size(); ++i) {
    r.adjustments.push_back(dtp.agent(i).global_adjustments());
    r.resets.push_back(dtp.agent(i).counter_resets());
  }
  for (const chaos::ProbeResult& pr : chaos_eng.report().results())
    r.verdicts.emplace_back(pr.fault_class, pr.converged, pr.reconverged_at);
  return r;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  static const RunResult& serial() {
    static const RunResult r = run_fig5(1);
    return r;
  }
};

TEST_F(ParallelDeterminism, SerialBaselineIsSane) {
  const RunResult& s = serial();
  ASSERT_FALSE(s.offsets.empty());
  ASSERT_EQ(s.offsets.front().size(), 11u);  // 12 devices, offsets vs agent 0
  EXPECT_GT(s.executed, 100000u);
  EXPECT_EQ(s.verdicts.size(), 2u);
}

TEST_F(ParallelDeterminism, TwoThreadsMatchesSerial) {
  int shards = 0;
  const RunResult par = run_fig5(2, &shards);
  EXPECT_EQ(shards, 2);
  EXPECT_EQ(par, serial());
}

TEST_F(ParallelDeterminism, ThreeThreadsMatchesSerial) {
  int shards = 0;
  const RunResult par = run_fig5(3, &shards);
  EXPECT_GE(shards, 2);
  EXPECT_EQ(par, serial());
}

TEST_F(ParallelDeterminism, FourThreadsMatchesSerial) {
  int shards = 0;
  const RunResult par = run_fig5(4, &shards);
  EXPECT_GE(shards, 2);
  EXPECT_EQ(par, serial());
}

TEST_F(ParallelDeterminism, ParallelRunsAreStableAcrossRepeats) {
  // Same thread count twice: guards against schedule-dependent tie-breaks
  // (mailbox drain order must be unobservable, not merely serial-matching).
  EXPECT_EQ(run_fig5(4), run_fig5(4));
}

/// Two switches with two hosts each and no cable between them: a partition
/// that cuts no cable, whose lookahead is unbounded. Returns the events
/// fired by `run_until(50 us)`.
std::uint64_t run_islands(unsigned threads, ParallelStats* ps = nullptr) {
  Simulator sim(9);
  net::Network net(sim);
  for (int i = 0; i < 2; ++i) {
    net::Switch& sw = net.add_switch("s" + std::to_string(i));
    for (int h = 0; h < 2; ++h)
      net.connect(sw, net.add_host("h" + std::to_string(i) + std::to_string(h)));
  }
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  if (threads > 1) sim.set_threads(threads);
  sim.run_until(50_us);
  EXPECT_EQ(sim.now(), 50_us);
  if (ps != nullptr) *ps = sim.parallel_stats();
  return sim.events_executed();
}

TEST(ParallelIslands, UncutPartitionRunsToTheHorizonLikeSerial) {
  // The unbounded lookahead times a slice's epoch count overflows fs_t;
  // the slice must then end at the horizon, or run_until never returns
  // (this binary's ctest TIMEOUT turns such a hang into a failure).
  ParallelStats ps;
  const std::uint64_t serial = run_islands(1);
  const std::uint64_t sharded = run_islands(2, &ps);
  ASSERT_EQ(ps.shards, 2) << "the islands did not split; the test is vacuous";
  EXPECT_EQ(ps.lookahead, 0) << "a cut cable bounds the lookahead";
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(sharded, serial);
}

}  // namespace
}  // namespace dtpsim::sim
