/// Bit-exact equivalence of the analytic tick-bridging engine (DESIGN.md §12):
/// running with EngineMode::kBridged — beacon timers, control-block arrivals
/// and CDC visibility events replaced by analytic bridge steps, quiet spans
/// fused without touching the heap — must reproduce the exact engine's runs
/// event-for-event: offset traces, event counts per category, per-port
/// frame/control counts, agent adjustment counters, and chaos verdicts.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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
/// iff these compare equal; `fused` is engine-private bookkeeping and is
/// deliberately excluded (it is how the modes are *allowed* to differ).
struct RunResult {
  // offsets[sample][agent] = true counter offset vs agent 0, in units.
  std::vector<std::vector<long long>> offsets;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::vector<std::uint64_t> by_category;
  std::vector<std::uint64_t> frames_sent;
  std::vector<std::uint64_t> control_sent;
  std::vector<std::uint64_t> fifo_crossings;
  std::vector<std::uint64_t> fifo_extra;
  std::vector<std::uint64_t> adjustments;
  std::vector<std::uint64_t> resets;
  // (class, converged, reconverged_at) per chaos probe, in report order.
  std::vector<std::tuple<std::string, bool, fs_t>> verdicts;

  bool operator==(const RunResult&) const = default;
};

struct RunConfig {
  Simulator::EngineMode mode = Simulator::EngineMode::kExact;
  unsigned threads = 1;
  bool traffic = true;  ///< MTU saturation pairs (forces exact fallbacks)
  bool chaos = true;    ///< link flap + BER burst mid-run
};

RunResult run_fig5(const RunConfig& cfg, std::uint64_t* fused_out = nullptr) {
  Simulator sim(42);
  sim.set_engine(cfg.mode);
  net::NetworkParams np;
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  if (cfg.traffic) {
    // Frames keep the line busy: every beacon that lands on a busy or queued
    // slot must take the exact fallback path, and arrivals interleave with
    // bridged steps at shared instants.
    net::TrafficParams tp;
    tp.saturate = true;
    tp.frame_bytes = 1518;
    net.add_traffic(*topo.leaves[0], topo.leaves[5]->addr(), tp).start();
    net.add_traffic(*topo.leaves[3], topo.leaves[7]->addr(), tp).start();
  }

  chaos::ChaosEngine chaos_eng(net, dtp);
  if (cfg.chaos) {
    // Faults land inside bridged quiet spans: the flap cancels pending
    // bridge steps (purge + bridge_cancel paths), the BER burst corrupts
    // control blocks that travel as bridge arrivals.
    chaos::FaultPlan plan;
    plan.add(chaos::FaultSpec::link_flap(*topo.aggs[0], *topo.leaves[0],
                                         from_us(900), from_us(150)));
    plan.add(chaos::FaultSpec::ber_burst(*topo.root, *topo.aggs[1],
                                         from_us(1200), from_us(200), 1e-5));
    chaos_eng.schedule(plan);
  }

  if (cfg.threads > 1) sim.set_threads(cfg.threads);

  RunResult r;
  const fs_t t_end = cfg.traffic ? from_ms(3) : from_ms(6);
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
      r.fifo_crossings.push_back(d->port(p).fifo_crossings());
      r.fifo_extra.push_back(d->port(p).fifo_extra_cycles());
    }
  }
  for (std::size_t i = 0; i < dtp.size(); ++i) {
    r.adjustments.push_back(dtp.agent(i).global_adjustments());
    r.resets.push_back(dtp.agent(i).counter_resets());
  }
  for (const chaos::ProbeResult& pr : chaos_eng.report().results())
    r.verdicts.emplace_back(pr.fault_class, pr.converged, pr.reconverged_at);
  if (fused_out != nullptr) *fused_out = st.fused;
  return r;
}

class EngineBridge : public ::testing::Test {
 protected:
  static const RunResult& exact_serial() {
    static const RunResult r = run_fig5({});
    return r;
  }
};

TEST_F(EngineBridge, ExactBaselineIsSaneAndNeverFuses) {
  std::uint64_t fused = ~0ull;
  const RunResult s = run_fig5({}, &fused);
  ASSERT_FALSE(s.offsets.empty());
  EXPECT_GT(s.executed, 100000u);
  EXPECT_EQ(s.verdicts.size(), 2u);
  EXPECT_EQ(fused, 0u) << "exact mode must never take the fused path";
  EXPECT_EQ(s, exact_serial());
}

TEST_F(EngineBridge, BridgedSerialMatchesExact) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  std::uint64_t fused = 0;
  const RunResult b = run_fig5(cfg, &fused);
  EXPECT_EQ(b, exact_serial());
  EXPECT_GT(fused, 0u) << "bridge never engaged; test is vacuous";
}

TEST_F(EngineBridge, BridgedTwoThreadsMatchesExactSerial) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  cfg.threads = 2;
  EXPECT_EQ(run_fig5(cfg), exact_serial());
}

TEST_F(EngineBridge, BridgedFourThreadsMatchesExactSerial) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  cfg.threads = 4;
  EXPECT_EQ(run_fig5(cfg), exact_serial());
}

TEST_F(EngineBridge, QuietRunFusesMostControlTraffic) {
  // No frame traffic: after INIT the run is beacons + CDC crossings, the
  // workload the bridge exists for. Digest equality still required, and the
  // majority of executed events must have skipped the heap.
  RunConfig exact;
  exact.traffic = false;
  RunConfig bridged = exact;
  bridged.mode = Simulator::EngineMode::kBridged;
  std::uint64_t fused = 0;
  const RunResult b = run_fig5(bridged, &fused);
  const RunResult e = run_fig5(exact);
  EXPECT_EQ(b, e);
  EXPECT_GT(fused, b.executed / 4)
      << "quiet workload should fuse a large fraction of events";
}

TEST_F(EngineBridge, SetThreadsWithPendingBridgeStepsThrows) {
  // Sharding moves events between queues; bridge tokens name a queue, so
  // re-sharding mid-flight is refused rather than silently misrouted.
  Simulator sim(7);
  sim.set_engine(Simulator::EngineMode::kBridged);
  net::NetworkParams np;
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(from_ms(1));  // ports sync; beacon bridge steps now pending
  ASSERT_TRUE(dtp.all_synced());
  EXPECT_THROW(sim.set_threads(2), std::logic_error);
}

}  // namespace
}  // namespace dtpsim::sim
