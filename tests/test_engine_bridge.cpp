/// Bit-exact equivalence of the analytic tick-bridging engine (DESIGN.md §12):
/// running with EngineMode::kBridged — beacon timers, control-block arrivals
/// and CDC visibility events replaced by analytic bridge steps, quiet spans
/// fused without touching the heap — must reproduce the exact engine's runs
/// event-for-event: offset traces, event counts per category, per-port
/// frame/control counts, agent adjustment counters, and chaos verdicts.
/// It also pins which engine a caller gets (bridged unless it names the
/// exact reference) and that neither engine heap-allocates callbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "check/sentinel.hpp"
#include "dtp/network.hpp"
#include "dtp/probe.hpp"
#include "net/frame.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stress/campaign.hpp"

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

/// Fills the part of a RunResult that every topology shares: engine
/// counters, per-port PHY counters, agent counters and chaos verdicts.
void collect(const Simulator& sim, const net::Network& net, const dtp::DtpNetwork& dtp,
             const chaos::ChaosEngine& chaos_eng, RunResult& r) {
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
}

/// Appends one row of true counter offsets against agent 0.
void sample_offsets(const Simulator& sim, const dtp::DtpNetwork& dtp, RunResult& r) {
  std::vector<long long> row;
  for (std::size_t i = 1; i < dtp.size(); ++i)
    row.push_back(static_cast<long long>(
        dtp::true_offset_units(dtp.agent(0), dtp.agent(i), sim.now())));
  r.offsets.push_back(std::move(row));
}

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
    sample_offsets(sim, dtp, r);
  }
  collect(sim, net, dtp, chaos_eng, r);
  if (fused_out != nullptr) *fused_out = sim.stats().fused;
  return r;
}

/// A k=8 fat-tree (4 hosts per edge switch, 208 devices, 8 ports per
/// switch) with a link flap mid-run. Unlike the Fig. 5 tree, whose switches
/// have at most 4 ports, each switch here fires 8 sibling beacon timers on
/// one instant (the kTx case of bridge_tx_fusible) and keeps a couple of
/// dozen steps in its node array. No traffic: fat-tree switches flood
/// frames around the fabric's loops.
RunResult run_fat_tree(const RunConfig& cfg, std::uint64_t* fused_out = nullptr,
                       int* shards_out = nullptr) {
  Simulator sim(43);
  sim.set_engine(cfg.mode);
  net::Network net(sim);
  const net::FatTreeTopology ft = net::build_fat_tree(net, 8, 4);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  chaos::ChaosEngine chaos_eng(net, dtp);
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*ft.edge[0], *ft.agg[1], from_us(150),
                                       from_us(50)));
  chaos_eng.schedule(plan);
  if (cfg.threads > 1) sim.set_threads(cfg.threads);
  if (shards_out != nullptr) *shards_out = sim.shard_count();

  RunResult r;
  while (sim.now() < from_us(400)) {
    sim.run_until(sim.now() + from_us(100));
    sample_offsets(sim, dtp, r);
  }
  collect(sim, net, dtp, chaos_eng, r);
  if (fused_out != nullptr) *fused_out = sim.stats().fused;
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

TEST(EngineBridgeFatTree, BridgedSerialAndTwoThreadsMatchExact) {
  std::uint64_t fused = 0;
  int shards = 0;
  const RunResult exact = run_fat_tree({});
  ASSERT_EQ(exact.verdicts.size(), 1u);
  EXPECT_GT(exact.executed, 100000u);

  RunConfig bridged;
  bridged.mode = Simulator::EngineMode::kBridged;
  EXPECT_EQ(run_fat_tree(bridged, &fused), exact);
  EXPECT_GT(fused, exact.executed / 10) << "bridge barely engaged; test is vacuous";

  bridged.threads = 2;
  EXPECT_EQ(run_fat_tree(bridged, nullptr, &shards), exact);
  EXPECT_EQ(shards, 2) << "the fat-tree did not shard";
}

/// Integer-only observables of the quiet k=8 fat-tree (no faults, seed 43,
/// 400 us) folded into one digest: every agent's true offset against agent 0
/// at each 100 us, the engine's schedule/fire/cancel totals, and every
/// port's control-block and CDC counters.
std::string quiet_fat_tree_digest(Simulator::EngineMode mode) {
  Simulator sim(43);
  sim.set_engine(mode);
  net::Network net(sim);
  net::build_fat_tree(net, 8, 4);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  check::RunDigest d;
  for (int slice = 1; slice <= 4; ++slice) {
    sim.run_until(from_us(100) * slice);
    for (std::size_t i = 1; i < dtp.size(); ++i)
      d.mix_i128(dtp::true_offset_units(dtp.agent(i), dtp.agent(0), sim.now()));
  }
  const SimStats st = sim.stats();
  d.mix(st.scheduled);
  d.mix(st.executed);
  d.mix(st.cancelled);
  for (net::Device* dev : net.devices())
    for (std::size_t p = 0; p < dev->port_count(); ++p) {
      d.mix(dev->port(p).control_blocks_sent());
      d.mix(dev->port(p).fifo_crossings());
      d.mix(dev->port(p).fifo_extra_cycles());
    }
  return d.hex();
}

TEST(EngineBridgeFatTree, QuietRunMatchesPinnedDigest) {
  // The exact-vs-bridged differential cannot see a change in code both
  // engines share — the port records, the counter arithmetic, the CDC
  // crossing. This constant was recorded before the per-port records
  // replaced the per-object hot blocks, and every layout change since must
  // reproduce it.
  constexpr const char* kPinned = "277ee52721306375";
  EXPECT_EQ(quiet_fat_tree_digest(Simulator::EngineMode::kBridged), kPinned);
  EXPECT_EQ(quiet_fat_tree_digest(Simulator::EngineMode::kExact), kPinned);
}

TEST(PortRecordLayout, FatTreeDevicesOwnContiguousRunsOfWholeLines) {
  // A device's records are one run in port order (the fat-tree builder
  // reserves them), every record is three whole lines, so no line holds two
  // ports' state — let alone two devices', which may sit on two shards.
  Simulator sim(43);
  net::Network net(sim);
  net::build_fat_tree(net, 8, 4);
  const PortRecords& records = sim.port_records();
  std::uint32_t next_id = 0;
  for (net::Device* dev : net.devices()) {
    ASSERT_GT(dev->port_count(), 0u);
    const std::uint32_t first = dev->port(0).id();
    EXPECT_GE(first, next_id) << dev->name() << " starts inside an earlier device's run";
    for (std::size_t p = 0; p < dev->port_count(); ++p) {
      const std::uint32_t id = dev->port(p).id();
      EXPECT_EQ(id, first + p) << dev->name() << " port " << p;
      const auto addr = reinterpret_cast<std::uintptr_t>(records.record(id));
      EXPECT_EQ(addr % 64, 0u) << dev->name() << " port " << p;
      if (p > 0) {
        EXPECT_EQ(addr - reinterpret_cast<std::uintptr_t>(records.record(id - 1)),
                  PortRecords::kBytes)
            << dev->name() << " port " << p;
      }
    }
    next_id = first + static_cast<std::uint32_t>(dev->port_count());
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PortRecordLifetimeDeathTest, CrashedAgentsRecordHalvesArePoisoned) {
  // A node crash destroys the agent mid-run; its port logics' record halves
  // go out of use with it. A stale read of that state must fault under
  // AddressSanitizer, as a heap use-after-free did before the records, and
  // a restarted agent's halves must be readable again.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim(7);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(from_us(200));
  net::Device& victim = *topo.aggs[1];
  const std::uint32_t id = victim.port(0).id();
  const volatile std::byte* upper = sim.port_records().upper(id);
  const volatile std::byte* phy = sim.port_records().phy(id);
  ASSERT_TRUE(dtp.remove_agent(victim));
  EXPECT_DEATH((void)upper[0], "use-after-poison");
  EXPECT_DEATH((void)upper[PortRecords::kUpperBytes - 1], "use-after-poison");
  (void)phy[0];  // the PHY half lives on with the device
  dtp::Agent& restarted = dtp.attach_agent(victim);
  (void)upper[0];
  EXPECT_EQ(restarted.port_logic(0).id(), id);
  sim.run_until(from_us(400));
  EXPECT_EQ(restarted.port_logic(0).state(), dtp::PortState::kSynced);
}
#endif

TEST_F(EngineBridge, SetThreadsWithPendingBridgeStepsThrows) {
  // Sharding moves pending events between queues; pending bridged steps
  // are not moved, so sharding mid-flight is refused rather than silently
  // leaving them on the coordinator's queue.
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

TEST(EngineDefault, SimulatorDefaultsToBridged) {
  EXPECT_EQ(Simulator().engine_mode(), Simulator::EngineMode::kBridged);
}

/// A short idle Fig. 5 campaign: long enough for the ports to sync and the
/// bridged engine to fuse beacons.
stress::Scenario quiet_tree_scenario() {
  stress::Scenario s;
  s.name = "quiet";
  s.horizon = from_ms(2);
  return s;
}

TEST(EngineDefault, CampaignWithoutBridgedRunsTheExactEngine) {
  // run_differential's baseline and the shrinker's bridged=false candidate
  // rely on this: were the flag ignored, the differential would compare the
  // bridged engine with itself and always agree.
  stress::Campaign c(quiet_tree_scenario(), {1, 1, /*bridged=*/false});
  EXPECT_EQ(c.sim().engine_mode(), Simulator::EngineMode::kExact);
  c.run();
  ASSERT_TRUE(c.dtp().all_synced());
  EXPECT_EQ(c.sim().stats().fused, 0u) << "the exact engine fused an event";
}

TEST(EngineDefault, CampaignWithBridgedFuses) {
  stress::Campaign c(quiet_tree_scenario(), {1, 1, /*bridged=*/true});
  EXPECT_EQ(c.sim().engine_mode(), Simulator::EngineMode::kBridged);
  c.run();
  EXPECT_GT(c.sim().stats().fused, 0u) << "bridge never engaged; test is vacuous";
}

/// The Fig. 5 tree under MTU saturation, plus a stream of minimum-size
/// frames through two host stacks; returns the engine's counters.
SimStats saturated_tree_stats(Simulator::EngineMode mode) {
  Simulator sim(42);
  sim.set_engine(mode);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  net::TrafficParams tp;
  tp.saturate = true;
  net.add_traffic(*topo.leaves[0], topo.leaves[5]->addr(), tp).start();
  // A 64-byte frame is shorter than the switch's cut-through pipeline, so
  // each hop holds it in a delay event, as do both host stacks.
  net::Host& src = *topo.leaves[1];
  net::Host& dst = *topo.leaves[6];
  std::uint64_t received = 0;
  dst.on_app_receive.add(net::kEtherTypeTest,
                         [&received](const net::Frame&, fs_t, fs_t) { ++received; });
  PeriodicProcess sender(
      sim, from_us(2),
      [&src, &dst] {
        net::Frame f;
        f.dst = dst.addr();
        src.send_app(f);
      },
      EventCategory::kApp);
  sender.set_affinity(src.node());
  sender.start();
  sim.run_until(from_ms(2));
  EXPECT_TRUE(dtp.all_synced());
  EXPECT_GT(received, 100u) << "the host-stack path never ran";
  return sim.stats();
}

TEST(EngineDefault, SaturatedTreeSchedulesNoSpilledCallbacks) {
  // Every delayed frame (switch pipeline, host stacks) and, on the exact
  // engine, every CDC visibility event is a Callback; none may outgrow the
  // inline buffer and heap-allocate.
  for (const Simulator::EngineMode mode :
       {Simulator::EngineMode::kExact, Simulator::EngineMode::kBridged}) {
    const SimStats st = saturated_tree_stats(mode);
    EXPECT_GT(st.executed_by_category[static_cast<std::size_t>(EventCategory::kFrame)],
              100000u);
    EXPECT_EQ(st.callback_spills, 0u)
        << (mode == Simulator::EngineMode::kExact ? "exact" : "bridged");
  }
}

/// Every (time, value) point of a series, for exact comparison.
std::vector<std::pair<double, double>> points_of(const TimeSeries& s) {
  std::vector<std::pair<double, double>> out;
  for (const TimeSeries::Point& p : s.points()) out.emplace_back(p.t_sec, p.value);
  return out;
}

/// The Fig. 6a measurement: an OffsetProbe across every link of the Fig. 5
/// tree, in both directions, under the MTU load. Returns each probe's
/// offset_hw series followed by its ground-truth series.
std::vector<std::vector<std::pair<double, double>>> fig6a_probe_series(
    Simulator::EngineMode mode) {
  stress::Scenario s;
  s.net.enable_drift = true;
  s.horizon = from_ms(16);
  stress::Campaign c(s, {6001, 1, mode == Simulator::EngineMode::kBridged});
  dtp::DtpNetwork& dtp = c.dtp();
  std::vector<std::unique_ptr<dtp::OffsetProbe>> probes;
  for (std::size_t i = 0; i < dtp.size(); ++i)
    for (std::size_t p = 0; p < dtp.agent(i).port_count(); ++p)
      for (std::size_t j = 0; j < dtp.size(); ++j)
        for (std::size_t q = 0; q < dtp.agent(j).port_count(); ++q)
          if (dtp.agent(i).port_logic(p).phy_port().peer() ==
              &dtp.agent(j).port_logic(q).phy_port())
            probes.push_back(std::make_unique<dtp::OffsetProbe>(
                c.sim(), dtp.agent(i), p, dtp.agent(j), q, from_us(10)));
  c.sim().run_until(from_ms(2));
  chaos::CanonicalCampaign::start_heavy_load(c.net(), c.tree(), net::kMtuFrameBytes);
  c.sim().run_until(from_ms(4));
  for (auto& probe : probes) probe->start();
  c.sim().run_until(s.horizon);

  std::vector<std::vector<std::pair<double, double>>> out;
  for (const auto& probe : probes) out.push_back(points_of(probe->hw_series()));
  for (const auto& probe : probes) out.push_back(points_of(probe->true_series()));
  return out;
}

TEST(EngineBridgeProbe, OffsetProbesUnderMtuLoadMatchExact) {
  // A probe's receive hook runs inside the receiver's apply step, which the
  // bridged engine may fuse while the sender's next apply is already done.
  // The hook reads the receiver alone and the ground truth is sampled in
  // the probe's global event, so both engines record the same series.
  const auto exact = fig6a_probe_series(Simulator::EngineMode::kExact);
  const auto bridged = fig6a_probe_series(Simulator::EngineMode::kBridged);
  ASSERT_EQ(exact.size(), 44u);  // 11 links, both directions, two series each
  ASSERT_EQ(bridged.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_GT(exact[i].size(), 1000u);
    ASSERT_EQ(bridged[i].size(), exact[i].size()) << "series " << i;
    const auto diff = std::mismatch(exact[i].begin(), exact[i].end(), bridged[i].begin());
    EXPECT_TRUE(diff.first == exact[i].end())
        << "series " << i << " first differs at t=" << diff.first->first
        << " s: exact " << diff.first->second << ", bridged " << diff.second->second;
  }
}

}  // namespace
}  // namespace dtpsim::sim
