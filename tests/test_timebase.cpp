/// Time-as-a-service (DESIGN.md §16): the lock-free timebase page, the
/// reader fleet, and the three page-consuming app workloads (OWD, LWW,
/// TDMA) — fault-free cleanliness, serial-vs-parallel bit-exactness, and
/// detection of injected failures under the canonical chaos campaign.

#include "dtp/timebase.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "chaos/campaign.hpp"
#include "chaos/engine.hpp"
#include "check/sentinel.hpp"
#include "dtp/daemon.hpp"
#include "dtp/network.hpp"
#include "dtp_test_util.hpp"
#include "net/frame.hpp"
#include "net/topology.hpp"

namespace dtpsim {
namespace {

using namespace dtpsim::literals;
using dtp::TimebasePage;
using dtp::TimebaseSample;
using dtp::TimebaseSnapshot;

// ---------------------------------------------------------------------------
// Page mechanics
// ---------------------------------------------------------------------------

TEST(TimebasePage, AdvanceKeepsIntegerExactnessPastDoubleCliff) {
  // At 2^60 units a double quantizes to 256-unit steps; the split
  // representation must still resolve single units and sub-unit fractions.
  const std::int64_t base = std::int64_t{1} << 60;
  std::int64_t u = 0;
  double f = 0.0;
  TimebasePage::advance(base, 0.25, 0.5, &u, &f);
  EXPECT_EQ(u, base);
  EXPECT_DOUBLE_EQ(f, 0.75);
  TimebasePage::advance(base, 0.75, 0.5, &u, &f);
  EXPECT_EQ(u, base + 1);
  EXPECT_DOUBLE_EQ(f, 0.25);
  TimebasePage::advance(base, 0.25, -0.5, &u, &f);
  EXPECT_EQ(u, base - 1);
  EXPECT_DOUBLE_EQ(f, 0.75);
  // A large fractional delta still lands on the exact integer grid.
  TimebasePage::advance(base, 0.0, 1234567.875, &u, &f);
  EXPECT_EQ(u, base + 1234567);
  EXPECT_NEAR(f, 0.875, 1e-9);
  // Whereas the double view of the same walk cannot see one unit at all.
  const double dbl = static_cast<double>(base);
  EXPECT_EQ(dbl + 1.0, dbl) << "double addition saturates at this magnitude";
}

TEST(TimebasePage, PublishReadRoundtripAndStaleness) {
  TimebasePage page;
  EXPECT_FALSE(page.read(0).valid) << "unpublished page must read invalid";

  TimebaseSnapshot s;
  s.anchor_units = 1'000'000;
  s.anchor_frac = 0.5;
  s.anchor_tsc = 3'000'000;
  s.units_per_tsc = 0.052;  // ~156.25 MHz counter vs 3 GHz TSC
  s.unc_base_units = 4.0;
  s.unc_per_tsc = 1e-7;
  s.stale_after_tsc = 3'300'000;
  s.epoch = 7;
  s.flags = TimebasePage::kFlagValid;
  page.publish(s);
  EXPECT_EQ(page.publishes(), 1u);

  TimebaseSnapshot back;
  ASSERT_TRUE(page.snapshot(&back));
  EXPECT_EQ(back.anchor_units, s.anchor_units);
  EXPECT_EQ(back.stale_after_tsc, s.stale_after_tsc);
  EXPECT_EQ(back.epoch, 7u);

  // Extrapolation: 100k TSC counts of age -> 5200 units.
  const TimebaseSample fresh = page.read(3'100'000);
  EXPECT_TRUE(fresh.valid);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.epoch, 7u);
  EXPECT_EQ(fresh.units, 1'005'200);
  EXPECT_NEAR(fresh.frac, 0.5, 1e-6);
  EXPECT_NEAR(fresh.uncertainty_units, 4.0 + 100'000 * 1e-7, 1e-9);

  // Past the deadline the sample is still served but flagged stale.
  const TimebaseSample old = page.read(3'400'000);
  EXPECT_TRUE(old.valid);
  EXPECT_TRUE(old.stale);
  EXPECT_GT(old.uncertainty_units, fresh.uncertainty_units);

  // The raw words carry a checksum that matches their content.
  const TimebasePage::RawWords raw = page.read_raw();
  EXPECT_EQ(TimebasePage::checksum(raw.words.data()),
            raw.words[TimebasePage::kPayloadWords]);
  EXPECT_EQ(raw.seq % 2, 0u);
}

class TimebasePageTorn : public ::testing::TestWithParam<int> {};

TEST_P(TimebasePageTorn, ConcurrentReadersNeverObserveATornSnapshot) {
  // Real OS threads against the seqlock (this is what TSan instruments in
  // the tsan test preset). The writer publishes snapshots whose words
  // are all derived from one counter; a reader that ever sees a mix of two
  // publications fails the checksum or the derivation invariant.
  TimebasePage page;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_reads{0};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    TimebaseSnapshot s;
    for (std::uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
      s.anchor_units = static_cast<std::int64_t>(k);
      s.anchor_frac = static_cast<double>(k % 997) / 997.0;
      s.anchor_tsc = static_cast<std::int64_t>(k * 3);
      s.units_per_tsc = static_cast<double>(k % 53);
      s.unc_base_units = static_cast<double>(k % 31);
      s.unc_per_tsc = static_cast<double>(k % 17);
      s.stale_after_tsc = static_cast<std::int64_t>(k * 3 + 1000);
      s.epoch = static_cast<std::uint32_t>(k & 0xFFFF);
      s.flags = TimebasePage::kFlagValid;
      page.publish(s);
    }
  });

  const int n_readers = GetParam();
  std::vector<std::thread> readers;
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TimebasePage::RawWords raw = page.read_raw();
        if (raw.words[0] == 0) continue;  // nothing published yet
        ++local;
        if (TimebasePage::checksum(raw.words.data()) !=
            raw.words[TimebasePage::kPayloadWords]) {
          torn.fetch_add(1);
          continue;
        }
        // Cross-word derivation invariants of the writer above.
        const auto k = raw.words[0];
        std::uint64_t tsc_bits = raw.words[2];
        std::int64_t tsc;
        std::memcpy(&tsc, &tsc_bits, sizeof(tsc));
        if (static_cast<std::uint64_t>(tsc) != k * 3) torn.fetch_add(1);
        std::uint64_t deadline_bits = raw.words[6];
        std::int64_t deadline;
        std::memcpy(&deadline, &deadline_bits, sizeof(deadline));
        if (static_cast<std::uint64_t>(deadline) != k * 3 + 1000) torn.fetch_add(1);
      }
      total_reads.fetch_add(local);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a reader observed a torn snapshot";
  EXPECT_GT(total_reads.load(), 1000u) << "readers barely ran";
  EXPECT_GT(page.publishes(), 100u) << "writer barely ran";
}

INSTANTIATE_TEST_SUITE_P(Threads, TimebasePageTorn, ::testing::Values(2, 4));

// ---------------------------------------------------------------------------
// Daemon-published page semantics
// ---------------------------------------------------------------------------

dtp::DaemonParams app_daemon_params() {
  dtp::DaemonParams dp;
  dp.poll_period = from_ms(1);
  dp.sample_period = 0;
  dp.max_anchor_age = from_us(2500);
  return dp;
}

TEST(TimebaseDaemon, StalenessFlagReachesReadersDuringPcieStorm) {
  dtp::testutil::TwoNodes n(501, 50.0, -50.0);
  dtp::DaemonParams dp;
  dp.poll_period = from_ms(1);
  dp.sample_period = 0;
  dp.max_anchor_age = from_ms(2);
  dtp::Daemon d(n.sim, *n.agent_a, dp, 10.0);
  d.start();
  n.sim.run_until(10_ms);
  ASSERT_TRUE(d.calibrated());
  TimebaseSample s = d.timebase_sample(n.sim.now());
  ASSERT_TRUE(s.valid);
  EXPECT_FALSE(s.stale);
  const std::uint32_t epoch0 = s.epoch;
  const double fresh_unc = s.uncertainty_units;

  // A storm far beyond the reject margin: every MMIO read is discarded, the
  // anchor ages out, and the *page* must tell readers so.
  d.set_pcie_stress(from_us(10), 0.0, 0);
  n.sim.run_until(n.sim.now() + 6_ms);
  EXPECT_TRUE(d.stale(n.sim.now()));
  s = d.timebase_sample(n.sim.now());
  EXPECT_TRUE(s.valid) << "a stale page still serves";
  EXPECT_TRUE(s.stale) << "the staleness deadline must reach page readers";
  EXPECT_GT(s.uncertainty_units, fresh_unc) << "uncertainty must grow with age";

  // Storm clears: the window re-learns (storm RTTs fill the ring), a poll
  // is accepted, and the page is fresh again under the same epoch.
  d.clear_pcie_stress();
  n.sim.run_until(n.sim.now() + 80_ms);
  s = d.timebase_sample(n.sim.now());
  EXPECT_TRUE(s.valid);
  EXPECT_FALSE(s.stale) << "page must recover after the storm";
  EXPECT_EQ(s.epoch, epoch0) << "no restart happened; epoch must not move";

  // A restart, by contrast, bumps the epoch.
  d.stop();
  d.start();
  n.sim.run_until(n.sim.now() + 5_ms);
  s = d.timebase_sample(n.sim.now());
  EXPECT_EQ(s.epoch, epoch0 + 1) << "restart must be visible to readers";
}

// ---------------------------------------------------------------------------
// App workloads on the paper tree
// ---------------------------------------------------------------------------

net::NetworkParams app_net_params() {
  net::NetworkParams np = chaos::CanonicalCampaign::net_params();
  // App frames ride the top 802.1p class so a backlogged bulk queue cannot
  // add 100 us of head-of-line wait to a 0.8 us TDMA guard band.
  np.mac.priority_queues = 8;
  return np;
}

/// Bulk background load on the leaves that are NOT TDMA senders. A TDMA
/// sender's verdict is the hardware TX instant; sourcing saturating MTU bulk
/// from the same NIC would add up to one in-flight frame (~1.23 us) of
/// non-preemptable wait — more than the whole guard band — and turn the test
/// into a measurement of the MAC, not of the clock.
void start_app_load(net::Network& net, const net::PaperTreeTopology& tree) {
  net::TrafficParams tp;
  tp.saturate = true;
  tp.frame_bytes = net::kMtuFrameBytes;
  const std::size_t n = tree.leaves.size();
  for (std::size_t i : {std::size_t{0}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}}) {
    net.add_traffic(*tree.leaves[i], tree.leaves[(i + 3) % n]->addr(), tp).start();
  }
}

apps::AppHarnessParams harness_params(bool exclude_crash_victim) {
  apps::AppHarnessParams hp;
  hp.daemon = app_daemon_params();
  hp.readers_per_host = 4;
  hp.reader_period = from_us(50);
  if (!exclude_crash_victim) {
    // Host list = all 8 leaves, indices 1:1 with tree.leaves.
    hp.tdma_senders = {1, 2, 5, 6};
    hp.lww_ring = {0, 1, 2, 3, 5, 7, 6};
    hp.owd_pairs = {{0, 3}, {5, 1}, {7, 2}};
  } else {
    // Campaign runs drop leaf4 (the node_crash victim powers off; a daemon
    // must not read a dead agent). Host list [l0 l1 l2 l3 l5 l6 l7].
    hp.tdma_senders = {1, 2, 4, 5};
    hp.lww_ring = {0, 1, 2, 3, 4, 6, 5};
    hp.owd_pairs = {{0, 3}, {4, 1}, {6, 2}};
  }
  return hp;
}

struct AppRun {
  sim::Simulator sim;
  net::Network net;
  net::PaperTreeTopology tree;
  dtp::DtpNetwork dtp;
  std::unique_ptr<apps::AppHarness> harness;

  explicit AppRun(std::uint64_t seed, bool exclude_crash_victim,
                  unsigned threads = 1)
      : sim(seed), net(sim, app_net_params()), tree(net::build_paper_tree(net)) {
    dtp = dtp::enable_dtp(net, chaos::CanonicalCampaign::dtp_params());
    start_app_load(net, tree);
    std::vector<net::Host*> hosts;
    for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
      if (exclude_crash_victim && i == 4) continue;
      hosts.push_back(tree.leaves[i]);
    }
    harness = std::make_unique<apps::AppHarness>(
        sim, dtp, std::move(hosts), harness_params(exclude_crash_victim));
    harness->start_daemons();
    harness->start_apps(chaos::CanonicalCampaign::settle_time());
    if (threads > 1) sim.set_threads(threads);
  }
};

TEST(TimebaseApps, FaultFreeRunIsCleanUnderLoad) {
  AppRun run(601, /*exclude_crash_victim=*/false);
  check::Sentinel sentinel(run.net, run.dtp);
  for (std::size_t i = 0; i < run.harness->size(); ++i)
    sentinel.watch_timebase(&run.harness->daemon(i));

  run.sim.run_until(12_ms);

  // The sentinel's honesty contract held on every page, and its timebase
  // monitor actually ran.
  EXPECT_GT(sentinel.stats().timebase_checks, 0u);
  EXPECT_TRUE(sentinel.clean()) << [&] {
    std::string out;
    for (const auto& v : sentinel.violations()) out += v.to_string() + "\n";
    return out;
  }();

  // Every workload did real work and had zero correctness failures.
  const apps::OwdPairStats owd = run.harness->owd()->total();
  EXPECT_GT(owd.probes, 100u);
  EXPECT_EQ(owd.failures, 0u) << "fault-free OWD error outside claimed budget";

  const apps::LwwWriterStats lww = run.harness->lww()->total();
  EXPECT_GT(lww.writes, 100u);
  EXPECT_EQ(lww.inversions, 0u) << "fault-free causal order inverted";
  EXPECT_EQ(lww.certain_wrong, 0u);

  const apps::TdmaSenderStats tdma = run.harness->tdma()->total();
  EXPECT_GT(tdma.sends, 500u);
  EXPECT_EQ(tdma.misses, 0u)
      << "fault-free TDMA guard-band miss (worst " << tdma.worst_miss_ns << " ns)";

  EXPECT_GT(run.harness->readers()->total_reads(), 1000u);
}

TEST(TimebaseApps, AppVerdictsBitIdenticalSerialVsParallel) {
  // The whole serving stack — daemon polls, page publishes, reader fleet,
  // and all three app verdicts — must be byte-identical serial vs 2 vs 4
  // worker threads. Every stat is shard-confined and every cross-host signal
  // travels in a frame, so any divergence is a real race.
  struct Fingerprint {
    std::vector<apps::OwdPairStats> owd;
    std::vector<apps::LwwWriterStats> lww;
    std::vector<apps::TdmaSenderStats> tdma;
    std::string fleet_digest;
    std::string sentinel_digest;
    std::uint64_t reads = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  auto fingerprint = [](unsigned threads) {
    AppRun run(602, /*exclude_crash_victim=*/false, threads);
    check::Sentinel sentinel(run.net, run.dtp);
    for (std::size_t i = 0; i < run.harness->size(); ++i)
      sentinel.watch_timebase(&run.harness->daemon(i));
    run.sim.run_until(9_ms);
    Fingerprint fp;
    for (std::size_t i = 0; i < run.harness->owd()->size(); ++i)
      fp.owd.push_back(run.harness->owd()->pair_stats(i));
    for (std::size_t i = 0; i < run.harness->lww()->size(); ++i)
      fp.lww.push_back(run.harness->lww()->writer_stats(i));
    for (std::size_t i = 0; i < run.harness->tdma()->size(); ++i)
      fp.tdma.push_back(run.harness->tdma()->sender_stats(i));
    fp.fleet_digest = run.harness->readers()->digest().hex();
    fp.sentinel_digest = sentinel.digest().hex();
    fp.reads = run.harness->readers()->total_reads();
    return fp;
  };
  const Fingerprint serial = fingerprint(1);
  EXPECT_GT(serial.reads, 0u);
  EXPECT_EQ(serial, fingerprint(2)) << "2-thread app run diverged from serial";
  EXPECT_EQ(serial, fingerprint(4)) << "4-thread app run diverged from serial";
}

TEST(TimebaseApps, CanonicalCampaignAppsDetectInjectedFailures) {
  // The canonical fault schedule plus a PCIe storm against leaf6's daemon
  // overlapping the rogue-oscillator window: while the network counter is
  // dragged ahead by the +500 ppm rogue, the stormed page free-runs on its
  // stale pre-rogue anchor. The apps must (a) count real failures — TDMA
  // frames land outside their guard bands, LWW commits inverted versions —
  // and (b) *notice*: stale-page fires and stale writes are reported, and
  // the page honesty invariant (uncertainty never understated while fresh)
  // stays clean throughout.
  AppRun run(603, /*exclude_crash_victim=*/true);
  check::Sentinel sentinel(run.net, run.dtp);
  for (std::size_t i = 0; i < run.harness->size(); ++i)
    sentinel.watch_timebase(&run.harness->daemon(i));

  chaos::ChaosEngine engine(run.net, run.dtp);
  const fs_t t0 = chaos::CanonicalCampaign::settle_time();
  chaos::FaultPlan plan = chaos::CanonicalCampaign::plan(run.tree, t0);
  // leaf6 is harness host index 5 in the campaign host list. The storm ends
  // at t0+21ms; the daemon's recovery probe starts there, so give it an
  // explicit timeout that fits inside the run (its convergence verdict is
  // not under test here — the app-level detection is).
  chaos::FaultSpec storm = chaos::FaultSpec::pcie_storm(
      run.harness->daemon(5), t0 + 13_ms, 8_ms, from_ns(600), 0.3, 2_us, 24.0);
  storm.probe_timeout = 6_ms;
  plan.add(std::move(storm));
  engine.schedule(plan);
  // Every fault window (plus recovery margin) is blacked out for the
  // net-level monitors AND the page-honesty check: a fault can step the
  // hardware counter faster than a 1 ms poll can re-anchor, and the rogue
  // makes the bound unknowable until quarantine completes.
  for (const chaos::FaultSpec& f : plan.faults)
    sentinel.add_blackout(f.at, f.at + f.duration + 3_ms);
  sentinel.add_blackout(t0 + 15_ms, chaos::CanonicalCampaign::end_time(t0));

  run.sim.run_until(chaos::CanonicalCampaign::end_time(t0) + 3_ms);
  ASSERT_TRUE(engine.all_probes_done());

  ASSERT_EQ(run.harness->verdicts().size(), 3u);

  const apps::TdmaSenderStats tdma = run.harness->tdma()->total();
  EXPECT_GT(tdma.sends, 1000u);
  EXPECT_GT(tdma.misses, 0u)
      << "the stale stormed page must push TDMA frames out of their slots";
  EXPECT_GT(tdma.stale_fires, 0u) << "the app never saw the stale flag";

  const apps::LwwWriterStats lww = run.harness->lww()->total();
  EXPECT_GT(lww.writes, 100u);
  EXPECT_GT(lww.inversions, 0u)
      << "rogue-vs-stormed clock skew must invert causal order";
  EXPECT_GT(lww.stale_writes, 0u);

  const apps::OwdPairStats owd = run.harness->owd()->total();
  EXPECT_GT(owd.probes, 100u);
  EXPECT_GT(owd.failures + owd.detected, 0u)
      << "OWD measured through the quarantined rogue must leave the budget";

  // Through all of it the *fresh* pages never understated their error.
  EXPECT_GT(sentinel.stats().timebase_checks, 0u);
  std::uint64_t timebase_violations = 0;
  for (const auto& v : sentinel.violations())
    timebase_violations += v.kind == check::InvariantKind::kTimebaseUncertainty;
  EXPECT_EQ(timebase_violations, 0u) << [&] {
    std::string out;
    for (const auto& v : sentinel.violations()) out += v.to_string() + "\n";
    return out;
  }();

  if (HasFailure()) engine.report().print(std::cerr);
}

}  // namespace
}  // namespace dtpsim
