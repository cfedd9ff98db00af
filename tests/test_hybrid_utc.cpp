/// Section 5.2, second variant: a timeserver stamps sync messages with its
/// hardware DTP counter and UTC at the transmit instant, and a client adds
/// the one-way delay measured in DTP counter units. UTC then lands within
/// the DTP bound plus the server's own UTC error, with no daemon in the
/// loop. That is a `TimeHierarchy` with one source. These tests hold it to
/// tens of nanoseconds, compare it with the daemon-level `UtcClient`, and
/// check that a dead server ends in holdover and then refusal.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "chaos/engine.hpp"
#include "common/stats.hpp"
#include "dtp/daemon.hpp"
#include "dtp/external.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/network.hpp"
#include "dtp_test_util.hpp"
#include "net/topology.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"

namespace dtpsim::dtp {
namespace {

using namespace dtpsim::literals;

/// A four-host star: host 0 runs the one source (default 200 us cadence),
/// hosts 1..3 are its clients.
struct OneSource {
  sim::Simulator sim;
  net::Network net;
  net::StarTopology star;
  DtpNetwork dtp;
  TimeHierarchy hier;
  /// Per client, the error (ns) of every fix `run` saw land.
  std::vector<std::vector<double>> fix_errors;
  std::vector<fs_t> last_seen;

  explicit OneSource(std::uint64_t seed, TimeSourceParams source = TimeSourceParams::gps(1))
      : sim(seed), net(sim), star(net::build_star(net, 4)) {
    dtp = enable_dtp(net);
    sim.run_until(2_ms);
    hier.add_server(sim, *star.hosts[0], *dtp.agent_of(star.hosts[0]), source);
    for (std::size_t i = 1; i < star.hosts.size(); ++i)
      hier.add_client(*star.hosts[i], *dtp.agent_of(star.hosts[i]));
    fix_errors.resize(hier.clients().size());
    last_seen.assign(hier.clients().size(), 0);
    hier.start();
  }

  HierarchyClient& client(std::size_t i) { return *hier.clients().at(i); }

  /// Run for `span` in `step`s. After each step every client serves once,
  /// and an available read must cover its true error with its uncertainty.
  /// A newly landed fix is scored like the hybrid client's: true UTC is
  /// simulator time, so its error is fix_utc - last_accept.
  void run(fs_t span, fs_t step = from_us(200),
           const std::function<void(std::size_t, const ServedTime&)>& on_read = {}) {
    testutil::run_sampled(sim, sim.now() + span, step, [&](fs_t now) {
      for (std::size_t i = 0; i < hier.clients().size(); ++i) {
        const ServedTime st = client(i).serve(now);
        if (st.available) {
          EXPECT_LE(std::abs(st.utc - static_cast<double>(now)), st.uncertainty)
              << "client " << i << " understated its error at t=" << now;
        }
        if (on_read) on_read(i, st);
        const SourceTrack* t = client(i).track(1);
        if (t == nullptr || !t->have_fix || t->last_accept == last_seen[i]) continue;
        last_seen[i] = t->last_accept;
        fix_errors[i].push_back((t->fix_utc - static_cast<double>(t->last_accept)) /
                                static_cast<double>(kFsPerNs));
      }
    });
  }
};

/// Worst |value| over the second half of `v` (past the start-up transient).
double tail_max_abs(const std::vector<double>& v) {
  double worst = 0;
  for (std::size_t i = v.size() / 2; i < v.size(); ++i) worst = std::max(worst, std::abs(v[i]));
  return worst;
}

TEST(OneSourceHierarchy, ClientLocksOnTheFirstSync) {
  OneSource f(421);
  const ServedTime before = f.client(0).serve(f.sim.now());
  EXPECT_EQ(before.status, HierarchyStatus::kAcquiring);
  EXPECT_FALSE(before.available);
  f.run(from_us(300));
  EXPECT_GE(f.client(0).syncs_received(), 1u);
  const ServedTime after = f.client(0).serve(f.sim.now());
  EXPECT_EQ(after.status, HierarchyStatus::kLocked);
  EXPECT_EQ(after.source_id, 1);
}

TEST(OneSourceHierarchy, FixWithinTensOfNanoseconds) {
  OneSource f(422);
  f.run(20_ms);
  for (std::size_t i = 0; i < f.fix_errors.size(); ++i) {
    ASSERT_GE(f.fix_errors[i].size(), 50u) << "client " << i;
    // Hardware DTP stamping: error = counter disagreement (4TD) + tick
    // phase, with no daemon or PCIe read in the loop.
    for (double e : f.fix_errors[i]) EXPECT_LE(std::abs(e), 60.0) << "client " << i;
  }
}

TEST(OneSourceHierarchy, BeatsDaemonLevelBroadcast) {
  // The same network, both §5.2 schemes side by side: host 0 also runs a
  // daemon-level UtcBroadcaster, host 1 (hierarchy client 0) a UtcClient.
  OneSource f(423);
  DaemonParams dp;
  dp.poll_period = from_ms(20);
  dp.sample_period = 0;
  Daemon server_daemon(f.sim, *f.dtp.agent_of(f.star.hosts[0]), dp, 11.0);
  Daemon client_daemon(f.sim, *f.dtp.agent_of(f.star.hosts[1]), dp, -8.0);
  server_daemon.start();
  client_daemon.start();
  f.run(300_ms);

  UtcBroadcaster soft_server(f.sim, *f.star.hosts[0], server_daemon, from_ms(100));
  UtcClient soft_client(*f.star.hosts[1], client_daemon);
  soft_server.start();
  f.run(3_sec);

  ASSERT_TRUE(soft_client.ready());
  std::vector<double> soft_errors;
  for (const auto& p : soft_client.error_series().points()) soft_errors.push_back(p.value);
  const double soft = tail_max_abs(soft_errors);
  const double hard = tail_max_abs(f.fix_errors[0]);
  EXPECT_LT(hard, soft) << "hardware stamping must beat the daemon path";
  EXPECT_LE(hard, 60.0);
}

TEST(OneSourceHierarchy, ServerNoiseIsVisibleAndClaimed) {
  // A GPS-grade reference with 100 ns of noise, claimed at 500 ns: the
  // noise shows in every fix, and the claim keeps every served read honest
  // (checked by `run`).
  TimeSourceParams gps = TimeSourceParams::gps(1);
  gps.utc_error_ns = 100.0;
  gps.accuracy_ns = 500.0;
  OneSource f(424, gps);
  f.run(20_ms);
  for (std::size_t i = 0; i < f.fix_errors.size(); ++i) {
    StreamingStats tail;
    const std::vector<double>& e = f.fix_errors[i];
    for (std::size_t k = e.size() / 2; k < e.size(); ++k) tail.add(e[k]);
    EXPECT_GT(tail.stddev(), 10.0) << "client " << i << ": the server noise dominates";
    EXPECT_LT(tail.max_abs(), 600.0) << "client " << i;
  }
}

TEST(OneSourceHierarchy, DeadServerHoldsOverThenRefuses) {
  // A dead server must not leave its clients serving an estimate that keeps
  // looking authoritative: each client holds over with an uncertainty that
  // grows every read, then refuses once it passes the holdover ceiling. A
  // consumer with a tighter ceiling refuses sooner.
  OneSource f(427);
  f.client(1).set_holdover_ceiling(1_us);
  f.run(5_ms);
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_EQ(f.client(i).status(), HierarchyStatus::kLocked) << "client " << i;

  f.hier.servers().front()->stop();
  std::vector<bool> held_over(3, false);
  std::vector<double> last_unc(3, 0.0);
  std::vector<fs_t> refused_at(3, -1);
  f.run(20_ms, 100_us, [&](std::size_t i, const ServedTime& st) {
    if (st.status == HierarchyStatus::kHoldover) {
      EXPECT_LT(refused_at[i], 0) << "client " << i << " served again after refusing";
      EXPECT_GT(st.uncertainty, last_unc[i]) << "client " << i << ": holdover bound shrank";
      last_unc[i] = st.uncertainty;
      held_over[i] = true;
    } else if (st.status == HierarchyStatus::kUnavailable && refused_at[i] < 0) {
      refused_at[i] = f.sim.now();
    }
  });
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(held_over[i]) << "client " << i;
    EXPECT_GE(refused_at[i], 0) << "client " << i;
    EXPECT_EQ(f.client(i).status(), HierarchyStatus::kUnavailable) << "client " << i;
  }
  EXPECT_LT(refused_at[1], refused_at[0]) << "the 1 us ceiling must refuse first";
}

TEST(OneSourceHierarchy, SyncQueuedAcrossAServerCrashIsDropped) {
  // A sync still in the server's 2 us software TX stack when its host
  // crashes reaches the NIC with the link down, waits out the restart, and
  // leaves unstamped because its agent is gone. The client must drop it
  // rather than take a fix from an empty stamp.
  OneSource f(428);
  chaos::ChaosEngine engine(f.net, f.dtp);
  net::Host& server_host = *f.star.hosts[0];
  net::Host& client_host = *f.star.hosts[1];
  int arrived = 0;
  client_host.on_hw_receive.add(net::kEtherTypeSourceSync,
                                [&arrived](const net::Frame&, fs_t) { ++arrived; });
  const fs_t first_sync = f.sim.now() + f.hier.servers().front()->params().period;
  f.sim.schedule_at(first_sync + 1_us, [&] { engine.crash_node(server_host); });
  f.sim.schedule_at(first_sync + 50_us, [&] { engine.restart_node(server_host); });
  f.sim.schedule_at(first_sync + 100_us, [&] {
    net::Frame kick;  // any frame drains the NIC queue
    kick.dst = client_host.addr();
    server_host.send_app(kick);
  });
  f.run(1_ms);
  EXPECT_EQ(arrived, 1) << "the queued sync should leave once the link is back";
  EXPECT_EQ(f.client(0).syncs_received(), 0u);
  EXPECT_EQ(f.client(0).status(), HierarchyStatus::kAcquiring);
}

TEST(SharedHost, PtpJoinsAHostThatAlreadyCarriesHierarchyTraffic) {
  // Host 1 already stamps its own source's syncs at NIC transmit and hears
  // host 2's source on its hardware receive path when PTP joins it as a
  // client of a grandmaster on host 0. Each protocol claims its own
  // EtherType, so all three keep working side by side.
  sim::Simulator sim(431);
  net::Network net(sim);
  net::StarTopology star = net::build_star(net, 4);
  DtpNetwork dtp = enable_dtp(net);
  sim.run_until(2_ms);
  net::Host& shared = *star.hosts[1];
  TimeHierarchy hier;
  hier.add_server(sim, shared, *dtp.agent_of(&shared), TimeSourceParams::gps(1));
  hier.add_server(sim, *star.hosts[2], *dtp.agent_of(star.hosts[2]),
                  TimeSourceParams::upstream_island(2, 2, 150.0));
  HierarchyClient& on_shared = hier.add_client(shared, *dtp.agent_of(&shared));
  HierarchyClient& elsewhere = hier.add_client(*star.hosts[3], *dtp.agent_of(star.hosts[3]));

  ptp::GrandmasterParams gp;
  gp.sync_interval = 500_us;
  gp.announce_interval = 500_us;
  ptp::Grandmaster gm(sim, *star.hosts[0], gp);
  ptp::PtpClientParams cp;
  cp.delay_req_interval = 400_us;
  ptp::PtpClient client(sim, shared, gm.phc(), cp);
  hier.start();
  gm.start();
  client.start();
  sim.run_until(sim.now() + 10_ms);

  EXPECT_GT(client.syncs_completed(), 0u) << "PTP lost its TX or RX timestamps";
  EXPECT_GT(gm.delay_reqs_answered(), 0u);
  EXPECT_GT(on_shared.syncs_received(), 0u) << "the shared host went deaf to source 2";
  const SourceTrack* from_shared = elsewhere.track(1);
  ASSERT_NE(from_shared, nullptr) << "source 1's syncs left the shared host unstamped";
  EXPECT_GT(from_shared->accepted, 0u);
}

}  // namespace
}  // namespace dtpsim::dtp
