/// 802.1p strict-priority egress queueing — the "cut-through switches with
/// priority flow control" context the paper cites around its PTP results.

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {
namespace {

using namespace dtpsim::literals;

NetworkParams prio_params(std::size_t queues) {
  NetworkParams np;
  np.mac.priority_queues = queues;
  return np;
}

TEST(Priority, HighClassOvertakesBacklog) {
  sim::Simulator sim(401);
  Network net(sim, prio_params(2));
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  net.connect(a, b);

  std::vector<std::uint8_t> arrival_order;
  b.on_hw_receive.add(kEtherTypeTest,
                      [&](const Frame& f, fs_t) { arrival_order.push_back(f.priority); });

  // Fill the low-priority queue with bulk, then send one priority-7 frame.
  Frame bulk;
  bulk.dst = b.addr();
  bulk.payload_bytes = 1500;
  for (int i = 0; i < 20; ++i) a.send_hw(bulk);
  Frame urgent = bulk;
  urgent.payload_bytes = 46;
  urgent.priority = 7;
  a.send_hw(urgent);

  sim.run_until(1_ms);
  ASSERT_EQ(arrival_order.size(), 21u);
  // The urgent frame cannot preempt the frame already on the wire, but it
  // must beat the rest of the backlog.
  EXPECT_EQ(arrival_order[1], 7) << "priority frame served right after the in-flight one";
}

TEST(Priority, SingleQueueIsFifo) {
  sim::Simulator sim(402);
  Network net(sim, prio_params(1));
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  net.connect(a, b);
  std::vector<std::uint8_t> arrival_order;
  b.on_hw_receive.add(kEtherTypeTest,
                      [&](const Frame& f, fs_t) { arrival_order.push_back(f.priority); });
  Frame bulk;
  bulk.dst = b.addr();
  bulk.payload_bytes = 1500;
  for (int i = 0; i < 5; ++i) a.send_hw(bulk);
  Frame urgent = bulk;
  urgent.priority = 7;
  a.send_hw(urgent);
  sim.run_until(1_ms);
  ASSERT_EQ(arrival_order.size(), 6u);
  EXPECT_EQ(arrival_order.back(), 7) << "one queue: strict FIFO, no overtaking";
}

TEST(Priority, ClassMappingCoversRange) {
  sim::Simulator sim(403);
  Network net(sim, prio_params(2));
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  net.connect(a, b);
  // Priorities 0-3 share the low queue, 4-7 the high one: a priority-3
  // frame must NOT overtake priority-0 backlog.
  std::vector<std::uint8_t> order;
  b.on_hw_receive.add(kEtherTypeTest, [&](const Frame& f, fs_t) { order.push_back(f.priority); });
  Frame f;
  f.dst = b.addr();
  f.payload_bytes = 1500;
  for (int i = 0; i < 5; ++i) a.send_hw(f);
  Frame mid = f;
  mid.priority = 3;
  a.send_hw(mid);
  sim.run_until(1_ms);
  EXPECT_EQ(order.back(), 3);
}

TEST(Priority, PerClassCapacityIndependent) {
  sim::Simulator sim(404);
  NetworkParams np = prio_params(2);
  np.mac.queue_capacity_bytes = 8000;  // 4000 per class: ~2 MTU frames each
  Network net(sim, np);
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  net.connect(a, b);
  Frame f;
  f.dst = b.addr();
  f.payload_bytes = 1500;
  int low_ok = 0;
  for (int i = 0; i < 10; ++i) low_ok += a.nic().enqueue(f);
  EXPECT_LT(low_ok, 10) << "low class must overflow";
  Frame hi = f;
  hi.priority = 7;
  EXPECT_TRUE(a.nic().enqueue(hi)) << "high class unaffected by low-class overflow";
}

TEST(Priority, PrioritizedPtpResistsCongestion) {
  // Fig. 6e/6f's mechanism disappears when PTP rides the high class: Sync
  // messages bypass the bulk queues entirely.
  auto run = [](bool prioritize) {
    sim::Simulator sim(405);
    NetworkParams np = prio_params(2);
    np.enable_drift = true;
    Network net(sim, np);
    auto star = build_star(net, 4);
    ptp::GrandmasterParams gp;
    gp.sync_interval = from_ms(250);
    gp.cos = prioritize ? 7 : 0;
    ptp::Grandmaster gm(sim, *star.hosts[0], gp);
    ptp::PtpClientParams cp;
    cp.delay_req_interval = from_ms(187);
    cp.cos = prioritize ? 7 : 0;
    ptp::PtpClient client(sim, *star.hosts[3], gm.phc(), cp);
    gm.start();
    client.start();
    sim.run_until(from_sec(6));
    // Fan-in congestion onto the client's downlink.
    TrafficParams tp;
    tp.saturate = true;
    net.add_traffic(*star.hosts[1], star.hosts[3]->addr(), tp).start();
    net.add_traffic(*star.hosts[2], star.hosts[3]->addr(), tp).start();
    sim.run_until(from_sec(12));
    const auto& pts = client.true_series().points();
    double worst = 0;
    for (std::size_t i = pts.size() * 7 / 10; i < pts.size(); ++i)
      worst = std::max(worst, std::abs(pts[i].value));
    return worst;
  };
  const double best_effort = run(false);
  const double prioritized = run(true);
  EXPECT_GT(best_effort, 20'000.0) << "best-effort PTP collapses under fan-in";
  EXPECT_LT(prioritized, best_effort / 20)
      << "priority queuing must rescue most of the error";
}

}  // namespace
}  // namespace dtpsim::net
