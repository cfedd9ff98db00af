#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtpsim::sim {
namespace {

using namespace dtpsim::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Simulator, TiesAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  fs_t seen = -1;
  sim.schedule_at(10_ns, [&] {
    sim.schedule_in(5_ns, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 15_ns);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5_ns, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::logic_error);
}

TEST(Simulator, ScheduleInPastTheFsRangeThrows) {
  // now + dt past INT64_MAX fs is a signed overflow: it must be rejected by
  // name, not wrap negative and read as "time in the past".
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  const fs_t max = std::numeric_limits<fs_t>::max();
  try {
    sim.schedule_in(max, [] {});
    ADD_FAILURE() << "schedule_in past the fs_t range did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("fs_t range"), std::string::npos) << e.what();
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.schedule_in(max - sim.now(), [] {});  // lands exactly on the last fs
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, EmptyCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_ns, nullptr), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_at(10_ns, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

// Regression: the seed recorded any id < next_id_ as cancelled, so
// cancelling a handle whose event already fired leaked a tombstone forever
// and made events_pending() underflow its unsigned subtraction.
TEST(Simulator, CancelAfterFireReturnsFalseAndRecordsNothing) {
  Simulator sim;
  auto h = sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 0u);
  // A later event must be unaffected by the stale cancels above.
  bool fired = false;
  sim.schedule_in(1_ns, [&] { fired = true; });
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelTwiceSecondIsNoop) {
  Simulator sim;
  auto h = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 1u);
}

// A handle must not be able to cancel an unrelated event that reuses its
// slot: the generation counter detects the reuse.
TEST(Simulator, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  auto stale = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  bool fired = false;
  sim.schedule_at(10_ns, [&] { fired = true; });  // reuses the freed slot
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelOwnHandleInsideCallbackIsNoop) {
  Simulator sim;
  EventHandle self;
  bool cancel_result = true;
  self = sim.schedule_at(10_ns, [&] { cancel_result = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.events_pending(), 0u);
}

// A bridged step's token must behave like an EventHandle: the three handle
// tests above, through bridge_schedule / bridge_cancel.
struct CountingSteps {
  std::vector<int> fired;
  CountingSteps(Simulator& sim, std::size_t n) : fired(n) {
    sim.set_bridge_handler(EventQueue::BridgeKind::kTx, {&CountingSteps::fire, this});
  }
  static void fire(void* ctx, const EventQueue::BridgeStep& s) {
    ++static_cast<CountingSteps*>(ctx)->fired[s.port];
  }
  static EventQueue::BridgeStep step(std::uint32_t i) {
    EventQueue::BridgeStep s;
    s.port = i;
    s.kind = EventQueue::BridgeKind::kTx;
    return s;
  }
};

TEST(SimulatorBridge, CancelAfterFireReturnsFalseAndRecordsNothing) {
  Simulator sim;
  CountingSteps c(sim, 1);
  const auto tok = sim.bridge_schedule(0, 10_ns, CountingSteps::step(0));
  ASSERT_TRUE(tok.valid());
  sim.run();
  EXPECT_EQ(c.fired[0], 1);
  EXPECT_FALSE(sim.bridge_cancel(tok));
  EXPECT_FALSE(sim.bridge_cancel(tok));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 0u);
}

TEST(SimulatorBridge, CancelTwiceSecondIsNoop) {
  Simulator sim;
  CountingSteps c(sim, 1);
  const auto tok = sim.bridge_schedule(0, 10_ns, CountingSteps::step(0));
  EXPECT_TRUE(sim.bridge_cancel(tok));
  EXPECT_FALSE(sim.bridge_cancel(tok));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 1u);
  sim.run();
  EXPECT_EQ(c.fired[0], 0);
  EXPECT_EQ(sim.stats().cancelled, 1u);
}

// A token is the step's key, and keys are never reused: a stale token
// cannot cancel a later step of the same node at the same instant.
TEST(SimulatorBridge, StaleTokenCannotCancelReusedSlot) {
  Simulator sim;
  CountingSteps c(sim, 3);  // 0 cancelled, 1 fired, 2 fresh
  const auto stale = sim.bridge_schedule(0, 10_ns, CountingSteps::step(0));
  EXPECT_TRUE(sim.bridge_cancel(stale));
  const auto reused = sim.bridge_schedule(0, 10_ns, CountingSteps::step(2));
  ASSERT_NE(reused.key, stale.key) << "keys are never reused";
  EXPECT_FALSE(sim.bridge_cancel(stale));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(c.fired[2], 1);

  // The same after a fire instead of a cancel.
  const auto spent = sim.bridge_schedule(0, 20_ns, CountingSteps::step(1));
  sim.run();
  EXPECT_EQ(c.fired[1], 1);
  const auto again = sim.bridge_schedule(0, 30_ns, CountingSteps::step(2));
  ASSERT_NE(again.key, spent.key);
  EXPECT_FALSE(sim.bridge_cancel(spent));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(c.fired[2], 2);
  EXPECT_EQ(c.fired[0], 0);
  EXPECT_EQ(sim.stats().cancelled, 1u);
}

TEST(Simulator, EventsPendingIsExactUnderChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(sim.schedule_at((i + 1) * 1_ns, [] {}));
  EXPECT_EQ(sim.events_pending(), 100u);
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.cancel(handles[i]));
  EXPECT_EQ(sim.events_pending(), 50u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  // The seed bug made this underflow to ~SIZE_MAX after stale cancels.
  for (auto& h : handles) sim.cancel(h);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 50u);
}

TEST(Simulator, CancelledEventNeverRunsEvenWhenInterleaved) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  auto h = sim.schedule_at(10_ns, [&] { order.push_back(2); });
  sim.schedule_at(10_ns, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StatsCountersAndCategories) {
  Simulator sim;
  sim.schedule_at(1_ns, [] {}, EventCategory::kBeacon);
  sim.schedule_at(2_ns, [] {}, EventCategory::kFrame);
  sim.schedule_at(3_ns, [] {}, EventCategory::kFrame);
  auto h = sim.schedule_at(4_ns, [] {}, EventCategory::kProbe);
  sim.cancel(h);
  sim.run();
  const SimStats st = sim.stats();
  EXPECT_EQ(st.scheduled, 4u);
  EXPECT_EQ(st.executed, 3u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_EQ(st.peak_pending, 4u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kBeacon)], 1u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kFrame)], 2u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kProbe)], 0u);
}

TEST(Simulator, LargeCallbackFallsBackToHeapAndStillRuns) {
  Simulator sim;
  // 128 bytes of capture: exceeds the inline buffer, exercises the heap path.
  std::array<std::uint64_t, 16> big{};
  big.fill(7);
  std::uint64_t sum = 0;
  sim.schedule_at(1_ns, [big, &sum] {
    for (auto v : big) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 112u);
}

TEST(Callback, InlineForSmallCaptures) {
  int x = 0;
  Callback small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(x, 1);
  Callback moved(std::move(small));
  EXPECT_FALSE(static_cast<bool>(small));
  moved();
  EXPECT_EQ(x, 2);
}

TEST(Simulator, RunUntilStopsOnTimeAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(30_ns, [&] { ++fired; });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ns);
  sim.run_until(40_ns);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 40_ns);
}

TEST(Simulator, RunUntilExecutesEventAtBoundary) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10_ns, [&] { fired = true; });
  sim.run_until(10_ns);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepOneAtATime) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] { ++fired; });
  sim.schedule_at(2_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1_ns, recurse);
  };
  sim.schedule_in(1_ns, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, ForkRngDeterministicAcrossRuns) {
  Simulator a(77), b(77);
  Rng ra = a.fork_rng(1), rb = b.fork_rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ra(), rb());
}

TEST(PeriodicProcess, FiresAtPeriod) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] { times.push_back(sim.now()); });
  p.start();
  sim.run_until(35_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 20_ns, 30_ns}));
}

TEST(PeriodicProcess, StartWithPhase) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] { times.push_back(sim.now()); });
  p.start_with_phase(3_ns);
  sim.run_until(25_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{3_ns, 13_ns, 23_ns}));
}

TEST(PeriodicProcess, StopFromInsideCallback) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1_ns, [&] {
    if (++count == 3) p.stop();
  });
  p.start();
  sim.run_until(100_ns);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(p.running());
}

// Regression: stop() inside the callback used to cancel the id of the
// *currently firing* event, corrupting the engine's pending accounting.
// The in-flight handle is now cleared before the callback runs.
TEST(PeriodicProcess, StopFromCallbackLeavesExactPendingCount) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1_ns, [&] {
    ++count;
    p.stop();
  });
  p.start();
  sim.run_until(100_ns);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 0u);  // the no-op stop recorded nothing
}

TEST(PeriodicProcess, StopThenRestartInsideCallbackDoesNotDoubleArm) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] {
    times.push_back(sim.now());
    if (times.size() == 1) {
      p.stop();
      p.start_with_phase(5_ns);  // re-arm with a new phase from inside fn
    }
  });
  p.start();
  sim.run_until(40_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 15_ns, 25_ns, 35_ns}));
}

TEST(PeriodicProcess, SetPeriodTakesEffectNextCycle) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] {
    times.push_back(sim.now());
    p.set_period(20_ns);
  });
  p.start();
  sim.run_until(60_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 30_ns, 50_ns}));
}

TEST(PeriodicProcess, InvalidArgsThrow) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicProcess(sim, 1_ns, nullptr), std::invalid_argument);
}

TEST(PeriodicProcess, StopThenRestart) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 10_ns, [&] { ++count; });
  p.start();
  sim.run_until(25_ns);
  EXPECT_EQ(count, 2);
  p.stop();
  sim.run_until(50_ns);
  EXPECT_EQ(count, 2);
  p.start();
  sim.run_until(65_ns);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace dtpsim::sim
