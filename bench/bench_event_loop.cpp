/// Event-engine throughput on a churn-heavy workload, against the seed
/// implementation (type-erased std::function events in a std::priority_queue
/// with lazy unordered_set tombstone cancellation), which is embedded below
/// as `baseline::Simulator`.
///
/// Workload (identical for both engines, driven by a private LCG so the two
/// runs are bit-for-bit the same schedule): a set of self-sustaining event
/// chains where every firing schedules its successor at a pseudo-random
/// delay, every 4th firing also schedules a far-future "victim" event, and a
/// bounded pool cancels the oldest victim once it fills — i.e. the
/// schedule/cancel/fire mix the protocol stack produces (beacon timers being
/// rescheduled, INIT retries cancelled on echo, frames in flight). Callbacks
/// capture 24 bytes, the realistic `this` + payload case: inline for the
/// slab engine, a heap allocation per event for std::function.
///
/// Emits BENCH_event_loop.json (fields documented in EXPERIMENTS.md) and
/// verifies that both engines fire events in the identical order.
///
///   bench_event_loop [--events=N] [--json-out=PATH]

#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace dtpsim;

// ---------------------------------------------------------------------------
// The seed event engine, verbatim modulo namespace: heap of fat events,
// per-schedule std::function allocation, lazy tombstone cancellation.
// ---------------------------------------------------------------------------
namespace baseline {

class EventHandle {
 public:
  EventHandle() = default;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
};

class Simulator {
 public:
  fs_t now() const { return now_; }

  EventHandle schedule_at(fs_t t, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    queue_.push(Event{t, next_seq_++, id, std::move(fn)});
    return EventHandle(id);
  }

  EventHandle schedule_in(fs_t dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  bool cancel(EventHandle h) {
    if (!h.valid() || h.id() >= next_id_) return false;
    return cancelled_.insert(h.id()).second;
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.time;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Event {
    fs_t time;
    std::uint64_t seq;
    std::uint64_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  fs_t now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace baseline

// ---------------------------------------------------------------------------
// The churn workload, templated over the engine so both run the same logic.
// ---------------------------------------------------------------------------
template <class Sim, class Handle>
class Churn {
 public:
  static constexpr std::size_t kVictimPool = 64;
  static constexpr fs_t kVictimDelay = 10'000'000;  // far beyond the cancel horizon

  Churn(Sim& sim, std::size_t trace_limit) : sim_(sim), trace_limit_(trace_limit) {
    trace_.reserve(trace_limit);
  }

  void seed_chains(int n) {
    for (int i = 0; i < n; ++i) schedule_successor();
  }

  const std::vector<fs_t>& trace() const { return trace_; }
  std::uint64_t cancels_issued() const { return cancels_; }

 private:
  std::uint64_t next_rand() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg_ >> 33;
  }

  void on_fire() {
    if (trace_.size() < trace_limit_) trace_.push_back(sim_.now());
    schedule_successor();
  }

  void schedule_successor() {
    const std::uint64_t r = next_rand();
    const fs_t dt = 1 + static_cast<fs_t>(r & 1023);
    // 24 bytes of capture: `this` plus two payload words, the shape of a
    // typical frame-delivery event.
    const std::uint64_t salt = r, pad = lcg_;
    sim_.schedule_in(dt, [this, salt, pad] {
      (void)salt;
      (void)pad;
      on_fire();
    });
    if ((r & 3) == 0) {
      victims_.push_back(sim_.schedule_in(dt + kVictimDelay, [this, salt, pad] {
        (void)salt;
        (void)pad;
        on_fire();
      }));
      if (victims_.size() > kVictimPool) {
        sim_.cancel(victims_.front());
        victims_.pop_front();
        ++cancels_;
      }
    }
  }

  Sim& sim_;
  std::size_t trace_limit_;
  std::uint64_t lcg_ = 0x9E3779B97F4A7C15ULL;
  std::vector<fs_t> trace_;
  std::deque<Handle> victims_;
  std::uint64_t cancels_ = 0;
};

template <class Sim, class Handle>
double run_churn(Sim& sim, std::uint64_t n_events, std::vector<fs_t>* trace_out,
                 std::uint64_t* cancels_out) {
  Churn<Sim, Handle> churn(sim, 100'000);
  churn.seed_chains(8);
  const auto t0 = std::chrono::steady_clock::now();
  while (sim.events_executed() < n_events) sim.step();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  if (trace_out != nullptr) *trace_out = churn.trace();
  if (cancels_out != nullptr) *cancels_out = churn.cancels_issued();
  return wall.count();
}

// ---------------------------------------------------------------------------
// Quiet-cascade workload: the beacon cadence of a synced link. Each chain is
// a periodic timer (the paper's 200-tick beacon interval) whose firing
// requests one service event at the same instant — the schedule/fire shape a
// quiet DTP port produces, with trivial handler bodies so the measurement is
// pure engine overhead. Three engines run the identical schedule:
//   * the seed engine (std::function + priority_queue + tombstones),
//   * the slab engine in exact mode (every event through the indexed heap),
//   * the bridged engine (POD timer steps; the service event fuses inline
//     through the bridge_tx_fusible gate, as PortLogic::bridge_fire_beacon
//     does), which is the tentpole's >= 10x engine-overhead claim surface.
// End-to-end protocol runs see less (handlers dominate; see EXPERIMENTS.md
// and BENCH_scalability.json's bridged_speedup for the honest full-stack
// number).
// ---------------------------------------------------------------------------

constexpr fs_t kQuietPeriod = 200;  // beacon cadence, one unit per tick
constexpr int kQuietChains = 8;
constexpr std::size_t kQuietTraceLimit = 100'000;

struct QuietResult {
  double wall = 0;
  std::uint64_t events = 0;
  std::uint64_t fused = 0;
  std::vector<fs_t> trace;  ///< service-event fire times (bounded)
};

/// Chains for the two callback engines (seed and exact-slab), kept at stable
/// addresses by the deque in the runner.
template <class Sim>
struct QuietChain {
  Sim* sim;
  QuietResult* r;
  fs_t horizon;

  void fire() {
    // 24 bytes of capture, like the churn workload above: `this` plus an
    // encoded-block word and a tick index, the payload a real control
    // service carries. Heap-allocated by the seed engine's std::function,
    // inline in the slab engine's slot.
    const auto salt = static_cast<std::uint64_t>(sim->now());
    const std::uint64_t pad = salt ^ 0x9E3779B97F4A7C15ULL;
    sim->schedule_at(sim->now(), [this, salt, pad] {
      (void)salt;
      (void)pad;
      if (r->trace.size() < kQuietTraceLimit) r->trace.push_back(sim->now());
    });
    const fs_t next = sim->now() + kQuietPeriod;
    if (next <= horizon)
      sim->schedule_at(next, [this, salt, pad] {
        (void)salt;
        (void)pad;
        fire();
      });
  }
};

template <class Sim>
QuietResult run_quiet_callbacks(Sim& sim, fs_t horizon) {
  QuietResult r;
  std::deque<QuietChain<Sim>> chains;
  for (int i = 0; i < kQuietChains; ++i) {
    chains.push_back(QuietChain<Sim>{&sim, &r, horizon});
    QuietChain<Sim>* c = &chains.back();
    sim.schedule_at(1 + i * (kQuietPeriod / kQuietChains), [c] { c->fire(); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  if constexpr (requires { sim.run(); }) {
    sim.run();  // tight drain loop, same driver the bridged run uses
  } else {
    while (sim.step()) {
    }
  }
  r.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.events = sim.events_executed();
  return r;
}

/// The same chain armed as bridged POD steps, fusing the service event at
/// the timer's instant when the gate allows (it always does here — a quiet
/// span is exactly the case the gate exists for).
struct QuietBridgeChain {
  sim::Simulator* sim;
  QuietResult* r;
  fs_t horizon;
  std::int32_t node;
  std::uint32_t index;  ///< the steps' port field: this chain in `chains`

  /// Fires a chain's step; `ctx` is the deque of chains.
  static void fire_step(void* ctx, const sim::EventQueue::BridgeStep& s) {
    (*static_cast<std::deque<QuietBridgeChain>*>(ctx))[s.port].fire(s.time);
  }

  void arm(fs_t at) {
    sim::EventQueue::BridgeStep step;
    step.port = index;
    step.kind = sim::EventQueue::BridgeKind::kTx;
    sim->bridge_schedule(node, at, step);
  }

  void fire(fs_t t) {
    if (sim->bridge_tx_fusible(node, index)) {
      sim->bridge_virtual_schedule(node);
      if (r->trace.size() < kQuietTraceLimit) r->trace.push_back(t);
      sim->bridge_virtual_fire(node, sim::EventCategory::kGeneric, t);
    } else {
      sim->schedule_at(t, [this] {
        if (r->trace.size() < kQuietTraceLimit) r->trace.push_back(sim->now());
      });
    }
    const fs_t next = t + kQuietPeriod;
    if (next <= horizon) arm(next);
  }
};

QuietResult run_quiet_bridged(sim::Simulator& sim, fs_t horizon) {
  sim.set_engine(sim::Simulator::EngineMode::kBridged);
  QuietResult r;
  std::deque<QuietBridgeChain> chains;
  sim.set_bridge_handler(sim::EventQueue::BridgeKind::kTx,
                         {&QuietBridgeChain::fire_step, &chains});
  for (int i = 0; i < kQuietChains; ++i) {
    chains.push_back(QuietBridgeChain{&sim, &r, horizon, sim.register_node(),
                                      static_cast<std::uint32_t>(i)});
    chains.back().arm(1 + i * (kQuietPeriod / kQuietChains));
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  r.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.events = sim.events_executed();
  r.fused = sim.stats().fused;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Flags flags(argc, argv);
  const auto n_events =
      static_cast<std::uint64_t>(flags.get_int("events", 10'000'000));
  const std::string out = json_out_path(flags, "event_loop");

  benchutil::banner("event-loop throughput: slab/indexed-heap engine vs seed");
  std::printf("churn workload: %llu events, 8 chains, victim pool %zu\n\n",
              static_cast<unsigned long long>(n_events),
              Churn<sim::Simulator, sim::EventHandle>::kVictimPool);

  std::vector<fs_t> trace_base, trace_new;
  std::uint64_t cancels_base = 0, cancels_new = 0;

  baseline::Simulator base;
  const double wall_base =
      run_churn<baseline::Simulator, baseline::EventHandle>(base, n_events,
                                                            &trace_base, &cancels_base);
  const double eps_base = static_cast<double>(n_events) / wall_base;
  std::printf("  baseline (std::function + tombstones): %8.3f s  %7.2f Mevents/s\n",
              wall_base, eps_base / 1e6);

  sim::Simulator sim(1);
  const double wall_new = run_churn<sim::Simulator, sim::EventHandle>(
      sim, n_events, &trace_new, &cancels_new);
  const double eps_new = static_cast<double>(n_events) / wall_new;
  std::printf("  slab engine (this PR):                 %8.3f s  %7.2f Mevents/s\n\n",
              wall_new, eps_new / 1e6);

  const double speedup = eps_base > 0 ? eps_new / eps_base : 0;
  const bool same_order = trace_base == trace_new && cancels_base == cancels_new;
  const sim::SimStats st = sim.stats();

  benchutil::print_sim_stats(sim);
  std::printf("\n");
  bool ok = true;
  ok &= benchutil::check("identical fire order across engines", same_order);
  ok &= benchutil::check(">= 2x events/sec over the seed engine", speedup >= 2.0);
  ok &= benchutil::check("events_pending is exact (matches scheduled-executed-cancelled)",
                         st.pending == st.scheduled - st.executed - st.cancelled);

  // ---- Quiet cascade: the tentpole's engine-overhead claim surface --------
  const auto quiet_horizon = static_cast<fs_t>(
      flags.get_int("quiet-periods", 25'000) * kQuietPeriod);

  benchutil::banner("quiet cascade: beacon cadence, trivial handlers");
  std::printf("%d chains, period %lld, horizon %lld (~%lld events)\n\n",
              kQuietChains, static_cast<long long>(kQuietPeriod),
              static_cast<long long>(quiet_horizon),
              static_cast<long long>(2 * kQuietChains * quiet_horizon / kQuietPeriod));

  baseline::Simulator qbase_sim;
  const QuietResult qbase = run_quiet_callbacks(qbase_sim, quiet_horizon);
  const double qeps_base = static_cast<double>(qbase.events) / qbase.wall;
  std::printf("  seed engine:          %8.3f s  %7.2f Mevents/s\n", qbase.wall,
              qeps_base / 1e6);

  sim::Simulator qexact_sim(1);
  const QuietResult qexact = run_quiet_callbacks(qexact_sim, quiet_horizon);
  const double qeps_exact = static_cast<double>(qexact.events) / qexact.wall;
  std::printf("  slab engine (exact):  %8.3f s  %7.2f Mevents/s\n", qexact.wall,
              qeps_exact / 1e6);

  sim::Simulator qbridge_sim(1);
  const QuietResult qbridge = run_quiet_bridged(qbridge_sim, quiet_horizon);
  const double qeps_bridge = static_cast<double>(qbridge.events) / qbridge.wall;
  const double fused_frac =
      qbridge.events > 0
          ? static_cast<double>(qbridge.fused) / static_cast<double>(qbridge.events)
          : 0;
  std::printf("  bridged engine:       %8.3f s  %7.2f Mevents/s  (%.0f%% fused)\n\n",
              qbridge.wall, qeps_bridge / 1e6, 100.0 * fused_frac);

  const double quiet_speedup = qeps_base > 0 ? qeps_bridge / qeps_base : 0;
  const double quiet_speedup_exact = qeps_exact > 0 ? qeps_bridge / qeps_exact : 0;
  std::printf("  bridged vs seed: %.2fx   bridged vs exact slab: %.2fx\n\n",
              quiet_speedup, quiet_speedup_exact);

  const bool quiet_same =
      qbase.trace == qexact.trace && qbase.trace == qbridge.trace &&
      qbase.events == qexact.events && qbase.events == qbridge.events;
  // Fusing deeper than the service event is unsound (DESIGN.md §12), so the
  // bridged engine keeps one heap step per cascade and its event-rate win
  // here is structurally bounded at 2x — the >= 10x claim is about retiring
  // quiet block-time vs a per-block engine, measured in bench_scalability.
  ok &= benchutil::check("quiet cascade: identical event count and fire times "
                         "across all three engines",
                         quiet_same);
  ok &= benchutil::check("quiet cascade: >= 1.7x events/sec over the seed engine "
                         "(2x is the 50%-fusion structural ceiling)",
                         quiet_speedup >= 1.7);
  ok &= benchutil::check("quiet cascade: ~half the events fused (never touch a heap)",
                         fused_frac >= 0.45);

  benchutil::BenchJson json;
  json.add("bench", std::string("event_loop"));
  json.add("events", n_events);
  json.add("baseline_wall_seconds", wall_base);
  json.add("baseline_events_per_sec", eps_base);
  json.add("wall_seconds", wall_new);
  json.add("events_per_sec", eps_new);
  json.add("speedup", speedup);
  json.add("ordering_identical", same_order);
  json.add("scheduled", st.scheduled);
  json.add("cancelled", st.cancelled);
  json.add("peak_pending", static_cast<std::uint64_t>(st.peak_pending));
  json.add("quiet_events", qbridge.events);
  json.add("quiet_baseline_events_per_sec", qeps_base);
  json.add("quiet_exact_events_per_sec", qeps_exact);
  json.add("quiet_bridged_events_per_sec", qeps_bridge);
  json.add("quiet_bridged_fused_fraction", fused_frac);
  json.add("quiet_cascade_speedup", quiet_speedup);
  json.add("quiet_cascade_speedup_vs_exact", quiet_speedup_exact);
  json.add("quiet_ordering_identical", quiet_same);
  json.write(out);

  return ok ? 0 : 1;
}
