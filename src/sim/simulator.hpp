#pragma once

/// \file simulator.hpp
/// Discrete-event simulation facade: one API, two engines.
///
/// The whole reproduction runs against this interface: protocol actions,
/// frame boundaries, oscillator drift updates, and measurement probes are
/// events; clock counters are computed analytically between events (see
/// phy::Oscillator). Determinism rules:
///   * events at equal timestamps fire in a fixed key order (global
///     coordinator events, then device-local events in scheduling order,
///     then link deliveries in (edge, message) order — event_queue.hpp),
///   * all randomness flows from Rng streams forked off the simulator's root
///     seed, so a (topology, seed, thread count) triple fully determines a
///     run — and the thread count only changes wall time, never results.
///
/// Serial mode (default) drives a single EventQueue. `set_threads(N)`
/// switches to the conservative parallel backend (parallel.hpp): the device
/// graph registered via register_node/register_edge is partitioned into at
/// most N shards (partition.hpp), pending device-affine events migrate to
/// their shard queues, and run_until() advances time in conservative epochs
/// bounded by the minimum cut-cable propagation delay. Global events (chaos
/// injection, PTP/NTP reference exchanges, probes) always execute on the
/// coordinator thread between segments, so cross-layer code that samples
/// many devices at once never races a worker.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time_units.hpp"
#include "sim/arena.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/port_records.hpp"

namespace dtpsim::obs {
class Hub;
}

namespace dtpsim::sim {

class ParallelEngine;

/// Handle to a scheduled event; allows cancellation. A handle is a (queue,
/// slot, generation) triple: once the event fires or is cancelled the slot's
/// generation advances, so a retained handle can never cancel an unrelated
/// later event that happens to reuse the slot.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle was returned by a schedule call (it may refer to an
  /// event that has since fired or been cancelled; cancel() detects that).
  bool valid() const { return gen_ != 0; }

  /// Debug identity: packs (slot, generation) into one word.
  std::uint64_t id() const {
    return (static_cast<std::uint64_t>(slot_) << 32) | gen_;
  }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}
  std::uint32_t queue_ = 0;  ///< 0 = global queue, 1+s = shard s
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Sets the device-affinity context for schedule calls made inside the
/// scope. Entry points that act on behalf of a device but are reached from
/// outside an event of that device (PHY delivery hooks, periodic process
/// start) wrap themselves in one of these so the scheduled work lands on the
/// device's shard. Events themselves inherit the affinity of the event that
/// scheduled them automatically.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(std::int32_t node) : prev_(detail::tls_affinity) {
    detail::tls_affinity = node;
  }
  ~ScopedAffinity() { detail::tls_affinity = prev_; }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  std::int32_t prev_;
};

/// Parallel-run instrumentation (all zeros in serial mode). The speedup
/// metric is event-count based: wall time on an undersubscribed host mixes
/// in scheduler noise, whereas the critical path — the busiest shard of
/// every epoch, plus everything the coordinator ran between segments — is
/// the serialized work an ideally-scheduled run cannot avoid.
struct ParallelStats {
  std::int32_t threads = 1;  ///< worker threads (== realized shards)
  std::int32_t shards = 1;
  fs_t lookahead = 0;  ///< epoch length; 0 when serial or nothing cut
  std::uint64_t segments = 0;        ///< coordinator->workers hand-offs
  std::uint64_t epochs = 0;          ///< conservative windows executed
  std::uint64_t cross_messages = 0;  ///< deliveries routed through mailboxes
  std::uint64_t worker_events = 0;   ///< events fired on worker threads
  std::uint64_t instant_events = 0;  ///< events fired on the coordinator at sync
  std::uint64_t critical_path_events = 0;  ///< serialized-work lower bound

  /// Total work over serialized work: the speedup an ideal scheduler
  /// extracts from this decomposition, independent of host core count.
  double critical_path_speedup() const {
    const double serialized =
        static_cast<double>(critical_path_events + instant_events);
    const double total = static_cast<double>(worker_events + instant_events);
    return serialized > 0 ? total / serialized : 1.0;
  }
};

/// Discrete-event simulator with femtosecond time (see file comment).
class Simulator {
 public:
  /// \param seed root seed; every component forks its RNG stream from here.
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (the executing shard's clock inside an event;
  /// the coordinator clock otherwise).
  fs_t now() const {
    const EventQueue* q = detail::tls_queue;
    return q != nullptr ? q->now() : global_q_.now();
  }

  /// Schedule `fn` at absolute time `t` (must be >= now()). The event is
  /// attributed to the current affinity context (the scheduling event's
  /// device, or a ScopedAffinity override; global when neither applies).
  EventHandle schedule_at(fs_t t, Callback fn,
                          EventCategory cat = EventCategory::kGeneric);

  /// Schedule `fn` after a delay of `dt` (must be >= 0). A delay that puts
  /// now() + dt past the fs_t range throws std::logic_error.
  EventHandle schedule_in(fs_t dt, Callback fn,
                          EventCategory cat = EventCategory::kGeneric);

  /// Cancel a pending event: O(log n) removal from its queue. Returns true
  /// iff the event was actually pending. Cancelling a default-constructed
  /// handle, an already-fired event, an already-cancelled event, or the
  /// currently-executing event is a no-op returning false — a stale handle
  /// is detected by generation mismatch and records nothing.
  bool cancel(EventHandle h);

  /// True iff `h` refers to an event still waiting in a queue (i.e. a
  /// cancel(h) right now would succeed). Lets holders of handle collections
  /// (e.g. a cable tracking its in-flight deliveries) prune fired entries
  /// without cancelling anything.
  bool pending(EventHandle h) const;

  /// Run until the queue is empty or `t_end` is reached; the simulation clock
  /// lands exactly on `t_end` even if no event fires there.
  void run_until(fs_t t_end);

  /// Run until every event queue drains completely.
  void run();

  /// Fire exactly one event if any is pending; returns whether one fired.
  /// Serial mode only (parallel mode has no single "next" event).
  bool step();

  /// Number of events executed so far (all queues).
  std::uint64_t events_executed() const;

  /// Number of events currently pending (all queues). Exact: cancelled
  /// events leave their queue immediately, so this can never underflow.
  std::size_t events_pending() const;

  /// Instrumentation snapshot (counters, queue depth, throughput).
  SimStats stats() const;

  /// Fork an independent RNG stream, tagged by purpose (component id etc.).
  /// Coordinator-only: forking mutates the root stream, so doing it from a
  /// worker event would be a determinism bug — it throws instead.
  Rng fork_rng(std::uint64_t tag);

  /// Root seed the simulator was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Where the network's devices, ports, cables, agents and port logics
  /// live (arena.hpp): construction order, freed with the simulator.
  /// Coordinator-only, like building the network.
  Arena& arena() { return arena_; }

  /// The per-port records of the quiet beacon cycle (port_records.hpp).
  /// Coordinator-only to grow, like building the network.
  PortRecords& port_records() { return records_; }
  const PortRecords& port_records() const { return records_; }

  // --- Device graph registration (parallel partitioning input) -------------

  /// Register a device; returns its node id. Weight starts at 1 and grows
  /// with note_node_port.
  std::int32_t register_node();

  /// Bump `node`'s partition weight by one port (a proxy for event rate).
  void note_node_port(std::int32_t node);

  /// Register a cable between two nodes. In parallel mode a new cross-shard
  /// cable must not undercut the engine's lookahead (it would break the
  /// conservative epoch bound), so that case throws.
  void register_edge(std::int32_t a, std::int32_t b, fs_t delay);

  /// Assign `node` to a pod (two-level partitioning; partition.hpp). A pod
  /// is a contraction barrier: the partitioner packs whole pods onto shards
  /// and only splits inside one when balance demands it, so at datacenter
  /// scale the only cut cables are the long pod-to-core uplinks. Nodes left
  /// unassigned (or set to -1) partition as before. Call during setup,
  /// before set_threads().
  void set_node_pod(std::int32_t node, std::int32_t pod);

  /// Pre-size the device-graph registries (and the global queue's node
  /// registry) for a topology of known size, so building a 10k-device fabric
  /// does not pay per-registration reallocation.
  void reserve_graph(std::size_t nodes, std::size_t edges);

  /// Allocate a globally unique edge-direction id for link-delivery tie
  /// keys (a cable takes two). Coordinator-only (cables are constructed at
  /// setup or at chaos sync points).
  std::uint32_t alloc_link_dir_id() { return next_link_dir_++; }

  // --- Parallel mode --------------------------------------------------------

  /// Switch to the parallel backend with at most `threads` worker shards.
  /// Call after the topology (and any pre-scheduled protocol work) is set
  /// up and before running; pending device events migrate to their shards.
  /// No-op if `threads` <= 1 or the graph doesn't split.
  void set_threads(unsigned threads);

  bool parallel() const { return engine_ != nullptr; }
  std::int32_t shard_count() const;
  /// Epoch length of the parallel engine (0 when serial).
  fs_t lookahead() const;
  ParallelStats parallel_stats() const;

  // --- Engine mode (quiet-path fast-forward; DESIGN.md §12) -----------------

  /// kExact drives every protocol action through generation-counted events.
  /// kBridged lets the quiet PHY path (beacon cadence, control deliveries,
  /// CDC visibility) advance through analytic POD steps that fire at the
  /// exact same (time, key) positions — RunDigest-bit-identical, ~an order
  /// of magnitude fewer event-machinery costs on quiet intervals.
  /// kBridged is the default; kExact is the reference the differential
  /// checks compare against, so a caller that promises it must name it.
  enum class EngineMode : std::uint8_t { kExact, kBridged };

  /// Select the engine mode. Consulted at arm time, so switching mid-run
  /// only affects work scheduled afterwards.
  void set_engine(EngineMode mode) { engine_mode_ = mode; }
  EngineMode engine_mode() const { return engine_mode_; }
  bool bridged() const { return engine_mode_ == EngineMode::kBridged; }

  /// Register the handler that fires bridged steps of `kind`: the layer
  /// that arms them does, when it builds its first object (phy::PhyPort
  /// arrivals and applies, dtp::PortLogic beacon timers). Coordinator-only.
  void set_bridge_handler(EventQueue::BridgeKind kind, EventQueue::BridgeHandler h) {
    bridge_handlers_[static_cast<std::size_t>(kind)] = h;
  }

  /// Cancellation token for a bridged step: its node and its key. A node's
  /// steps all sit in one queue, so the node names it.
  struct BridgeToken {
    std::int32_t node = -1;
    std::uint64_t key = 0;
    bool valid() const { return key != 0; }
  };

  /// Arm a node-class bridged step for `node` at `t`, routed to the same
  /// queue (and consuming the same sequence number) schedule_at would use.
  BridgeToken bridge_schedule(std::int32_t node, fs_t t,
                              const EventQueue::BridgeStep& step);

  /// Cancel a pending bridged step; stale tokens no-op (like cancel()).
  bool bridge_cancel(BridgeToken tok);

  /// Bridged link delivery: push a POD arrival step on the destination's
  /// queue when the current context may touch it directly. Returns false
  /// for a cross-shard send from a worker — the caller must fall back to
  /// the exact deliver_link (mailbox) path.
  bool bridge_deliver_link(std::int32_t dst_node, fs_t arrival,
                           std::uint64_t link_sub,
                           const EventQueue::BridgeStep& step);

  /// Accounting for an event fused inline on `node`'s queue: consume its
  /// sequence number / count its firing without any heap traffic.
  std::uint64_t bridge_virtual_schedule(std::int32_t node);
  void bridge_virtual_fire(std::int32_t node, EventCategory cat, fs_t t);

  /// True when the beacon timer of `port` on `node` may fuse its control
  /// service inline at the current instant (see EventQueue::bridge_tx_fusible).
  bool bridge_tx_fusible(std::int32_t node, std::uint32_t port) const;

  /// True when a CDC visibility event for `node` may be fused inline for the
  /// *future* instant `t`: nothing of this node fires before its slot, and
  /// `t` is inside the active run horizon (epoch bound in parallel mode).
  bool bridge_fusible_at(std::int32_t node, fs_t t) const;

  /// Schedule a link delivery from `src_node`'s port to `dst_node` at
  /// `arrival`. `link_key` is the (edge direction << 32 | message index)
  /// tie-break key; `owner` tags the event for purge_deliveries. Returns an
  /// invalid handle when the delivery was routed through a cross-shard
  /// mailbox (cancellation then goes through purge_deliveries).
  EventHandle deliver_link(std::int32_t src_node, std::int32_t dst_node,
                           fs_t arrival, Callback fn, EventCategory cat,
                           const void* owner, std::uint64_t link_key);

  /// Cancel every pending delivery of a cable tagged `owner` that joins
  /// port `port_a` on node `a` to port `port_b` on node `b` (coordinator-
  /// only; used by Cable::disconnect). Its bridged arrivals into either
  /// port sit in the two end nodes' step arrays; only a parallel run also
  /// scans the exact slabs, for mailbox-routed deliveries that returned no
  /// handle. Returns how many.
  std::size_t purge_deliveries(const void* owner, std::int32_t a, std::int32_t b,
                               std::uint32_t port_a, std::uint32_t port_b);

  // --- Observability --------------------------------------------------------

  /// Attach (or detach with nullptr) an observability hub. Coordinator-only,
  /// workers parked. The hub is not owned and must outlive its attachment;
  /// instrumented layers reach it through obs() with one pointer test, so a
  /// run without a hub pays nothing (DESIGN.md §11).
  void set_obs(obs::Hub* hub);
  obs::Hub* obs() const { return obs_; }

 private:
  EventHandle wrap(std::uint32_t queue, EventQueue::Handle h) {
    return EventHandle(queue, h.slot, h.gen);
  }
  EventQueue& queue_at(std::uint32_t q);
  const EventQueue& queue_at(std::uint32_t q) const;
  /// The queue that holds `node`'s bridged steps.
  EventQueue& node_queue(std::int32_t node);
  /// Queue the currently-executing event context owns for `node` — the
  /// bridge's fused accounting must hit the queue exact scheduling would.
  EventQueue& bridge_context_queue(std::int32_t node);
  const EventQueue& bridge_context_queue(std::int32_t node) const;
  /// Route a schedule call to the right queue for (affinity, context).
  EventHandle route_schedule(fs_t t, Callback fn, EventCategory cat,
                             std::int32_t node);
  /// Move pending device-affine events into their shard queues, leaving
  /// forwarders behind so outstanding handles stay cancellable.
  void migrate_pending();
  void run_until_parallel(fs_t t_end);
  /// Fire every event at exactly `t` (globals first, then per-shard), to a
  /// fixpoint. Coordinator-only.
  void process_instant(fs_t t);

  // First members, so the arena and the port records outlive the queues and
  // the worker threads whose pending work may still point into them.
  Arena arena_;
  PortRecords records_;
  std::array<EventQueue::BridgeHandler, EventQueue::kBridgeKinds> bridge_handlers_{};
  std::uint64_t seed_;
  Rng root_rng_;
  EngineMode engine_mode_ = EngineMode::kBridged;
  std::chrono::steady_clock::duration run_wall_{0};
  EventQueue global_q_;
  std::unique_ptr<ParallelEngine> engine_;
  obs::Hub* obs_ = nullptr;
  std::uint64_t instant_events_ = 0;

  struct GraphEdge {
    std::int32_t a;
    std::int32_t b;
    fs_t delay;
  };
  std::vector<std::uint32_t> node_weights_;
  std::vector<GraphEdge> edges_;
  std::vector<std::int32_t> node_pods_;  ///< node -> pod id; -1 unassigned
  bool any_pod_set_ = false;
  std::uint32_t next_link_dir_ = 0;
};

/// Repeatedly runs a callback with a fixed period; the callback may stop the
/// process. Periods may be changed between firings.
class PeriodicProcess {
 public:
  /// \param sim      owning simulator (must outlive the process)
  /// \param period   interval between invocations, > 0
  /// \param fn       invoked once per period while running
  /// \param cat      event category the firings are counted under
  PeriodicProcess(Simulator& sim, fs_t period, Callback fn,
                  EventCategory cat = EventCategory::kGeneric);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Begin firing; first invocation happens one period from now (or `phase`
  /// from now if given).
  void start();
  void start_with_phase(fs_t phase);

  /// Stop firing; safe to call from inside the callback (the in-flight
  /// handle is cleared before the callback runs, so this never cancels the
  /// currently-firing event).
  void stop();

  bool running() const { return running_; }
  fs_t period() const { return period_; }

  /// Change the period; takes effect from the next scheduling decision.
  void set_period(fs_t period);

  /// Attribute this process's events to a device so they run on its shard
  /// (-1 = inherit the ambient context). Set before start().
  void set_affinity(std::int32_t node) { affinity_ = node; }

 private:
  void arm(fs_t delay);

  Simulator& sim_;
  fs_t period_;
  Callback fn_;
  EventCategory cat_;
  bool running_ = false;
  std::int32_t affinity_ = -1;
  EventHandle pending_;
};

}  // namespace dtpsim::sim
