#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/hub.hpp"
#include "sim/parallel.hpp"
#include "sim/partition.hpp"

namespace dtpsim::sim {

Simulator::Simulator(std::uint64_t seed) : seed_(seed), root_rng_(seed) {
  global_q_.bind_bridge(bridge_handlers_.data(), &records_);
}

Simulator::~Simulator() = default;

EventQueue& Simulator::queue_at(std::uint32_t q) {
  return q == 0 ? global_q_ : engine_->shard_queue(static_cast<std::int32_t>(q - 1));
}

const EventQueue& Simulator::queue_at(std::uint32_t q) const {
  return q == 0 ? global_q_ : engine_->shard_queue(static_cast<std::int32_t>(q - 1));
}

EventHandle Simulator::schedule_at(fs_t t, Callback fn, EventCategory cat) {
  if (t < now()) throw std::logic_error("Simulator::schedule_at: time in the past");
  if (!fn) throw std::invalid_argument("Simulator::schedule_at: empty callback");
  return route_schedule(t, std::move(fn), cat, detail::tls_affinity);
}

EventHandle Simulator::schedule_in(fs_t dt, Callback fn, EventCategory cat) {
  if (dt < 0) throw std::logic_error("Simulator::schedule_in: negative delay");
  fs_t t = 0;
  if (__builtin_add_overflow(now(), dt, &t))
    throw std::logic_error(
        "Simulator::schedule_in: now + delay is past the fs_t range (2^63 - 1 fs, "
        "about 9223 s)");
  return schedule_at(t, std::move(fn), cat);
}

EventHandle Simulator::route_schedule(fs_t t, Callback fn, EventCategory cat,
                                      std::int32_t node) {
  if (!engine_)
    return wrap(0, global_q_.schedule(t, std::move(fn), cat, node, nullptr));
  if (ShardRt* cur = detail::tls_shard) {
    // Worker context: events may only target the worker's own shard. Any
    // other destination would race a foreign queue — and no legitimate call
    // site does it (cross-shard traffic goes through deliver_link).
    if (node < 0 || engine_->shard_of(node) != cur->index)
      throw std::logic_error("Simulator: worker event scheduled outside its shard");
    return wrap(static_cast<std::uint32_t>(1 + cur->index),
                cur->queue.schedule(t, std::move(fn), cat, node, nullptr));
  }
  // Coordinator context (workers parked): any queue is safe to touch.
  if (node < 0) return wrap(0, global_q_.schedule(t, std::move(fn), cat, node, nullptr));
  const std::int32_t s = engine_->shard_of(node);
  return wrap(static_cast<std::uint32_t>(1 + s),
              engine_->shard_queue(s).schedule(t, std::move(fn), cat, node, nullptr));
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  if (engine_ && h.queue_ == 0) {
    // The event may have migrated to a shard queue when set_threads ran.
    if (const EventQueue::Forward* fwd = global_q_.forward_of(h.slot_, h.gen_))
      return queue_at(fwd->queue).cancel(fwd->h);
  }
  return queue_at(h.queue_).cancel(EventQueue::Handle{h.slot_, h.gen_});
}

bool Simulator::pending(EventHandle h) const {
  if (!h.valid()) return false;
  if (engine_ && h.queue_ == 0) {
    if (const EventQueue::Forward* fwd = global_q_.forward_of(h.slot_, h.gen_))
      return queue_at(fwd->queue).is_pending(fwd->h);
  }
  return queue_at(h.queue_).is_pending(EventQueue::Handle{h.slot_, h.gen_});
}

void Simulator::run_until(fs_t t_end) {
  const auto wall0 = std::chrono::steady_clock::now();
  if (!engine_) {
    obs::WallScope scope(obs_ ? &obs_->wall() : nullptr, obs::WallPhase::kSerialRun);
    global_q_.run(t_end, /*inclusive=*/true);
    global_q_.advance_now(t_end);
  } else {
    run_until_parallel(t_end);
  }
  run_wall_ += std::chrono::steady_clock::now() - wall0;
}

void Simulator::run_until_parallel(fs_t t_end) {
  // A segment never covers more than this many epochs before control
  // returns to the coordinator, so bursty workloads (a PTP poll every few
  // milliseconds of otherwise-idle settle) reach the idle fast-forward
  // below instead of lock-stepping the workers through millions of empty
  // epochs. Workers are persistent and parked between segments, so the
  // extra segment round-trips cost atomics, not thread spawns.
  constexpr std::int64_t kEpochsPerSlice = 4096;
  for (;;) {
    const fs_t t = global_q_.now();
    const fs_t g = global_q_.next_time();
    if (g <= t) {
      // Global work at the current instant (scheduled by sync-time code).
      process_instant(t);
      continue;
    }
    const fs_t horizon = std::min(g, t_end);
    if (horizon > t) {
      // Idle fast-forward: between segments the workers are parked and
      // every mailbox is drained, so the earliest pending event across all
      // queues bounds what a segment could fire — time before it is
      // provably empty and can be skipped outright.
      fs_t first = horizon;
      for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
        first = std::min(first, engine_->shard_queue(s).next_time());
      if (first > t) {
        global_q_.advance_now(first);
        engine_->advance_all(first);
        if (first < horizon) continue;
        // Nothing pending before the horizon: fall through to the sync
        // point, where process_instant fires events at exactly `horizon`.
      } else {
        // A partition that cuts no cable has lookahead kNoEventTime: the
        // slice is then the whole horizon, not an overflowed product.
        fs_t span = 0;
        fs_t end = 0;
        const bool fits =
            !__builtin_mul_overflow(engine_->lookahead(), kEpochsPerSlice, &span) &&
            !__builtin_add_overflow(t, span, &end);
        const fs_t slice_end = fits ? std::min(horizon, end) : horizon;
        {
          obs::WallScope scope(obs_ ? &obs_->wall() : nullptr,
                               obs::WallPhase::kParallelSegment);
          engine_->run_segment(t, slice_end);
        }
        {
          obs::WallScope scope(obs_ ? &obs_->wall() : nullptr,
                               obs::WallPhase::kMailboxDrain);
          engine_->drain_all_mailboxes();
        }
        if (slice_end < horizon) {
          global_q_.advance_now(slice_end);
          engine_->advance_all(slice_end);
          continue;
        }
      }
    }
    process_instant(horizon);
    global_q_.advance_now(horizon);
    engine_->advance_all(horizon);
    if (horizon >= t_end) break;
  }
}

void Simulator::process_instant(fs_t t) {
  // Globals first (they sort first in serial mode too), then per-shard
  // events at exactly t; loop because either side may schedule more work at
  // t. All cascades run on this thread — a transmit from here goes straight
  // into the destination shard's queue, never through a mailbox.
  obs::WallScope scope(obs_ ? &obs_->wall() : nullptr, obs::WallPhase::kInstant);
  for (;;) {
    std::uint64_t fired = global_q_.run(t, /*inclusive=*/true);
    for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
      fired += engine_->shard_queue(s).run(t, /*inclusive=*/true);
    if (fired == 0) break;
    instant_events_ += fired;
  }
}

void Simulator::run() {
  if (!engine_) {
    const auto wall0 = std::chrono::steady_clock::now();
    while (global_q_.fire_one()) {
    }
    run_wall_ += std::chrono::steady_clock::now() - wall0;
    return;
  }
  while (events_pending() > 0) {
    fs_t next = global_q_.next_time();
    for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
      next = std::min(next, engine_->shard_queue(s).next_time());
    run_until(next);
  }
}

bool Simulator::step() {
  if (engine_)
    throw std::logic_error("Simulator::step: unavailable in parallel mode");
  return global_q_.fire_one();
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t n = global_q_.executed();
  if (engine_)
    for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
      n += engine_->shard_queue(s).executed();
  return n;
}

std::size_t Simulator::events_pending() const {
  std::size_t n = global_q_.size();
  if (engine_)
    for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
      n += engine_->shard_queue(s).size();
  return n;
}

SimStats Simulator::stats() const {
  SimStats st;
  global_q_.accumulate(st);
  if (engine_)
    for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
      engine_->shard_queue(s).accumulate(st);
  st.run_wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(run_wall_).count();
  st.events_per_sec = st.run_wall_seconds > 0
                          ? static_cast<double>(st.executed) / st.run_wall_seconds
                          : 0;
  return st;
}

Rng Simulator::fork_rng(std::uint64_t tag) {
  if (detail::tls_shard != nullptr)
    throw std::logic_error(
        "Simulator::fork_rng: forking from a worker event would make the root "
        "stream depend on thread interleaving");
  return root_rng_.fork(tag);
}

std::int32_t Simulator::register_node() {
  node_weights_.push_back(1);
  return static_cast<std::int32_t>(node_weights_.size()) - 1;
}

void Simulator::note_node_port(std::int32_t node) {
  if (node >= 0 && node < static_cast<std::int32_t>(node_weights_.size()))
    ++node_weights_[static_cast<std::size_t>(node)];
}

void Simulator::register_edge(std::int32_t a, std::int32_t b, fs_t delay) {
  if (a < 0 || b < 0 || a == b) return;
  if (engine_ && engine_->shard_of(a) != engine_->shard_of(b) &&
      delay < engine_->lookahead())
    throw std::logic_error(
        "Simulator::register_edge: new cross-shard cable undercuts the "
        "engine's lookahead");
  edges_.push_back(GraphEdge{a, b, delay});
}

void Simulator::set_node_pod(std::int32_t node, std::int32_t pod) {
  if (engine_)
    throw std::logic_error("Simulator::set_node_pod: call before set_threads");
  if (node < 0 || node >= static_cast<std::int32_t>(node_weights_.size()))
    throw std::out_of_range("Simulator::set_node_pod: unregistered node");
  if (node_pods_.size() < node_weights_.size())
    node_pods_.resize(node_weights_.size(), -1);
  node_pods_[static_cast<std::size_t>(node)] = pod;
  if (pod >= 0) any_pod_set_ = true;
}

void Simulator::reserve_graph(std::size_t nodes, std::size_t edges) {
  node_weights_.reserve(nodes);
  node_pods_.reserve(nodes);
  edges_.reserve(edges);
  global_q_.reserve_nodes(nodes);
}

void Simulator::set_threads(unsigned threads) {
  if (engine_) throw std::logic_error("Simulator::set_threads: already parallel");
  if (global_q_.bridge_pending() > 0)
    throw std::logic_error(
        "Simulator::set_threads: bridged steps pending — shard before running "
        "a bridged simulation");
  if (threads <= 1 || node_weights_.empty()) return;
  PartitionInput in;
  in.nodes = static_cast<std::int32_t>(node_weights_.size());
  in.weights = node_weights_;
  in.edges.reserve(edges_.size());
  for (const GraphEdge& e : edges_)
    in.edges.push_back(PartitionInput::Edge{e.a, e.b, e.delay});
  if (any_pod_set_) {
    in.pods = node_pods_;
    in.pods.resize(node_weights_.size(), -1);
  }
  PartitionResult part = partition_graph(in, static_cast<std::int32_t>(threads));
  if (part.shards <= 1) return;  // graph doesn't split; stay serial
  engine_ = std::make_unique<ParallelEngine>(in, std::move(part), global_q_.next_seq());
  for (std::int32_t s = 0; s < engine_->shard_count(); ++s)
    engine_->shard_queue(s).bind_bridge(bridge_handlers_.data(), &records_);
  if (obs_ != nullptr) engine_->set_wall_profile(&obs_->wall());
  migrate_pending();
  engine_->advance_all(global_q_.now());
}

void Simulator::set_obs(obs::Hub* hub) {
  if (detail::tls_shard != nullptr)
    throw std::logic_error("Simulator::set_obs: coordinator-only");
  obs_ = hub;
  if (engine_) engine_->set_wall_profile(hub != nullptr ? &hub->wall() : nullptr);
}

void Simulator::migrate_pending() {
  for (EventQueue::Extracted& ev : global_q_.extract_node_events()) {
    const std::int32_t s = engine_->shard_of(ev.node);
    const EventQueue::Handle h = engine_->shard_queue(s).schedule_migrated(
        ev.time, std::move(ev.fn), ev.cat, ev.node, ev.owner, ev.key);
    global_q_.set_forward(ev.src_slot, static_cast<std::uint32_t>(1 + s), h);
  }
}

std::int32_t Simulator::shard_count() const {
  return engine_ ? engine_->shard_count() : 1;
}

fs_t Simulator::lookahead() const {
  if (!engine_) return 0;
  const fs_t la = engine_->lookahead();
  return la == EventQueue::kNoEventTime ? 0 : la;
}

ParallelStats Simulator::parallel_stats() const {
  ParallelStats ps;
  if (!engine_) return ps;
  ps.threads = engine_->shard_count();
  ps.shards = engine_->shard_count();
  ps.lookahead = lookahead();
  ps.segments = engine_->segments();
  ps.epochs = engine_->epochs();
  ps.cross_messages = engine_->cross_messages();
  ps.worker_events = engine_->worker_events();
  ps.instant_events = instant_events_;
  ps.critical_path_events = engine_->critical_path_events();
  return ps;
}

EventHandle Simulator::deliver_link(std::int32_t src_node, std::int32_t dst_node,
                                    fs_t arrival, Callback fn, EventCategory cat,
                                    const void* owner, std::uint64_t link_key) {
  if (!engine_ || dst_node < 0)
    return wrap(0, global_q_.schedule_link(arrival, std::move(fn), cat, dst_node,
                                           owner, link_key));
  const std::int32_t dst_shard = engine_->shard_of(dst_node);
  ShardRt* cur = detail::tls_shard;
  if (cur == nullptr) {
    // Coordinator context (sync point): workers are parked, direct insert.
    return wrap(static_cast<std::uint32_t>(1 + dst_shard),
                engine_->shard_queue(dst_shard)
                    .schedule_link(arrival, std::move(fn), cat, dst_node, owner,
                                   link_key));
  }
  if (cur->index == dst_shard)
    return wrap(static_cast<std::uint32_t>(1 + dst_shard),
                cur->queue.schedule_link(arrival, std::move(fn), cat, dst_node,
                                         owner, link_key));
  engine_->push_cross(cur->index, dst_shard,
                      CrossMsg{arrival, dst_node, cat, owner, link_key,
                               std::move(fn)});
  (void)src_node;
  return EventHandle();  // mailbox-routed: cancellation via purge_deliveries
}

EventQueue& Simulator::bridge_context_queue(std::int32_t node) {
  // Inside an event, the firing queue *is* where exact scheduling for the
  // event's own node would land (route_schedule invariants); outside one,
  // fall back to explicit routing.
  if (EventQueue* q = detail::tls_queue) return *q;
  return node_queue(node);
}

const EventQueue& Simulator::bridge_context_queue(std::int32_t node) const {
  if (const EventQueue* q = detail::tls_queue) return *q;
  if (!engine_ || node < 0) return global_q_;
  return engine_->shard_queue(engine_->shard_of(node));
}

EventQueue& Simulator::node_queue(std::int32_t node) {
  if (!engine_ || node < 0) return global_q_;
  return engine_->shard_queue(engine_->shard_of(node));
}

Simulator::BridgeToken Simulator::bridge_schedule(std::int32_t node, fs_t t,
                                                  const EventQueue::BridgeStep& step) {
  // Mirrors route_schedule exactly, so the step consumes the same sequence
  // number from the same queue as the event it replaces.
  if (ShardRt* cur = detail::tls_shard) {
    if (node < 0 || engine_->shard_of(node) != cur->index)
      throw std::logic_error("Simulator: worker bridged step outside its shard");
  }
  return BridgeToken{node, node_queue(node).bridge_schedule(t, node, step)};
}

bool Simulator::bridge_cancel(BridgeToken tok) {
  if (!tok.valid()) return false;
  return node_queue(tok.node).bridge_cancel(tok.node, tok.key);
}

bool Simulator::bridge_deliver_link(std::int32_t dst_node, fs_t arrival,
                                    std::uint64_t link_sub,
                                    const EventQueue::BridgeStep& step) {
  // Mirrors deliver_link's three-way routing; the cross-shard worker case
  // keeps the exact mailbox path (Callback hand-off), so it reports false.
  ShardRt* cur = detail::tls_shard;
  if (engine_ && dst_node >= 0 && cur != nullptr &&
      cur->index != engine_->shard_of(dst_node))
    return false;
  node_queue(dst_node).bridge_schedule_link(arrival, link_sub, dst_node, step);
  return true;
}

std::uint64_t Simulator::bridge_virtual_schedule(std::int32_t node) {
  return bridge_context_queue(node).bridge_virtual_schedule();
}

void Simulator::bridge_virtual_fire(std::int32_t node, EventCategory cat, fs_t t) {
  bridge_context_queue(node).bridge_virtual_fire(cat, t);
}

bool Simulator::bridge_tx_fusible(std::int32_t node, std::uint32_t port) const {
  return bridge_context_queue(node).bridge_tx_fusible(node, port);
}

bool Simulator::bridge_fusible_at(std::int32_t node, fs_t t) const {
  const EventQueue& q = bridge_context_queue(node);
  return q.bridge_within_horizon(t) && q.bridge_apply_fusible(node, t);
}

std::size_t Simulator::purge_deliveries(const void* owner, std::int32_t a,
                                        std::int32_t b, std::uint32_t port_a,
                                        std::uint32_t port_b) {
  if (detail::tls_shard != nullptr)
    throw std::logic_error("Simulator::purge_deliveries: coordinator-only");
  // Bridged arrivals land on the destination node's queue (bridge_deliver_
  // link), and bare ports (node -1) share the global queue's array.
  std::size_t n = node_queue(a).bridge_purge(a, port_a, port_b);
  n += node_queue(b).bridge_purge(b, port_a, port_b);  // a no-op when b shares a's array
  if (engine_) n += global_q_.purge_owner(owner) + engine_->purge_owner(owner);
  return n;
}

PeriodicProcess::PeriodicProcess(Simulator& sim, fs_t period, Callback fn,
                                 EventCategory cat)
    : sim_(sim), period_(period), fn_(std::move(fn)), cat_(cat) {
  if (period_ <= 0) throw std::invalid_argument("PeriodicProcess: period must be > 0");
  if (!fn_) throw std::invalid_argument("PeriodicProcess: empty callback");
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start() { start_with_phase(period_); }

void PeriodicProcess::start_with_phase(fs_t phase) {
  if (running_) return;
  running_ = true;
  arm(phase);
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle();
}

void PeriodicProcess::set_period(fs_t period) {
  if (period <= 0) throw std::invalid_argument("PeriodicProcess: period must be > 0");
  period_ = period;
}

void PeriodicProcess::arm(fs_t delay) {
  // Re-arms from inside the callback inherit the event's affinity; the
  // explicit override matters for the first arm (start() runs in the
  // caller's context) and for restarts from global code.
  std::optional<ScopedAffinity> aff;
  if (affinity_ >= 0) aff.emplace(affinity_);
  pending_ = sim_.schedule_in(
      delay,
      [this] {
        // Clear the handle first: this event is firing, so a stop() from
        // inside fn_ must not try to cancel it.
        pending_ = EventHandle();
        if (!running_) return;
        fn_();
        // Re-arm unless fn_ stopped us, or stopped-and-restarted (in which
        // case start() already armed and pending_ is valid again).
        if (running_ && !pending_.valid()) arm(period_);
      },
      cat_);
}

}  // namespace dtpsim::sim
