#pragma once

/// \file event_queue.hpp
/// One event queue: a slab of generation-counted slots addressed by an
/// indexed 4-ary min-heap, plus the bridged steps of DESIGN.md §12, kept in
/// one sorted array per node under a 4-ary heap of the arrays' fronts.
///
/// The serial simulator owns exactly one of these; the parallel engine owns
/// one per shard plus the coordinator's global queue (see parallel.hpp). A
/// queue is single-threaded by construction — cross-thread hand-off happens
/// above this layer (mailboxes drained at epoch boundaries) — so nothing in
/// here is atomic.
///
/// Determinism contract: events at equal timestamps fire in key order, and
/// the key is built so the order is identical whether a run is serial or
/// sharded (DESIGN.md §9):
///
///   class 0 (global)  coordinator events — chaos faults, probes, PTP/NTP —
///                     fire first, in scheduling order;
///   class 1 (node)    device-local events fire next, in scheduling order
///                     (a node's scheduling stream is the same sequence of
///                     calls in both engines, so per-queue counters agree);
///   class 2 (link)    cable deliveries fire last, ordered by an explicit
///                     (edge direction, message index) subkey assigned by
///                     the cable — NOT by scheduling order, because a
///                     cross-shard delivery is inserted whenever its mailbox
///                     is drained, which depends on worker interleaving.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/time_units.hpp"
#include "sim/callback.hpp"
#include "sim/port_records.hpp"

namespace dtpsim::sim {

/// What kind of work an event performs; drives the per-category counters in
/// SimStats. Purely observational — scheduling semantics are identical for
/// all categories.
enum class EventCategory : std::uint8_t {
  kGeneric = 0,  ///< untagged / miscellaneous
  kBeacon,       ///< protocol sync traffic: DTP beacons/INIT, PTP sync, NTP polls
  kFrame,        ///< frame & control-block transport through PHY/MAC/switch
  kDrift,        ///< oscillator drift walks and syntonization updates
  kProbe,        ///< measurement: offset probes, daemon polls, samplers
  kApp,          ///< application load: traffic generators, OWD, scheduled tx
};
inline constexpr std::size_t kEventCategoryCount = 6;

/// Human-readable name for a category ("beacon", "frame", ...).
const char* category_name(EventCategory cat);

/// Snapshot of the engine's instrumentation counters. In parallel mode the
/// totals are summed over every shard queue; `peak_pending` is the sum of
/// per-queue peaks (an upper bound on the true global peak).
struct SimStats {
  std::uint64_t scheduled = 0;  ///< total schedule_at/schedule_in calls
  std::uint64_t executed = 0;   ///< events fired
  std::uint64_t cancelled = 0;  ///< events removed before firing
  std::uint64_t fused = 0;      ///< bridged events executed without a heap pass
  /// Scheduled callbacks whose capture outgrew the Callback inline buffer
  /// and heap-allocated. A nonzero rate here means some hot-path lambda got
  /// fat — the slot-layout work (one cache line per slot) assumes ~0.
  std::uint64_t callback_spills = 0;
  std::uint64_t executed_by_category[kEventCategoryCount] = {};
  std::size_t pending = 0;       ///< events in the queue right now
  std::size_t peak_pending = 0;  ///< high-water mark of the queue depth
  double run_wall_seconds = 0;   ///< wall time spent inside run()/run_until()
  double events_per_sec = 0;     ///< executed / run_wall_seconds (0 if unknown)
};

class EventQueue;
struct ShardRt;  // parallel.hpp

namespace detail {
/// Node id the currently-executing event is attributed to (-1 = global /
/// coordinator). New events inherit it; ScopedAffinity overrides it.
inline thread_local std::int32_t tls_affinity = -1;
/// Queue the current thread is firing from; Simulator::now() reads its clock.
inline thread_local EventQueue* tls_queue = nullptr;
/// Shard a worker thread executes for (null on the coordinator thread).
inline thread_local ShardRt* tls_shard = nullptr;
}  // namespace detail

/// A single min-heap event queue (see file comment). Not thread-safe.
class EventQueue {
 public:
  /// Queue-local event reference; Simulator wraps it with a queue index.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    bool valid() const { return gen != 0; }
  };

  /// Where a setup event went when the queue was sharded (see
  /// extract_node_events).
  struct Forward {
    std::uint32_t queue = 0;
    Handle h{};
  };

  /// Sentinel for "no event" / "no horizon".
  static constexpr fs_t kNoEventTime = std::numeric_limits<fs_t>::max();

  /// Tie-break class (top two bits of the heap key; see file comment).
  static constexpr std::uint64_t kKeyClassShift = 62;
  static std::uint64_t node_class_key(std::uint64_t seq, bool is_node) {
    return seq | (is_node ? (1ULL << kKeyClassShift) : 0);
  }
  static std::uint64_t link_class_key(std::uint64_t sub) {
    return sub | (2ULL << kKeyClassShift);
  }

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  fs_t now() const { return now_; }
  void advance_now(fs_t t) {
    if (t > now_) now_ = t;
  }
  bool empty() const { return heap_.empty() && bridge_count_ == 0; }
  std::size_t size() const { return heap_.size() + bridge_count_; }
  fs_t next_time() const {
    fs_t t = heap_.empty() ? kNoEventTime : heap_.front().time;
    if (!nheap_.empty() && nheap_.front().time < t) t = nheap_.front().time;
    return t;
  }

  /// Schedule with an automatic (class, sequence) key. `node` is the device
  /// the event belongs to (-1 = global); `owner` tags the event for
  /// purge_owner (cable deliveries pass the Cable).
  Handle schedule(fs_t t, Callback fn, EventCategory cat, std::int32_t node,
                  const void* owner);

  /// Schedule a link delivery with an explicit class-2 subkey (edge
  /// direction id << 32 | per-direction message index).
  Handle schedule_link(fs_t t, Callback fn, EventCategory cat, std::int32_t node,
                       const void* owner, std::uint64_t link_sub);

  /// Re-insert an event extracted from another queue, preserving its
  /// original key (and therefore its tie order). Does not count toward
  /// `scheduled` — the original schedule call already did.
  Handle schedule_migrated(fs_t t, Callback fn, EventCategory cat, std::int32_t node,
                           const void* owner, std::uint64_t key);

  bool cancel(Handle h);

  /// Remove (and count as cancelled) every pending exact event tagged with
  /// `owner`. O(slab). Used by Cable::disconnect for its in-flight
  /// deliveries.
  std::size_t purge_owner(const void* owner);

  /// Fire events in key order while the front's time is < horizon (or <=
  /// with `inclusive`). Sets the thread's queue/affinity context around each
  /// callback. Returns the number fired.
  std::uint64_t run(fs_t horizon, bool inclusive);

  /// Fire exactly one event if any is pending.
  bool fire_one();

  // --- Bridged fast-forward steps (DESIGN.md §12) ---------------------------
  //
  // A bridged step is a POD replacement for one quiet-path event: instead of
  // a generation-counted slot holding a Callback closure, the step is a
  // 48-byte record (sort key, port id, kind, payload) stored by value in its
  // node's sorted array, merged with the real heap by (time, key). Because a
  // step is armed at the exact call position where the event it replaces
  // would have consumed a sequence number — and fires at the same (time,
  // key) — every counter, RNG draw position, and tie order is bit-identical
  // to the cycle-exact engine.

  /// What a bridged step does to its node's state. The fusion gates use this
  /// to decide which *pending* steps a fused event may run ahead of: steps on
  /// other nodes are state-disjoint by construction (each node's state is
  /// only touched by its own events), so only same-node pendings matter, and
  /// among those the kind tells the gate whether firing order is observable.
  /// The kind also picks the handler that fires the step.
  enum class BridgeKind : std::uint8_t {
    kOther = 0,  ///< unclassified: gates treat it as blocking
    kTx,         ///< beacon timer: reads/writes only its own port + cable
    kArrival,    ///< cable delivery: link-class key, fires after node events
    kApply,      ///< CDC visibility: delivers control, mutates agent counters
  };
  static constexpr std::size_t kBridgeKinds = 4;

  /// The category a step of `kind` is counted under when it fires.
  static constexpr EventCategory bridge_category(BridgeKind kind) {
    switch (kind) {
      case BridgeKind::kTx: return EventCategory::kBeacon;
      case BridgeKind::kArrival:
      case BridgeKind::kApply: return EventCategory::kFrame;
      case BridgeKind::kOther: break;
    }
    return EventCategory::kGeneric;
  }

  /// One pending bridged step, by value in its node's array. The queue sets
  /// `time` and `key`; the arming layer sets the rest. `port` is the
  /// sim::PortRecords id the step acts on, and a/b/c are a payload opaque to
  /// the queue. A step has no cancellation slot: its key, unique within the
  /// queue, is its token.
  struct BridgeStep {
    fs_t time = 0;
    std::uint64_t key = 0;    ///< (class, subkey), as HeapEntry::key
    std::uint64_t a = 0;      ///< payload word (e.g. 56-bit idle block + flags)
    fs_t b = 0;               ///< payload time (e.g. wire arrival)
    std::int64_t c = 0;       ///< payload index (e.g. visible tick)
    std::uint32_t port = 0;   ///< port record id
    BridgeKind kind = BridgeKind::kOther;
  };
  static_assert(sizeof(BridgeStep) == 48, "a pending bridged step is 48 bytes");

  /// Fires the steps of one kind. The layer that arms steps of a kind
  /// registers its handler with the Simulator; the step fires with the clock
  /// at its time and the affinity of its node.
  struct BridgeHandler {
    void (*fire)(void* ctx, const BridgeStep& step) = nullptr;
    void* ctx = nullptr;
  };

  /// Point the queue at its simulator's handler table (kBridgeKinds
  /// entries) and port records (prefetched at fire time). Both outlive it.
  void bind_bridge(const BridgeHandler* handlers, const PortRecords* records) {
    handlers_ = handlers;
    records_ = records;
  }

  /// Arm a node-class step for `node`: consumes the next sequence number and
  /// counts as scheduled, exactly like schedule() would for the event it
  /// replaces. Returns the step's key, its cancellation token (never 0).
  /// Like a Handle, a token for a fired or cancelled step no-ops in
  /// bridge_cancel: keys are never reused.
  std::uint64_t bridge_schedule(fs_t t, std::int32_t node, BridgeStep step);

  /// Arm a link-class step for `node` with an explicit delivery subkey, like
  /// schedule_link.
  void bridge_schedule_link(fs_t t, std::uint64_t link_sub, std::int32_t node,
                            BridgeStep step);

  /// Cancel `node`'s pending step with key `token`; counts as cancelled.
  /// Stale tokens (fired or already cancelled) return false. Costs a scan of
  /// the node's array plus O(log nodes).
  bool bridge_cancel(std::int32_t node, std::uint64_t token);

  /// Remove (and count as cancelled) every pending arrival of `node` into
  /// port `a` or `b`: an unplug purges its cable's in-flight blocks from its
  /// two end nodes' arrays. All of them are that cable's, since every
  /// earlier cable of either port purged its own when it went.
  std::size_t bridge_purge(std::int32_t node, std::uint32_t a, std::uint32_t b);

  /// Account for an event that is fused inline and never enters any heap:
  /// consume a sequence number and count a schedule. Must be called at the
  /// exact position where the replaced event's schedule call would run.
  std::uint64_t bridge_virtual_schedule();

  /// Count the firing of a fused event and move the clock to `t`.
  void bridge_virtual_fire(EventCategory cat, fs_t t);

  /// True when a control-service event fused inline *right now* by the
  /// beacon timer of `port` on `node` cannot be observed firing out of
  /// order. Exact-heap events at this instant block (global faults, fallback
  /// services); among same-node pending bridge steps only another port's
  /// beacon timer is benign — a timer body touches nothing outside its own
  /// port and cable, so the fused service commutes with it.
  bool bridge_tx_fusible(std::int32_t node, std::uint32_t port) const;

  /// True when a CDC visibility event for `node` fused inline for instant
  /// `t` (>= now) cannot be observed firing out of order: nothing in the
  /// exact heap fires before its (t, key) slot, and no same-node bridge step
  /// is pending at or before `t` — a pending timer or apply there would, in
  /// the exact engine, run before the visibility event and read or write the
  /// agent counters it is about to update. Same-node *arrivals* at exactly
  /// `t` are benign: their link-class key sorts after every node-class key.
  bool bridge_apply_fusible(std::int32_t node, fs_t t) const;

  /// True while run() is draining and `t` falls inside its horizon: fusing
  /// a future event across [now, t] is only sound when this run call would
  /// have fired it anyway (epoch bounds in parallel mode).
  bool bridge_within_horizon(fs_t t) const {
    return running_ && (run_inclusive_ ? t <= run_horizon_ : t < run_horizon_);
  }

  std::size_t bridge_pending() const { return bridge_count_; }

  // --- Sharding support (Simulator::set_threads) ---------------------------

  struct Extracted {
    fs_t time = 0;
    std::uint64_t key = 0;
    std::int32_t node = -1;
    EventCategory cat = EventCategory::kGeneric;
    const void* owner = nullptr;
    Callback fn;
    std::uint32_t src_slot = 0;
  };

  /// Remove every pending node-affine event (node >= 0) in firing order so
  /// the caller can re-insert them into their shard queues. Global events
  /// stay, re-keyed in place (their handles stay valid). The extracted
  /// events' slots are deliberately *not* recycled: their generations stay
  /// frozen so outstanding handles resolve through the forward map instead
  /// of aliasing a reused slot — a one-time leak bounded by the number of
  /// setup-scheduled events.
  std::vector<Extracted> extract_node_events();

  /// Record where an extracted event went; a cancel through the old handle
  /// follows the forward.
  void set_forward(std::uint32_t slot, std::uint32_t queue, Handle h);
  const Forward* forward_of(std::uint32_t slot, std::uint32_t gen) const;

  /// Start this queue's sequence counter at or above `seq` so events
  /// scheduled after a migration sort behind every migrated event at equal
  /// timestamps, exactly as they would have in the source queue.
  void seed_seq(std::uint64_t seq) {
    if (seq > next_seq_) next_seq_ = seq;
  }
  std::uint64_t next_seq() const { return next_seq_; }

  /// Pre-size the per-node step arrays for a topology of known device
  /// count (reached through Simulator::reserve_graph), so a 10k-device build
  /// does not grow them one resize at a time.
  void reserve_nodes(std::size_t nodes) { nodes_.reserve(nodes + 1); }

  // --- Instrumentation ------------------------------------------------------
  std::uint64_t executed() const { return executed_; }
  void accumulate(SimStats& st) const;

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xFFFFFFFFu;
  static constexpr std::size_t kArity = 4;  // 4-ary heap: shallow, cache-friendly

  /// One slab entry, exactly one 64-byte cache line: the callback (40-byte
  /// inline buffer + ops pointer) first, then the hot bookkeeping words a
  /// fire/cancel touches. The generation counter advances every time the
  /// slot is released (event fired or cancelled), invalidating outstanding
  /// handles. Cold metadata lives out of line: the purge_owner tag is in
  /// `owners_`, so an owner purge scans an 8-byte-stride array instead of
  /// dragging whole slots through cache (and every slot gains 16 bytes over
  /// the old inline layout — 80 down to 64).
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = kNoHeapPos;
    std::int32_t node = -1;
    EventCategory cat = EventCategory::kGeneric;
  };
  static_assert(sizeof(Slot) == 64, "event slot must stay one cache line");

  /// Slot arena: power-of-two blocks, geometrically grown, never moved.
  /// Block b holds (kBlock0 << b) slots and covers slab indices
  /// [kBlock0*(2^b - 1), kBlock0*(2^(b+1) - 1)). A flat std::vector slab
  /// would move-relocate every pending Callback each time it grew — at
  /// datacenter scale (hundreds of thousands pending) those O(n) relocation
  /// spikes dominate — whereas a new block is one allocation and existing
  /// slots stay put. Freed slots recycle through `free_slots_`, so the
  /// arena's footprint tracks peak pending, not total scheduled.
  static constexpr std::uint32_t kBlock0Shift = 8;  // first block: 256 slots
  static constexpr std::uint32_t kBlock0 = 1u << kBlock0Shift;

  Slot& slot_at(std::uint32_t slot) {
    const std::uint32_t q = (slot >> kBlock0Shift) + 1;
    const auto b = static_cast<std::uint32_t>(std::bit_width(q) - 1);
    return blocks_[b][slot - ((kBlock0 << b) - kBlock0)];
  }
  const Slot& slot_at(std::uint32_t slot) const {
    const std::uint32_t q = (slot >> kBlock0Shift) + 1;
    const auto b = static_cast<std::uint32_t>(std::bit_width(q) - 1);
    return blocks_[b][slot - ((kBlock0 << b) - kBlock0)];
  }

  /// Heap entries carry the full sort key so sift comparisons never chase a
  /// pointer into the slab; they are trivially copyable (moves are memcpy).
  struct HeapEntry {
    fs_t time;
    std::uint64_t key;  // tie-break: (class, subkey) — see file comment
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  static bool bearlier(const BridgeStep& a, const BridgeStep& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  /// One node's pending steps, sorted by (time, key) from `head` on. A
  /// node's steps fire in global order, so a fire pops the front by
  /// advancing `head`; an insert that finds the array full first drops the
  /// popped prefix. `heap_pos` is the node's place in `nheap_`, kNoHeapPos
  /// while it has nothing pending. Index 0 holds the steps of node -1 (bare
  /// ports), node n sits at n + 1.
  struct NodeSteps {
    std::vector<BridgeStep> steps;
    std::uint32_t head = 0;
    std::uint32_t heap_pos = kNoHeapPos;
  };

  /// Node heap entry: a copy of the node's front key, so sift comparisons
  /// never leave the heap array.
  struct NodeFront {
    fs_t time;
    std::uint64_t key;
    std::uint32_t node;  ///< index into nodes_
    std::uint32_t port;  ///< the front step's port, to prefetch its record
  };
  static_assert(sizeof(NodeFront) == 24, "the port rides in the entry's padding");

  static bool nearlier(const NodeFront& a, const NodeFront& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  static std::uint32_t node_index(std::int32_t node) {
    return node < 0 ? 0 : static_cast<std::uint32_t>(node) + 1;
  }

  Handle insert(fs_t t, Callback fn, EventCategory cat, std::int32_t node,
                const void* owner, std::uint64_t key);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop_top();
  void heap_remove(std::uint32_t pos);
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  void place(std::size_t pos, HeapEntry e) {
    heap_[pos] = e;
    slot_at(e.slot).heap_pos = static_cast<std::uint32_t>(pos);
  }
  void fire_top();

  std::uint64_t bridge_insert(fs_t t, std::uint64_t key, std::int32_t node,
                              BridgeStep step);
  /// Re-key node `n` in the node heap after its front changed (or its
  /// array emptied).
  void node_reseat(std::uint32_t n);
  void nheap_remove(std::uint32_t pos);
  void nsift_up(std::size_t pos, NodeFront e);
  void nsift_down(std::size_t pos, NodeFront e);
  void nplace(std::size_t pos, NodeFront e) {
    nheap_[pos] = e;
    nodes_[e.node].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void fire_bridge_top();
  /// True when the bridge front sorts before the real-heap front.
  bool bridge_first() const {
    if (nheap_.empty()) return false;
    if (heap_.empty()) return true;
    const NodeFront& b = nheap_.front();
    const HeapEntry& h = heap_.front();
    return b.time != h.time ? b.time < h.time : b.key < h.key;
  }

  fs_t now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t executed_by_category_[kEventCategoryCount] = {};
  std::uint64_t callback_spills_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<std::unique_ptr<Slot[]>> blocks_;  ///< slot arena (see slot_at)
  std::uint32_t slot_count_ = 0;                 ///< slots handed out so far
  std::vector<const void*> owners_;  ///< slot -> purge tag (cold, out-of-line)
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::unordered_map<std::uint32_t, Forward> forwards_;
  const BridgeHandler* handlers_ = nullptr;  ///< kBridgeKinds entries
  const PortRecords* records_ = nullptr;     ///< prefetched at fire time
  std::vector<NodeSteps> nodes_;   ///< pending steps by node_index
  std::vector<NodeFront> nheap_;   ///< nodes with pending steps, by front
  std::size_t bridge_count_ = 0;   ///< steps pending over all nodes
  std::uint64_t fused_ = 0;  ///< virtual fires (events that skipped the heap)
  bool running_ = false;       ///< inside run(); gates future-instant fusion
  fs_t run_horizon_ = 0;       ///< active run() horizon
  bool run_inclusive_ = false; ///< active run() horizon inclusivity
};

}  // namespace dtpsim::sim
