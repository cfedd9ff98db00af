#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dtpsim::sim {

const char* category_name(EventCategory cat) {
  switch (cat) {
    case EventCategory::kGeneric: return "generic";
    case EventCategory::kBeacon: return "beacon";
    case EventCategory::kFrame: return "frame";
    case EventCategory::kDrift: return "drift";
    case EventCategory::kProbe: return "probe";
    case EventCategory::kApp: return "app";
  }
  return "?";
}

EventQueue::Handle EventQueue::schedule(fs_t t, Callback fn, EventCategory cat,
                                        std::int32_t node, const void* owner) {
  ++scheduled_;
  return insert(t, std::move(fn), cat, node, owner,
                node_class_key(next_seq_++, node >= 0));
}

EventQueue::Handle EventQueue::schedule_link(fs_t t, Callback fn, EventCategory cat,
                                             std::int32_t node, const void* owner,
                                             std::uint64_t link_sub) {
  ++scheduled_;
  return insert(t, std::move(fn), cat, node, owner, link_class_key(link_sub));
}

EventQueue::Handle EventQueue::schedule_migrated(fs_t t, Callback fn, EventCategory cat,
                                                 std::int32_t node, const void* owner,
                                                 std::uint64_t key) {
  return insert(t, std::move(fn), cat, node, owner, key);
}

EventQueue::Handle EventQueue::insert(fs_t t, Callback fn, EventCategory cat,
                                      std::int32_t node, const void* owner,
                                      std::uint64_t key) {
  if (t < now_) throw std::logic_error("EventQueue: scheduling into the past");
  if (fn && !fn.is_inline()) ++callback_spills_;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.fn = std::move(fn);
  s.cat = cat;
  s.node = node;
  owners_[slot] = owner;
  heap_push(HeapEntry{t, key, slot});
  if (heap_.size() + bridge_count_ > peak_pending_)
    peak_pending_ = heap_.size() + bridge_count_;
  return Handle{slot, s.gen};
}

bool EventQueue::cancel(Handle h) {
  if (!h.valid() || h.slot >= slot_count_) return false;
  Slot& s = slot_at(h.slot);
  if (s.gen != h.gen || s.heap_pos == kNoHeapPos) return false;
  heap_remove(s.heap_pos);
  release_slot(h.slot);
  ++cancelled_;
  return true;
}

std::size_t EventQueue::purge_owner(const void* owner) {
  if (owner == nullptr) return 0;
  std::size_t purged = 0;
  // Scan the owner array rather than the heap: heap_remove reorders entries
  // under a positional scan, which can move a not-yet-visited entry behind
  // the cursor and skip it. The tags live out-of-line precisely so this scan
  // strides 8 bytes per slot instead of a cache line.
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    if (owners_[slot] != owner) continue;
    Slot& s = slot_at(slot);
    if (s.heap_pos != kNoHeapPos) {
      heap_remove(s.heap_pos);
      release_slot(slot);
      ++cancelled_;
      ++purged;
    }
  }
  return purged;
}

std::size_t EventQueue::bridge_purge(std::int32_t node, std::uint32_t a,
                                     std::uint32_t b) {
  const std::uint32_t n = node_index(node);
  if (n >= nodes_.size()) return 0;
  NodeSteps& ns = nodes_[n];
  const auto kept = std::remove_if(
      ns.steps.begin() + ns.head, ns.steps.end(), [&](const BridgeStep& e) {
        return e.kind == BridgeKind::kArrival && (e.port == a || e.port == b);
      });
  const auto purged = static_cast<std::size_t>(ns.steps.end() - kept);
  if (purged == 0) return 0;
  ns.steps.erase(kept, ns.steps.end());
  bridge_count_ -= purged;
  cancelled_ += purged;
  node_reseat(n);
  return purged;
}

std::uint64_t EventQueue::run(fs_t horizon, bool inclusive) {
  std::uint64_t fired = 0;
  EventQueue* const prev_queue = detail::tls_queue;
  detail::tls_queue = this;
  const bool prev_running = running_;
  const fs_t prev_horizon = run_horizon_;
  const bool prev_inclusive = run_inclusive_;
  running_ = true;
  run_horizon_ = horizon;
  run_inclusive_ = inclusive;
  for (;;) {
    const bool bfirst = bridge_first();
    fs_t t;
    if (bfirst) {
      t = nheap_.front().time;
    } else if (!heap_.empty()) {
      t = heap_.front().time;
    } else {
      break;
    }
    if (inclusive ? t > horizon : t >= horizon) break;
    if (bfirst) {
      fire_bridge_top();
    } else {
      fire_top();
    }
    ++fired;
  }
  running_ = prev_running;
  run_horizon_ = prev_horizon;
  run_inclusive_ = prev_inclusive;
  detail::tls_queue = prev_queue;
  return fired;
}

bool EventQueue::fire_one() {
  if (empty()) return false;
  EventQueue* const prev_queue = detail::tls_queue;
  detail::tls_queue = this;
  if (bridge_first()) {
    fire_bridge_top();
  } else {
    fire_top();
  }
  detail::tls_queue = prev_queue;
  return true;
}

void EventQueue::fire_top() {
  const HeapEntry top = heap_pop_top();
  Slot& s = slot_at(top.slot);
  // Move the callback out and retire the slot *before* invoking: the
  // callback may cancel its own (now stale) handle or schedule into this
  // slot's successor generation.
  Callback fn = std::move(s.fn);
  const auto cat = static_cast<std::size_t>(s.cat);
  const std::int32_t node = s.node;
  release_slot(top.slot);
  now_ = top.time;
  ++executed_;
  ++executed_by_category_[cat];
  const std::int32_t prev_affinity = detail::tls_affinity;
  detail::tls_affinity = node;
  fn();
  detail::tls_affinity = prev_affinity;
}

void EventQueue::fire_bridge_top() {
  // The heap's front node holds the globally earliest step at the front of
  // its array: pop it, then re-key the node by its next step (a later key,
  // so the root only sifts down) or drop it from the heap. The step is
  // copied out before it fires: it may arm a successor into this array.
  const std::uint32_t n = nheap_.front().node;
  NodeSteps& ns = nodes_[n];
  const BridgeStep top = ns.steps[ns.head++];
  --bridge_count_;
  if (ns.head == ns.steps.size()) {
    ns.steps.clear();
    ns.head = 0;
    nheap_remove(0);
  } else {
    const BridgeStep& next = ns.steps[ns.head];
    nsift_down(0, NodeFront{next.time, next.key, n, next.port});
  }
  if (!nheap_.empty()) {
    // The next bridged step is known now: start loading its entry and its
    // port's record (DESIGN.md §14), so those loads overlap this step's
    // body. On the k=16 fat-tree they are rarely still cached. The node
    // heap carries the front step's port, so the record's address needs no
    // load from the step array. Kept inline: in a helper of its own, GCC
    // judged the prefetch-only call pure and dropped it.
    const NodeFront& f = nheap_.front();
    const NodeSteps& nx = nodes_[f.node];
    __builtin_prefetch(nx.steps.data() + nx.head);
    if (records_ != nullptr && f.port < records_->size()) {
      const std::byte* rec = records_->record(f.port);
      __builtin_prefetch(rec);
      __builtin_prefetch(rec + 64);
      __builtin_prefetch(rec + 128);
    }
  }
  now_ = top.time;
  ++executed_;
  ++executed_by_category_[static_cast<std::size_t>(bridge_category(top.kind))];
  const std::int32_t prev_affinity = detail::tls_affinity;
  detail::tls_affinity = static_cast<std::int32_t>(n) - 1;
  const BridgeHandler& h = handlers_[static_cast<std::size_t>(top.kind)];
  h.fire(h.ctx, top);
  detail::tls_affinity = prev_affinity;
}

std::uint64_t EventQueue::bridge_schedule(fs_t t, std::int32_t node, BridgeStep step) {
  ++scheduled_;
  return bridge_insert(t, node_class_key(next_seq_++, true), node, step);
}

void EventQueue::bridge_schedule_link(fs_t t, std::uint64_t link_sub, std::int32_t node,
                                      BridgeStep step) {
  ++scheduled_;
  bridge_insert(t, link_class_key(link_sub), node, step);
}

std::uint64_t EventQueue::bridge_insert(fs_t t, std::uint64_t key, std::int32_t node,
                                        BridgeStep step) {
  if (t < now_) throw std::logic_error("EventQueue: bridged step into the past");
  const auto kind = static_cast<std::size_t>(step.kind);
  if (handlers_ == nullptr || kind >= kBridgeKinds || handlers_[kind].fire == nullptr)
    throw std::invalid_argument("EventQueue: bridged step of a kind with no handler");
  step.time = t;
  step.key = key;
  const std::uint32_t n = node_index(node);
  if (n >= nodes_.size()) nodes_.resize(n + 1);
  NodeSteps& ns = nodes_[n];
  std::vector<BridgeStep>& v = ns.steps;
  if (ns.head > 0 && v.size() == v.capacity()) {
    v.erase(v.begin(), v.begin() + ns.head);  // reuse the popped prefix
    ns.head = 0;
  }
  // A timer lands at the back, behind its siblings' at the same instant (its
  // key is the newest); an arrival or an apply usually lands ahead of them.
  const auto first = v.begin() + ns.head;
  const auto pos = first == v.end() || !bearlier(step, v.back())
                       ? v.end()
                       : std::upper_bound(first, v.end(), step, bearlier);
  const bool front = pos == first;
  v.insert(pos, step);
  ++bridge_count_;
  if (front) node_reseat(n);
  const std::size_t depth = heap_.size() + bridge_count_;
  if (depth > peak_pending_) peak_pending_ = depth;
  return key;
}

bool EventQueue::bridge_cancel(std::int32_t node, std::uint64_t token) {
  const std::uint32_t n = node_index(node);
  if (token == 0 || n >= nodes_.size()) return false;
  NodeSteps& ns = nodes_[n];
  for (std::size_t pos = ns.head; pos < ns.steps.size(); ++pos) {
    if (ns.steps[pos].key != token) continue;
    --bridge_count_;
    ++cancelled_;
    if (pos == ns.head) {
      ++ns.head;
      node_reseat(n);
    } else {
      ns.steps.erase(ns.steps.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    return true;
  }
  return false;
}

std::uint64_t EventQueue::bridge_virtual_schedule() {
  ++scheduled_;
  return next_seq_++;
}

void EventQueue::bridge_virtual_fire(EventCategory cat, fs_t t) {
  if (t > now_) now_ = t;
  ++executed_;
  ++executed_by_category_[static_cast<std::size_t>(cat)];
  ++fused_;
}

bool EventQueue::bridge_tx_fusible(std::int32_t node, std::uint32_t port) const {
  // Exact-heap events at this instant (global faults, fallback services on
  // any node — rare in quiet spans) fire in key order; yield to them.
  const std::uint64_t k = node_class_key(next_seq_, true);
  if (!heap_.empty()) {
    const HeapEntry& f = heap_.front();
    if (f.time < now_ || (f.time == now_ && f.key < k)) return false;
  }
  const std::uint32_t n = node_index(node);
  if (node < 0 || n >= nodes_.size()) return true;
  // The array is sorted, so only its prefix at this instant can matter.
  const NodeSteps& ns = nodes_[n];
  for (std::size_t i = ns.head; i < ns.steps.size(); ++i) {
    const BridgeStep& p = ns.steps[i];
    if (p.time > now_) break;
    if (p.time < now_) return false;  // cannot happen mid-fire; be safe
    switch (p.kind) {
      case BridgeKind::kTx:
        // Sibling ports of one device share its oscillator, so their
        // beacon timers land on the same instants; a timer body touches
        // only its own port and cable, so fusing ahead of it is
        // unobservable. The one exception is a second chain on the SAME
        // port (a re-arm raced a not-yet-cancelled step): the exact
        // engine fires both services, so the fused path must not.
        if (p.port == port) return false;
        break;
      case BridgeKind::kArrival:
        break;  // link-class key: fires after any node-class event anyway
      default:
        return false;  // an apply (or unclassified step) must go first
    }
  }
  return true;
}

bool EventQueue::bridge_apply_fusible(std::int32_t node, fs_t t) const {
  const std::uint64_t k = node_class_key(next_seq_, true);
  if (!heap_.empty()) {
    const HeapEntry& f = heap_.front();
    if (f.time < t || (f.time == t && f.key < k)) return false;
  }
  const std::uint32_t n = node_index(node);
  if (node < 0 || n >= nodes_.size()) return true;
  const NodeSteps& ns = nodes_[n];
  for (std::size_t i = ns.head; i < ns.steps.size(); ++i) {
    const BridgeStep& p = ns.steps[i];
    if (p.time > t) break;
    if (p.time < t) return false;
    // Same-instant: pending timers and applies carry node-class keys
    // allocated before ours, so the exact engine fires them first and
    // they touch the agent state this apply is about to update. Arrivals
    // sort behind every node-class key and commute.
    if (p.kind != BridgeKind::kArrival) return false;
  }
  return true;
}

void EventQueue::node_reseat(std::uint32_t n) {
  NodeSteps& ns = nodes_[n];
  if (ns.head == ns.steps.size()) {
    ns.steps.clear();
    ns.head = 0;
    if (ns.heap_pos != kNoHeapPos) nheap_remove(ns.heap_pos);
    return;
  }
  const BridgeStep& f = ns.steps[ns.head];
  const NodeFront e{f.time, f.key, n, f.port};
  if (ns.heap_pos == kNoHeapPos) {
    nheap_.emplace_back();  // make room; nsift_up fills it
    nsift_up(nheap_.size() - 1, e);
    return;
  }
  const std::size_t pos = ns.heap_pos;
  if (pos > 0 && nearlier(e, nheap_[(pos - 1) / kArity])) {
    nsift_up(pos, e);
  } else {
    nsift_down(pos, e);
  }
}

void EventQueue::nheap_remove(std::uint32_t pos) {
  nodes_[nheap_[pos].node].heap_pos = kNoHeapPos;
  const NodeFront last = nheap_.back();
  nheap_.pop_back();
  if (pos == nheap_.size()) return;  // removed the tail
  if (pos > 0 && nearlier(last, nheap_[(pos - 1) / kArity])) {
    nsift_up(pos, last);
  } else {
    nsift_down(pos, last);
  }
}

void EventQueue::nsift_up(std::size_t pos, NodeFront e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!nearlier(e, nheap_[parent])) break;
    nplace(pos, nheap_[parent]);
    pos = parent;
  }
  nplace(pos, e);
}

void EventQueue::nsift_down(std::size_t pos, NodeFront e) {
  const std::size_t n = nheap_.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (nearlier(nheap_[c], nheap_[best])) best = c;
    if (!nearlier(nheap_[best], e)) break;
    nplace(pos, nheap_[best]);
    pos = best;
  }
  nplace(pos, e);
}

std::vector<EventQueue::Extracted> EventQueue::extract_node_events() {
  std::vector<HeapEntry> entries(heap_.begin(), heap_.end());
  std::sort(entries.begin(), entries.end(), earlier);
  heap_.clear();
  std::vector<Extracted> out;
  for (const HeapEntry& e : entries) {
    Slot& s = slot_at(e.slot);
    if (s.node < 0) {
      // Global event: stays here. Re-push preserving the original key (the
      // slot and generation are untouched, so handles remain valid).
      heap_push(e);
    } else {
      s.heap_pos = kNoHeapPos;
      out.push_back(Extracted{e.time, e.key, s.node, s.cat, owners_[e.slot],
                              std::move(s.fn), e.slot});
      owners_[e.slot] = nullptr;  // the tag moves with the event
      // Slot intentionally not released — see header comment.
    }
  }
  return out;
}

void EventQueue::set_forward(std::uint32_t slot, std::uint32_t queue, Handle h) {
  forwards_[slot] = Forward{queue, h};
}

const EventQueue::Forward* EventQueue::forward_of(std::uint32_t slot,
                                                  std::uint32_t gen) const {
  if (slot >= slot_count_ || slot_at(slot).gen != gen) return nullptr;
  const auto it = forwards_.find(slot);
  return it == forwards_.end() ? nullptr : &it->second;
}

void EventQueue::accumulate(SimStats& st) const {
  st.scheduled += scheduled_;
  st.executed += executed_;
  st.cancelled += cancelled_;
  for (std::size_t i = 0; i < kEventCategoryCount; ++i)
    st.executed_by_category[i] += executed_by_category_[i];
  st.pending += heap_.size() + bridge_count_;
  st.peak_pending += peak_pending_;
  st.fused += fused_;
  st.callback_spills += callback_spills_;
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Arena full: add the next power-of-two block. Existing slots never move.
  const std::uint32_t cap = (kBlock0 << blocks_.size()) - kBlock0;
  if (slot_count_ == cap)
    blocks_.push_back(std::make_unique<Slot[]>(kBlock0 << blocks_.size()));
  owners_.push_back(nullptr);
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.fn = Callback();
  s.heap_pos = kNoHeapPos;
  s.node = -1;
  owners_[slot] = nullptr;
  if (++s.gen == 0) ++s.gen;  // generation 0 is reserved for invalid handles
  free_slots_.push_back(slot);
}

void EventQueue::heap_push(HeapEntry e) {
  heap_.emplace_back();  // make room; sift_up fills it
  sift_up(heap_.size() - 1, e);
}

EventQueue::HeapEntry EventQueue::heap_pop_top() {
  const HeapEntry top = heap_.front();
  slot_at(top.slot).heap_pos = kNoHeapPos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return top;
}

void EventQueue::heap_remove(std::uint32_t pos) {
  slot_at(heap_[pos].slot).heap_pos = kNoHeapPos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  // Re-seat `last` at pos: it may need to move either direction.
  if (pos > 0 && earlier(last, heap_[(pos - 1) / kArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventQueue::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

}  // namespace dtpsim::sim
