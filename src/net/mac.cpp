#include "net/mac.hpp"

#include <algorithm>
#include <numeric>

namespace dtpsim::net {

Mac::Mac(sim::Simulator& sim, phy::PhyPort& port, MacParams params)
    : sim_(sim), port_(port), params_(params) {
  if (params_.priority_queues == 0) params_.priority_queues = 1;
  queues_.resize(params_.priority_queues);
  queue_bytes_.assign(params_.priority_queues, 0);
  port_.on_frame = [this](const phy::FrameRx& rx) { handle_rx(rx); };
}

std::size_t Mac::class_of(const Frame& frame) const {
  // Map 802.1p classes 0..7 evenly onto the configured queues.
  const std::size_t n = queues_.size();
  const std::size_t cls = std::min<std::size_t>(frame.priority, 7) * n / 8;
  return std::min(cls, n - 1);
}

std::size_t Mac::queue_bytes() const {
  return std::accumulate(queue_bytes_.begin(), queue_bytes_.end(), std::size_t{0});
}

std::size_t Mac::queue_frames() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

bool Mac::enqueue(const Frame& frame) {
  const std::size_t cls = class_of(frame);
  const std::uint32_t size = frame.frame_bytes();
  const std::size_t per_queue_cap = params_.queue_capacity_bytes / queues_.size();
  if (queue_bytes_[cls] + size > per_queue_cap) {
    ++stats_.tx_drops;
    return false;
  }
  queues_[cls].push_back(frame);
  queue_bytes_[cls] += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queue_bytes());
  pump();
  return true;
}

void Mac::pump() {
  if (pump_scheduled_ || !port_.link_up()) return;
  // Reached from enqueue()/kick() at sync points as well as from events;
  // everything scheduled below belongs to this device's shard.
  sim::ScopedAffinity aff(port_.node());
  // Strict priority: highest non-empty class transmits first.
  std::size_t cls = queues_.size();
  for (std::size_t c = queues_.size(); c-- > 0;) {
    if (!queues_[c].empty()) {
      cls = c;
      break;
    }
  }
  if (cls == queues_.size()) return;

  const fs_t ready = port_.last_link_up_at() + params_.data_holdoff;
  if (ready > sim_.now()) {
    pump_scheduled_ = true;
    sim_.schedule_at(
        ready,
        [this] {
          pump_scheduled_ = false;
          pump();
        },
        sim::EventCategory::kFrame);
    return;
  }
  const fs_t clear = port_.frame_clear_time();
  if (clear > sim_.now()) {
    pump_scheduled_ = true;
    sim_.schedule_at(
        clear,
        [this] {
          pump_scheduled_ = false;
          pump();
        },
        sim::EventCategory::kFrame);
    return;
  }
  Frame frame = std::move(queues_[cls].front());
  queues_[cls].pop_front();
  queue_bytes_[cls] -= frame.frame_bytes();
  ++stats_.tx_frames;
  stats_.tx_bytes += frame.frame_bytes();
  auto boxed = std::make_shared<Frame>(frame);
  const auto timing = port_.send_frame(frame.wire_bytes(), boxed);
  on_transmit(*boxed, timing.start);
  // Come back for the next frame once the IPG has elapsed.
  pump();
}

void Mac::handle_rx(const phy::FrameRx& rx) {
  auto frame = std::static_pointer_cast<const Frame>(rx.payload);
  if (!frame) return;
  if (!rx.fcs_ok) {
    ++stats_.rx_fcs_errors;
    return;
  }
  ++stats_.rx_frames;
  stats_.rx_bytes += frame->frame_bytes();
  on_ingress(*frame, rx.arrival_time);
  if (on_receive) on_receive(*frame, rx.arrival_time);
}

}  // namespace dtpsim::net
