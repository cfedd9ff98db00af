#include "net/traffic.hpp"

#include <algorithm>
#include <stdexcept>

namespace dtpsim::net {

namespace {
/// Queue depth target in saturate mode (~100 KB: bulk TCP keeps NIC queues
/// deep).
constexpr std::size_t kBacklogFrames = 64;
}  // namespace

TrafficGenerator::TrafficGenerator(sim::Simulator& sim, Host& src, MacAddr dst,
                                   TrafficParams params)
    : sim_(sim),
      src_(src),
      dst_(dst),
      params_(params),
      rng_(sim.fork_rng(0x7F41C ^ src.addr().value)),
      next_id_(src.addr().value << 32) {
  if (!params_.saturate && params_.rate_bps <= 0)
    throw std::invalid_argument("TrafficGenerator: non-positive rate");
  if (params_.frame_bytes < kMinFrameBytes)
    throw std::invalid_argument("TrafficGenerator: frame below Ethernet minimum");
}

void TrafficGenerator::start() {
  if (running_) return;
  running_ = true;
  arm_next();
}

void TrafficGenerator::stop() { running_ = false; }

fs_t TrafficGenerator::interarrival() {
  const double bits = static_cast<double>(params_.frame_bytes + kPreambleBytes) * 8.0;
  const double mean_fs = bits / params_.rate_bps * 1e15 *
                         static_cast<double>(std::max<std::size_t>(params_.burst_frames, 1));
  if (params_.poisson) return static_cast<fs_t>(rng_.exponential(mean_fs));
  return static_cast<fs_t>(mean_fs);
}

void TrafficGenerator::arm_next() {
  if (!running_) return;
  sim::ScopedAffinity aff(src_.node());
  if (params_.saturate) {
    // Top the queue up now; check again after roughly one frame time.
    offer();
    const fs_t frame_time = static_cast<fs_t>(
        static_cast<double>(params_.frame_bytes + kPreambleBytes) * 8.0 /
        src_.nic().port().rate().bits_per_second * 1e15);
    sim_.schedule_in(frame_time, [this] { arm_next(); }, sim::EventCategory::kApp);
    return;
  }
  sim_.schedule_in(
      interarrival(),
      [this] {
        for (std::size_t i = 0; i < std::max<std::size_t>(params_.burst_frames, 1); ++i)
          offer();
        arm_next();
      },
      sim::EventCategory::kApp);
}

void TrafficGenerator::offer() {
  if (!running_) return;
  if (params_.saturate && src_.nic().queue_frames() >= kBacklogFrames) {
    // Backlog target met: nothing to enqueue, but re-arm the pump in case
    // the NIC's link bounced while the queue was already full.
    src_.nic().kick();
    return;
  }
  Frame f;
  f.dst = dst_;
  f.src = src_.addr();
  f.ethertype = kEtherTypeIpv4;
  f.payload_bytes = params_.frame_bytes - kMacHeaderBytes - kFcsBytes;
  f.id = next_id_++;
  // Bulk traffic bypasses the latency-modeling app path: iperf saturates the
  // NIC queue; per-frame stack jitter is irrelevant to *its* role here.
  src_.send_hw(f);
}

}  // namespace dtpsim::net
