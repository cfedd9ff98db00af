#include "dtp/external.hpp"

namespace dtpsim::dtp {

UtcBroadcaster::UtcBroadcaster(sim::Simulator& sim, net::Host& host, Daemon& daemon,
                               fs_t period, double utc_error_ns)
    : sim_(sim),
      host_(host),
      daemon_(daemon),
      utc_error_ns_(utc_error_ns),
      rng_(sim.fork_rng(0x07C ^ host.addr().value)),
      proc_(sim, period, [this] { fire(); }, sim::EventCategory::kBeacon) {}

void UtcBroadcaster::fire() {
  if (!daemon_.calibrated()) return;
  auto pkt = std::make_shared<UtcPairPacket>();
  pkt->dtp_counter = daemon_.get_dtp_counter(sim_.now());
  // The server's UTC source has its own absolute error (GPS: ~100 ns).
  fs_t utc = sim_.now();
  if (utc_error_ns_ > 0)
    utc += static_cast<fs_t>(rng_.normal(0.0, utc_error_ns_) * static_cast<double>(kFsPerNs));
  pkt->utc = utc;

  net::Frame f;
  f.dst = net::MacAddr{0x0180'C200'000EULL};  // link-local multicast
  f.ethertype = net::kEtherTypeUtc;
  f.payload_bytes = 46;
  f.packet = pkt;
  ++count_;
  host_.send_app(f);
}

UtcClient::UtcClient(net::Host& host, Daemon& daemon) : host_(host), daemon_(daemon) {
  host_.on_app_receive.add(net::kEtherTypeUtc, [this](const net::Frame& f, fs_t, fs_t) {
    if (auto pkt = std::dynamic_pointer_cast<const UtcPairPacket>(f.packet)) handle_pair(*pkt);
  });
}

void UtcClient::handle_pair(const UtcPairPacket& p) {
  ++pairs_;
  const fs_t now_rx = host_.simulator().now();
  if (have_last_) inter_arrival_ = now_rx - last_rx_at_;
  last_rx_at_ = now_rx;
  if (have_last_ && p.dtp_counter > last_counter_) {
    ratio_ = static_cast<double>(p.utc - last_utc_) / (p.dtp_counter - last_counter_);
  }
  last_counter_ = p.dtp_counter;
  last_utc_ = p.utc;
  have_last_ = true;

  if (ready() && daemon_.calibrated()) {
    const fs_t now = host_.simulator().now();
    const double err_ns = (utc_at(now) - static_cast<double>(now)) / static_cast<double>(kFsPerNs);
    error_series_.add(to_sec_f(now), err_ns);
  }
}

double UtcClient::utc_at(fs_t now) const {
  if (!ready()) throw std::logic_error("UtcClient: not ready");
  const double c = daemon_.get_dtp_counter(now);
  return static_cast<double>(last_utc_) + (c - last_counter_) * *ratio_;
}

bool UtcClient::stale(fs_t now) const {
  if (!ready()) return true;
  const fs_t a = age(now);
  if (staleness_after_ > 0 && a > staleness_after_) return true;
  if (inter_arrival_ > 0 && a > 3 * inter_arrival_) return true;
  return false;
}

}  // namespace dtpsim::dtp
