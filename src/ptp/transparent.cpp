#include "ptp/transparent.hpp"

namespace dtpsim::ptp {

namespace {
bool is_event_message(const net::Frame& f) {
  auto msg = std::dynamic_pointer_cast<const PtpMessage>(f.packet);
  return msg && (msg->type == PtpType::kSync || msg->type == PtpType::kDelayReq);
}
}  // namespace

TransparentClockAdapter::TransparentClockAdapter(net::Switch& sw,
                                                 TransparentClockParams params)
    : sw_(sw), params_(params), clock_(sw.oscillator(), kTimestampResolution) {
  for (std::size_t i = 0; i < sw_.port_count(); ++i) {
    net::Mac& mac = sw_.mac(i);
    mac.on_ingress.add(net::kEtherTypePtp,
                       [this](const net::Frame& f, fs_t rx_time) { note_ingress(f, rx_time); });
    mac.on_transmit.add(net::kEtherTypePtp,
                        [this](net::Frame& f, fs_t tx_start) { apply_egress(f, tx_start); });
  }
}

void TransparentClockAdapter::note_ingress(const net::Frame& f, fs_t rx_time) {
  if (!is_event_message(f)) return;
  const void* key = f.packet.get();
  ingress_ts_ns_[key] = clock_.timestamp_ns(rx_time);
  ingress_when_[key] = rx_time;
  if (ingress_ts_ns_.size() > 4096) prune(rx_time);
}

void TransparentClockAdapter::apply_egress(net::Frame& f, fs_t tx_start) {
  if (!is_event_message(f)) return;
  auto it = ingress_ts_ns_.find(f.packet.get());
  if (it == ingress_ts_ns_.end()) return;  // originated here, not transited
  const double residence = clock_.timestamp_ns(tx_start) - it->second;
  if (residence <= 0) return;
  // Past the cap the congested correction engine cannot keep up ([52]).
  if (residence > params_.max_correctable_residence_ns) return;
  f.correction_ns += residence;
  ++corrections_;
}

void TransparentClockAdapter::prune(fs_t now) {
  // Drop records older than a second; flooded copies have long since left.
  for (auto it = ingress_when_.begin(); it != ingress_when_.end();) {
    if (it->second + from_sec(1) < now) {
      ingress_ts_ns_.erase(it->first);
      it = ingress_when_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dtpsim::ptp
