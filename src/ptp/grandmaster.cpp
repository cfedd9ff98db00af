#include "ptp/grandmaster.hpp"

namespace dtpsim::ptp {

Grandmaster::Grandmaster(sim::Simulator& sim, net::Host& host, GrandmasterParams params)
    : sim_(sim),
      host_(host),
      params_(params),
      phc_(host.oscillator(), kTimestampResolution, /*ideal=*/true),
      sync_proc_(sim, params.sync_interval, [this] { send_sync(); },
                 sim::EventCategory::kBeacon),
      announce_proc_(sim, params.announce_interval, [this] { send_announce(); },
                     sim::EventCategory::kBeacon) {
  host_.on_hw_receive.add(net::kEtherTypePtp,
                          [this](const net::Frame& f, fs_t t) { handle_hw_receive(f, t); });
  host_.nic().on_transmit.add(net::kEtherTypePtp,
                              [this](net::Frame& f, fs_t t) { handle_transmit(f, t); });
}

void Grandmaster::start() {
  sync_proc_.start_with_phase(params_.sync_interval / 4);
  announce_proc_.start_with_phase(params_.announce_interval / 2);
}

void Grandmaster::stop() {
  sync_proc_.stop();
  announce_proc_.stop();
}

void Grandmaster::send_sync() {
  auto msg = std::make_shared<PtpMessage>();
  msg->type = PtpType::kSync;
  msg->sequence = ++sync_seq_;
  ++packets_sent_;
  net::Frame f = make_ptp_frame(host_.addr(), kPtpMulticast, msg);
  f.priority = params_.cos;
  host_.send_app(f);
}

void Grandmaster::send_announce() {
  auto msg = std::make_shared<PtpMessage>();
  msg->type = PtpType::kAnnounce;
  msg->sequence = ++announce_seq_;
  msg->priority = params_.priority;
  msg->clock_identity = host_.addr().value;
  ++packets_sent_;
  net::Frame f = make_ptp_frame(host_.addr(), kPtpMulticast, msg);
  f.priority = params_.cos;
  host_.send_app(f);
}

// Two-step clock: when the Sync actually hits the wire, capture its
// hardware timestamp and chase it with a Follow_Up.
void Grandmaster::handle_transmit(net::Frame& f, fs_t tx_start) {
  auto msg = std::dynamic_pointer_cast<const PtpMessage>(f.packet);
  if (!msg || msg->type != PtpType::kSync) return;

  auto follow = std::make_shared<PtpMessage>();
  follow->type = PtpType::kFollowUp;
  follow->sequence = msg->sequence;
  follow->timestamp_ns = phc_.timestamp_ns(tx_start);  // t1
  ++packets_sent_;
  net::Frame ff = make_ptp_frame(host_.addr(), kPtpMulticast, follow);
  ff.priority = params_.cos;
  host_.send_app(ff);
}

void Grandmaster::handle_hw_receive(const net::Frame& f, fs_t rx_time) {
  auto msg = std::dynamic_pointer_cast<const PtpMessage>(f.packet);
  if (!msg || msg->type != PtpType::kDelayReq) return;

  const double t4 = phc_.timestamp_ns(rx_time);  // hardware RX timestamp
  auto resp = std::make_shared<PtpMessage>();
  resp->type = PtpType::kDelayResp;
  resp->sequence = msg->sequence;
  resp->timestamp_ns = t4;
  resp->echoed_correction_ns = f.correction_ns;
  resp->requester = f.src;
  ++dreqs_answered_;
  ++packets_sent_;
  net::Frame rf = make_ptp_frame(host_.addr(), f.src, resp);
  rf.priority = params_.cos;
  host_.send_app(rf);
}

}  // namespace dtpsim::ptp
