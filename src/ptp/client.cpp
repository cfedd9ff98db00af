#include "ptp/client.hpp"

#include <algorithm>

namespace dtpsim::ptp {

namespace {
constexpr std::size_t kDelayFilterWindow = 8;  ///< median window for path delay
constexpr fs_t kSamplePeriod = from_ms(100);   ///< true-offset sampling cadence
}  // namespace

PtpClient::PtpClient(sim::Simulator& sim, net::Host& host, const HardwareClock& reference,
                     PtpClientParams params)
    : sim_(sim),
      host_(host),
      reference_(reference),
      params_(params),
      phc_(host.oscillator(), kTimestampResolution),
      dreq_proc_(sim, params.delay_req_interval, [this] { send_delay_req(); },
                 sim::EventCategory::kBeacon),
      sample_proc_(sim, kSamplePeriod, [this] { sample_truth(); },
                   sim::EventCategory::kProbe) {
  host_.on_hw_receive.add(net::kEtherTypePtp,
                          [this](const net::Frame& f, fs_t t) { handle_hw_receive(f, t); });
  host_.nic().on_transmit.add(net::kEtherTypePtp,
                              [this](net::Frame& f, fs_t t) { handle_transmit(f, t); });
}

void PtpClient::start() {
  dreq_proc_.start();
  sample_proc_.start();
}

void PtpClient::stop() {
  dreq_proc_.stop();
  sample_proc_.stop();
}

void PtpClient::handle_hw_receive(const net::Frame& f, fs_t rx_time) {
  auto msg = std::dynamic_pointer_cast<const PtpMessage>(f.packet);
  if (!msg) return;
  switch (msg->type) {
    case PtpType::kAnnounce:
      handle_announce(f, *msg);
      break;
    case PtpType::kSync:
      handle_sync(f, *msg, rx_time);
      break;
    case PtpType::kFollowUp:
      handle_follow_up(*msg);
      break;
    case PtpType::kDelayResp:
      if (msg->requester == host_.addr()) handle_delay_resp(*msg);
      break;
    case PtpType::kDelayReq:
      break;  // not our role
  }
}

// Simplified BMC: adopt the lowest (priority, identity).
void PtpClient::handle_announce(const net::Frame& f, const PtpMessage& m) {
  if (m.priority < master_priority_ ||
      (m.priority == master_priority_ && m.clock_identity < master_identity_)) {
    master_ = f.src;
    master_priority_ = m.priority;
    master_identity_ = m.clock_identity;
  }
}

void PtpClient::handle_sync(const net::Frame& f, const PtpMessage& m, fs_t rx_time) {
  if (master_.value == 0) master_ = f.src;  // no Announce heard yet
  if (!(f.src == master_)) return;
  sync_seq_ = m.sequence;
  t2_ns_ = phc_.timestamp_ns(rx_time);
  sync_correction_ns_ = f.correction_ns;
  t1_ns_.reset();
}

void PtpClient::handle_follow_up(const PtpMessage& m) {
  if (!t2_ns_ || m.sequence != sync_seq_) return;
  t1_ns_ = m.timestamp_ns;
  pair_t1_ns_ = t1_ns_;
  pair_t2_ns_ = *t2_ns_ - sync_correction_ns_;  // residence time removed
  complete_sync();
}

void PtpClient::send_delay_req() {
  if (master_.value == 0) return;
  auto msg = std::make_shared<PtpMessage>();
  msg->type = PtpType::kDelayReq;
  msg->sequence = ++dreq_seq_;
  ++dreqs_sent_;
  t3_ns_.reset();
  net::Frame f = make_ptp_frame(host_.addr(), master_, msg);
  f.priority = params_.cos;
  host_.send_app(f);
}

void PtpClient::handle_transmit(net::Frame& f, fs_t tx_start) {
  auto msg = std::dynamic_pointer_cast<const PtpMessage>(f.packet);
  if (!msg || msg->type != PtpType::kDelayReq || msg->sequence != dreq_seq_) return;
  t3_ns_ = phc_.timestamp_ns(tx_start);  // hardware TX timestamp
}

double PtpClient::filtered_delay(double sample_ns) {
  if (delay_window_.size() < kDelayFilterWindow) {
    delay_window_.push_back(sample_ns);
  } else {
    delay_window_[delay_window_next_] = sample_ns;
    delay_window_next_ = (delay_window_next_ + 1) % kDelayFilterWindow;
  }
  std::vector<double> sorted = delay_window_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  return sorted[sorted.size() / 2];
}

void PtpClient::handle_delay_resp(const PtpMessage& m) {
  if (!t3_ns_ || m.sequence != dreq_seq_) return;
  if (!pair_t1_ns_ || !pair_t2_ns_) return;
  const double t3 = *t3_ns_;
  const double t4 = m.timestamp_ns - m.echoed_correction_ns;
  // meanPathDelay = ((t2 - t3) + (t4 - t1)) / 2, corrections removed.
  const double mpd = ((*pair_t2_ns_ - t3) + (t4 - *pair_t1_ns_)) / 2.0;
  path_delay_ns_ = filtered_delay(std::max(mpd, 0.0));
}

void PtpClient::complete_sync() {
  if (!pair_t1_ns_ || !pair_t2_ns_ || !path_delay_ns_) return;

  // offsetFromMaster = (t2 - t1) - meanPathDelay.
  const double offset = (*pair_t2_ns_ - *pair_t1_ns_) - *path_delay_ns_;
  const fs_t now = sim_.now();
  const double dt_sec = last_servo_update_ > 0 ? to_sec_f(now - last_servo_update_) : 1.0;
  last_servo_update_ = now;

  const ServoAction action = servo_.update(offset, dt_sec);
  if (action.step_ns != 0.0) phc_.step(now, action.step_ns);
  phc_.adj_freq(now, action.freq_ppb);

  ++syncs_completed_;
  measured_series_.add(to_sec_f(now), offset);
}

void PtpClient::sample_truth() {
  const fs_t now = sim_.now();
  true_series_.add(to_sec_f(now), phc_.time_ns_at(now) - reference_.time_ns_at(now));
}

}  // namespace dtpsim::ptp
