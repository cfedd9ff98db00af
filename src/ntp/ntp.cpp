#include "ntp/ntp.hpp"

#include <algorithm>
#include <cmath>

namespace dtpsim::ntp {

namespace {
constexpr std::uint32_t kNtpPayloadBytes = 48;  // NTPv4 packet size
}

NtpServer::NtpServer(sim::Simulator& sim, net::Host& host, bool ideal_clock)
    : sim_(sim), host_(host), clock_(host.oscillator(), from_ns(100), ideal_clock) {
  auto previous = host_.on_app_receive;
  host_.on_app_receive = [this, previous](const net::Frame& f, fs_t hw, fs_t app) {
    if (f.ethertype == net::kEtherTypeNtp) {
      handle(f, app);
      return;
    }
    if (previous) previous(f, hw, app);
  };
}

void NtpServer::handle(const net::Frame& f, fs_t app_rx_time) {
  auto req = std::dynamic_pointer_cast<const NtpMessage>(f.packet);
  if (!req || req->response) return;

  auto resp = std::make_shared<NtpMessage>();
  resp->response = true;
  resp->sequence = req->sequence;
  resp->t1_ns = req->t1_ns;
  resp->t2_ns = clock_.timestamp_ns(app_rx_time);  // software RX timestamp
  resp->t3_ns = clock_.timestamp_ns(sim_.now());   // software TX timestamp
  ++served_;

  net::Frame out;
  out.dst = f.src;
  out.ethertype = net::kEtherTypeNtp;
  out.payload_bytes = kNtpPayloadBytes;
  out.packet = resp;
  host_.send_app(out);
}

NtpClient::NtpClient(sim::Simulator& sim, net::Host& host, net::MacAddr server,
                     const phy::AdjustableClock& reference, NtpClientParams params)
    : sim_(sim),
      host_(host),
      server_(server),
      reference_(reference),
      params_(params),
      clock_(host.oscillator(), from_ns(100)),
      poll_proc_(sim, params.poll_interval, [this] { poll(); },
                 sim::EventCategory::kBeacon),
      sample_proc_(sim, params.sample_period > 0 ? params.sample_period : from_ms(100),
                   [this] { sample_truth(); }, sim::EventCategory::kProbe) {
  auto previous = host_.on_app_receive;
  host_.on_app_receive = [this, previous](const net::Frame& f, fs_t hw, fs_t app) {
    if (f.ethertype == net::kEtherTypeNtp) {
      handle(f, app);
      return;
    }
    if (previous) previous(f, hw, app);
  };
}

void NtpClient::start() {
  poll_proc_.start_with_phase(params_.poll_interval / 3);
  if (params_.sample_period > 0) sample_proc_.start();
}

void NtpClient::stop() {
  poll_proc_.stop();
  sample_proc_.stop();
}

void NtpClient::poll() {
  auto req = std::make_shared<NtpMessage>();
  req->sequence = ++seq_;
  req->t1_ns = clock_.timestamp_ns(sim_.now());  // software timestamp at send
  ++polls_;

  net::Frame f;
  f.dst = server_;
  f.ethertype = net::kEtherTypeNtp;
  f.payload_bytes = kNtpPayloadBytes;
  f.packet = req;
  host_.send_app(f);
}

// Mills' clock filter in miniature: keep the last N (offset, delay) samples
// and trust the offset of the minimum-delay sample.
std::optional<double> NtpClient::clock_filter(double offset_ns, double delay_ns) {
  if (filter_.size() < params_.filter_window) {
    filter_.push_back({offset_ns, delay_ns});
  } else {
    filter_[filter_next_] = {offset_ns, delay_ns};
    filter_next_ = (filter_next_ + 1) % params_.filter_window;
  }
  const auto best = std::min_element(
      filter_.begin(), filter_.end(),
      [](const FilterSample& a, const FilterSample& b) { return a.delay_ns < b.delay_ns; });
  return best->offset_ns;
}

void NtpClient::handle(const net::Frame& f, fs_t app_rx_time) {
  auto resp = std::dynamic_pointer_cast<const NtpMessage>(f.packet);
  if (!resp || !resp->response || resp->sequence != seq_) return;

  const double t1 = resp->t1_ns;
  const double t2 = resp->t2_ns;
  const double t3 = resp->t3_ns;
  const double t4 = clock_.timestamp_ns(app_rx_time);

  const double offset = ((t2 - t1) + (t3 - t4)) / 2.0;
  const double delay = (t4 - t1) - (t3 - t2);
  if (delay < 0) return;  // nonsense sample

  const auto filtered = clock_filter(offset, delay);
  if (!filtered) return;
  ++exchanges_;
  const fs_t now = sim_.now();
  measured_series_.add(to_sec_f(now), *filtered);

  double applied;
  if (std::fabs(*filtered) > params_.step_threshold_ns) {
    applied = *filtered;
    clock_.step(now, applied);
  } else {
    // Slew a fraction of the filtered offset and fold the remainder into
    // the frequency estimate (crude FLL+PLL hybrid, like ntpd's discipline).
    applied = params_.slew_gain * *filtered;
    clock_.step(now, applied);
    freq_est_ppb_ += 0.1 * (*filtered / to_sec_f(params_.poll_interval));
    freq_est_ppb_ = std::clamp(freq_est_ppb_, -500000.0, 500000.0);  // adjtimex range
    clock_.adj_freq(now, freq_est_ppb_);
  }
  // The samples still in the filter were measured against the clock before
  // this correction; shift them so the min-delay selection does not keep
  // re-applying an already-corrected offset (ntpd clears its filter on
  // step for the same reason).
  for (auto& s : filter_) s.offset_ns -= applied;
}

void NtpClient::sample_truth() {
  const fs_t now = sim_.now();
  true_series_.add(to_sec_f(now), clock_.time_ns_at(now) - reference_.time_ns_at(now));
}

}  // namespace dtpsim::ntp
