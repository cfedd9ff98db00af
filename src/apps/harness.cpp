#include "apps/harness.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dtpsim::apps {

namespace {
/// Per-host TSC ppm errors; cycled when shorter than the host list.
constexpr std::array<double, 8> kTscPpm = {17.0, -23.0, 9.0, -5.0, 21.0, -13.0, 3.0, -19.0};

std::uint32_t next_pair_block(std::uint32_t n) {
  static std::uint32_t counter = 0;  // setup-time only
  const std::uint32_t base = counter + 1;
  counter += n;
  return base;
}
}  // namespace

OwdApp::OwdApp(sim::Simulator& sim,
               std::vector<std::pair<TimeService, TimeService>> pairs)
    : sim_(sim),
      pairs_(std::move(pairs)),
      stats_(pairs_.size()),
      seq_(pairs_.size(), 0),
      base_pair_id_(next_pair_block(static_cast<std::uint32_t>(pairs_.size()))) {
  if (pairs_.empty()) throw std::invalid_argument("OwdApp: no pairs");
  ns_per_unit_ = ns_per_unit(*pairs_.front().first.daemon);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const std::uint32_t id = base_pair_id_ + static_cast<std::uint32_t>(i);
    TimeService src = pairs_[i].first;

    // Stamp at the hardware TX instant: the page sample the sender's NIC
    // would read as the frame leaves.
    src.host->nic().on_transmit.add(
        net::kEtherTypePageOwd, [id, src](net::Frame& f, fs_t tx_start) {
          auto pkt = std::dynamic_pointer_cast<const PageOwdPacket>(f.packet);
          if (!pkt || pkt->pair_id != id) return;
          const dtp::TimebaseSample s = src.sample(tx_start);
          auto* p = const_cast<PageOwdPacket*>(pkt.get());
          p->ts_units = s.units;
          p->ts_frac = s.frac;
          p->unc_units = s.uncertainty_units;
          p->stale = s.stale;
          p->valid = s.valid;
          p->tx_true = tx_start;
        });

    pairs_[i].second.host->on_hw_receive.add(
        net::kEtherTypePageOwd, [this, i, id](const net::Frame& f, fs_t rx_time) {
          auto pkt = std::dynamic_pointer_cast<const PageOwdPacket>(f.packet);
          if (pkt && pkt->pair_id == id) on_probe(i, *pkt, rx_time);
        });

    auto proc = std::make_unique<sim::PeriodicProcess>(
        sim_, kOwdPeriod, [this, i] { send_probe(i); },
        sim::EventCategory::kApp);
    proc->set_affinity(src.host->node());
    senders_.push_back(std::move(proc));
  }
}

void OwdApp::start(fs_t at) {
  const fs_t now = sim_.now();
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    // Spread pairs across one period so probes do not leave in one comb.
    const fs_t offset = static_cast<fs_t>(
        (static_cast<__int128>(kOwdPeriod) * static_cast<fs_t>(i)) /
        static_cast<fs_t>(senders_.size()));
    senders_[i]->start_with_phase(at - now + offset + kOwdPeriod);
  }
}

void OwdApp::stop() {
  for (auto& s : senders_) s->stop();
}

void OwdApp::send_probe(std::size_t i) {
  auto pkt = std::make_shared<PageOwdPacket>();
  pkt->pair_id = base_pair_id_ + static_cast<std::uint32_t>(i);
  pkt->sequence = ++seq_[i];
  net::Frame f;
  f.dst = pairs_[i].second.host->addr();
  f.ethertype = net::kEtherTypePageOwd;
  f.payload_bytes = kAppPayloadBytes;
  f.priority = kAppPriority;
  f.packet = pkt;
  pairs_[i].first.host->send_hw(f);
}

void OwdApp::on_probe(std::size_t i, const PageOwdPacket& pkt, fs_t rx_time) {
  const dtp::TimebaseSample s = pairs_[i].second.sample(rx_time);
  OwdPairStats& st = stats_[i];
  if (!pkt.valid || !s.valid) {
    ++st.invalid;
    return;
  }
  ++st.probes;
  const double measured_ns =
      (static_cast<double>(s.units - pkt.ts_units) + (s.frac - pkt.ts_frac)) *
      ns_per_unit_;
  const double truth_ns = to_ns_f(rx_time - pkt.tx_true);
  const double err_ns = measured_ns - truth_ns;
  st.worst_error_ns = std::max(st.worst_error_ns, std::abs(err_ns));
  if (pkt.stale || s.stale) {
    // Either page admitted its bound no longer holds — the app noticed.
    ++st.detected;
  } else if (std::abs(err_ns) >
             (pkt.unc_units + s.uncertainty_units + kNetworkBoundUnits) *
                 ns_per_unit_) {
    ++st.failures;
  }
}

OwdPairStats OwdApp::total() const {
  OwdPairStats out;
  for (const OwdPairStats& s : stats_) {
    out.probes += s.probes;
    out.failures += s.failures;
    out.detected += s.detected;
    out.invalid += s.invalid;
    out.worst_error_ns = std::max(out.worst_error_ns, s.worst_error_ns);
  }
  return out;
}

AppHarness::AppHarness(sim::Simulator& sim, dtp::DtpNetwork& dtp,
                       std::vector<net::Host*> hosts, AppHarnessParams params)
    : sim_(sim), params_(std::move(params)) {
  if (hosts.empty()) throw std::invalid_argument("AppHarness: no hosts");
  daemons_.reserve(hosts.size());
  services_.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    dtp::Agent* agent = dtp.agent_of(hosts[i]);
    if (agent == nullptr)
      throw std::invalid_argument("AppHarness: host has no DTP agent");
    auto d = std::make_unique<dtp::Daemon>(
        sim_, *agent, params_.daemon, kTscPpm[i % kTscPpm.size()]);
    d->set_affinity(hosts[i]->node());
    services_.push_back(TimeService{hosts[i], d.get()});
    daemons_.push_back(std::move(d));
  }

  auto pick = [&](std::size_t idx) -> TimeService {
    if (idx >= services_.size())
      throw std::out_of_range("AppHarness: host index out of range");
    return services_[idx];
  };

  if (!params_.owd_pairs.empty()) {
    std::vector<std::pair<TimeService, TimeService>> pairs;
    pairs.reserve(params_.owd_pairs.size());
    for (const auto& [a, b] : params_.owd_pairs) pairs.emplace_back(pick(a), pick(b));
    owd_ = std::make_unique<OwdApp>(sim_, std::move(pairs));
  }
  if (!params_.lww_ring.empty()) {
    std::vector<TimeService> ring;
    ring.reserve(params_.lww_ring.size());
    for (std::size_t idx : params_.lww_ring) ring.push_back(pick(idx));
    lww_ = std::make_unique<LwwApp>(sim_, std::move(ring));
  }
  if (!params_.tdma_senders.empty()) {
    std::vector<TimeService> senders;
    senders.reserve(params_.tdma_senders.size());
    for (std::size_t idx : params_.tdma_senders) senders.push_back(pick(idx));
    tdma_ = std::make_unique<TdmaApp>(sim_, std::move(senders));
  }
  if (params_.readers_per_host > 0) {
    fleet_ = std::make_unique<ReaderFleet>(sim_, services_, params_.readers_per_host,
                                           params_.reader_period);
  }
}

AppHarness::~AppHarness() { stop(); }

void AppHarness::start_daemons() {
  for (auto& d : daemons_) d->start();
}

void AppHarness::start_apps(fs_t at) {
  if (owd_) owd_->start(at);
  if (lww_) lww_->start(at);
  if (tdma_) tdma_->start(at);
  if (fleet_) fleet_->start(at);
}

void AppHarness::stop() {
  if (fleet_) fleet_->stop();
  if (tdma_) tdma_->stop();
  if (lww_) lww_->stop();
  if (owd_) owd_->stop();
  for (auto& d : daemons_) d->stop();
}

std::vector<chaos::AppVerdict> AppHarness::verdicts() const {
  std::vector<chaos::AppVerdict> out;
  if (owd_) {
    const OwdPairStats t = owd_->total();
    chaos::AppVerdict v;
    v.app = "owd";
    v.ops = t.probes;
    v.failures = t.failures;
    v.detected = t.detected;
    v.worst_error_ns = t.worst_error_ns;
    v.detail = "pairs=" + std::to_string(owd_->size()) +
               " invalid=" + std::to_string(t.invalid);
    out.push_back(std::move(v));
  }
  if (lww_) {
    const LwwWriterStats t = lww_->total();
    chaos::AppVerdict v;
    v.app = "lww";
    v.ops = t.writes;
    v.failures = t.certain_wrong;
    v.detected = t.ambiguous + t.stale_writes;
    v.worst_error_ns = t.worst_inversion_ns;
    v.detail = "ring=" + std::to_string(lww_->size()) +
               " inversions=" + std::to_string(t.inversions) +
               " reinjects=" + std::to_string(lww_->reinjects());
    out.push_back(std::move(v));
  }
  if (tdma_) {
    const TdmaSenderStats t = tdma_->total();
    chaos::AppVerdict v;
    v.app = "tdma";
    v.ops = t.sends;
    v.failures = t.misses;
    v.detected = t.stale_fires + t.unc_warnings;
    v.worst_error_ns = t.worst_miss_ns;
    v.detail = "senders=" + std::to_string(tdma_->size()) +
               " slot_units=" + std::to_string(kTdmaSlotUnits) +
               " guard_units=" + std::to_string(kTdmaGuardUnits);
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace dtpsim::apps
