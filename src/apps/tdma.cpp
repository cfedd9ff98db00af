#include "apps/tdma.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace dtpsim::apps {

TdmaApp::TdmaApp(sim::Simulator& sim, std::vector<TimeService> senders,
                 TdmaParams params)
    : sim_(sim),
      senders_(std::move(senders)),
      params_(params),
      stats_(senders_.size()),
      rounds_(senders_.size(), 0) {
  if (senders_.size() < 2) throw std::invalid_argument("TdmaApp: need >= 2 senders");
  if (params_.guard_units * 2 >= params_.slot_units)
    throw std::invalid_argument("TdmaApp: guard bands swallow the slot");
  if (params_.aim_units < 0 ||
      params_.aim_units > params_.slot_units - 2 * params_.guard_units)
    throw std::invalid_argument("TdmaApp: aim outside the guarded window");
  round_units_ = params_.slot_units * static_cast<std::int64_t>(senders_.size());
  ns_per_unit_ = ns_per_unit(*senders_.front().daemon);

  for (std::size_t i = 0; i < senders_.size(); ++i) {
    auto& nic = senders_[i].host->nic();
    auto prev = nic.on_transmit;
    nic.on_transmit = [this, i, prev](net::Frame& f, fs_t tx_start) {
      if (f.ethertype == net::kEtherTypeTdma) {
        if (auto pkt = std::dynamic_pointer_cast<const TdmaSlotPacket>(f.packet);
            pkt && pkt->schedule_id == params_.schedule_id &&
            pkt->sender == static_cast<std::uint32_t>(i)) {
          on_transmit(i, tx_start);
        }
      }
      if (prev) prev(f, tx_start);
    };
  }
}

void TdmaApp::start(fs_t at) {
  running_ = true;
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    sim::ScopedAffinity aff(senders_[i].host->node());
    sim_.schedule_at(at, [this, i] { arm(i); }, sim::EventCategory::kApp);
  }
}

void TdmaApp::stop() { running_ = false; }

void TdmaApp::arm(std::size_t me) {
  if (!running_) return;
  const fs_t now = sim_.now();
  dtp::TimebaseSnapshot snap;
  const bool have_snap = senders_[me].daemon->timebase().snapshot(&snap);
  const dtp::TimebaseSample s = senders_[me].sample(now);
  if (!s.valid || !have_snap || snap.units_per_tsc <= 0.0) {
    // Page not serving yet (daemon uncalibrated): retry in about one round.
    const fs_t retry = std::max<fs_t>(
        static_cast<fs_t>(static_cast<double>(round_units_) * ns_per_unit_ * 1e6),
        from_us(1));
    sim_.schedule_at(now + retry, [this, me] { arm(me); }, sim::EventCategory::kApp);
    return;
  }
  // Next occurrence of my aim point on the page timeline, at least half a
  // slot ahead: a fire can land a fraction of a unit *early* (the reader's
  // TSC is an integer, so a sleep rounds down by up to one count), and
  // re-targeting the not-quite-reached aim would fire again for the same
  // slot — a Zeno loop emitting a frame per TSC count. Anything within half
  // a slot is "this round already happened"; roll to the next one.
  const std::int64_t aim_off = static_cast<std::int64_t>(me) * params_.slot_units +
                               params_.guard_units + params_.aim_units;
  std::int64_t target = (s.units / round_units_) * round_units_ + aim_off;
  while (target <= s.units + params_.slot_units / 2) target += round_units_;
  // Convert the page-time distance to a sleep: page units -> TSC counts via
  // the published rate, TSC counts -> wall time via the *nominal* TSC
  // frequency (all an application knows; its TSC ppm error over one round is
  // sub-ns and re-corrected at the next arm).
  const double delta_units = static_cast<double>(target - s.units) - s.frac;
  const double delta_tsc = delta_units / snap.units_per_tsc;
  const double delta_fs = delta_tsc / senders_[me].daemon->params().tsc_hz * 1e15;
  sim_.schedule_at(now + std::max<fs_t>(static_cast<fs_t>(delta_fs), 1),
                   [this, me] { fire(me); }, sim::EventCategory::kApp);
}

void TdmaApp::fire(std::size_t me) {
  if (!running_) return;
  const fs_t now = sim_.now();
  const dtp::TimebaseSample s = senders_[me].sample(now);
  if (s.valid) {
    TdmaSenderStats& st = stats_[me];
    if (s.stale) ++st.stale_fires;
    // If the page's own error bar no longer fits inside the guard band the
    // app *knows* this fire may collide — a detected hazard even if the
    // frame happens to land inside the window.
    if (s.uncertainty_units > static_cast<double>(params_.guard_units))
      ++st.unc_warnings;
    auto pkt = std::make_shared<TdmaSlotPacket>();
    pkt->schedule_id = params_.schedule_id;
    pkt->sender = static_cast<std::uint32_t>(me);
    pkt->round = rounds_[me]++;
    net::Frame f;
    f.dst = senders_[(me + 1) % senders_.size()].host->addr();
    f.ethertype = net::kEtherTypeTdma;
    f.payload_bytes = params_.payload_bytes;
    f.priority = params_.priority;
    f.packet = pkt;
    senders_[me].host->send_hw(f);
  }
  arm(me);
}

void TdmaApp::on_transmit(std::size_t me, fs_t tx_start) {
  // Verdict: where did the *hardware* clock say this frame left, on the
  // slot grid every NIC shares? Exact 128-bit modulo, so the check keeps
  // unit resolution at any counter magnitude.
  const unsigned __int128 v = senders_[me].daemon->agent().global_at(tx_start).value();
  const std::int64_t pos = static_cast<std::int64_t>(
      v % static_cast<unsigned __int128>(round_units_));
  const std::int64_t lo =
      static_cast<std::int64_t>(me) * params_.slot_units + params_.guard_units;
  const std::int64_t hi = (static_cast<std::int64_t>(me) + 1) * params_.slot_units -
                          params_.guard_units;
  TdmaSenderStats& st = stats_[me];
  ++st.sends;
  if (pos < lo || pos >= hi) {
    ++st.misses;
    // Distance past the nearer guard edge, wrap-aware (a TX that slid into
    // the previous round's tail shows up as a huge pos for sender 0).
    std::int64_t excess = pos < lo ? lo - pos : pos - (hi - 1);
    excess = std::min(excess, round_units_ - excess);
    st.worst_miss_ns =
        std::max(st.worst_miss_ns, static_cast<double>(excess) * ns_per_unit_);
  }
}

TdmaSenderStats TdmaApp::total() const {
  TdmaSenderStats out;
  for (const TdmaSenderStats& s : stats_) {
    out.sends += s.sends;
    out.misses += s.misses;
    out.stale_fires += s.stale_fires;
    out.unc_warnings += s.unc_warnings;
    out.worst_miss_ns = std::max(out.worst_miss_ns, s.worst_miss_ns);
  }
  return out;
}

}  // namespace dtpsim::apps
