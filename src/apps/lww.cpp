#include "apps/lww.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace dtpsim::apps {

namespace {
constexpr std::uint32_t kRingId = 1;
/// Initiator re-injects a token if its own writer saw none for this long.
constexpr fs_t kWatchdogPeriod = from_ms(1);
}  // namespace

LwwApp::LwwApp(sim::Simulator& sim, std::vector<TimeService> ring)
    : sim_(sim),
      ring_(std::move(ring)),
      stats_(ring_.size()),
      watchdog_(sim, kWatchdogPeriod, [this] {
        // Runs on writer 0's shard: if no lap completed since the last
        // check, the token died somewhere (dropped frame, dark link) —
        // re-inject under a fresh generation.
        if (!started_) return;
        if (laps_seen_ == laps_at_last_check_) {
          ++reinjects_;
          inject(++generation_);
        }
        laps_at_last_check_ = laps_seen_;
      }, sim::EventCategory::kApp) {
  if (ring_.size() < 2) throw std::invalid_argument("LwwApp: ring too small");
  ns_per_unit_ = ns_per_unit(*ring_.front().daemon);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_[i].host->on_hw_receive.add(
        net::kEtherTypeLww, [this, i](const net::Frame& f, fs_t rx_time) {
          auto tok = std::dynamic_pointer_cast<const LwwTokenPacket>(f.packet);
          if (tok && tok->ring_id == kRingId) on_token(i, *tok, rx_time);
        });
  }
  watchdog_.set_affinity(ring_.front().host->node());
}

void LwwApp::start(fs_t at) {
  started_ = true;
  const fs_t now = sim_.now();
  sim::ScopedAffinity aff(ring_.front().host->node());
  sim_.schedule_at(at, [this] { inject(generation_); }, sim::EventCategory::kApp);
  watchdog_.start_with_phase(at - now + kWatchdogPeriod);
}

void LwwApp::stop() {
  started_ = false;
  watchdog_.stop();
}

void LwwApp::inject(std::uint64_t generation) {
  // Writer 0 writes the seed version and hands the token to writer 1.
  const fs_t now = sim_.now();
  const dtp::TimebaseSample s = ring_.front().sample(now);
  auto tok = std::make_shared<LwwTokenPacket>();
  tok->ring_id = kRingId;
  tok->generation = generation;
  tok->hop = 0;
  tok->writer = 0;
  tok->ts_units = s.units;
  tok->ts_frac = s.frac;
  tok->unc_units = s.uncertainty_units;
  tok->stale = s.stale;
  net::Frame f;
  f.dst = ring_[1].host->addr();
  f.ethertype = net::kEtherTypeLww;
  f.payload_bytes = kAppPayloadBytes;
  f.priority = kAppPriority;
  f.packet = tok;
  ring_.front().host->send_hw(f);
}

void LwwApp::on_token(std::size_t me, const LwwTokenPacket& tok, fs_t now) {
  const dtp::TimebaseSample s = ring_[me].sample(now);
  LwwWriterStats& st = stats_[me];
  if (me == 0) ++laps_seen_;
  if (!s.valid) return;  // daemon not calibrated yet; drop, watchdog re-arms

  ++st.writes;
  if (s.stale) ++st.stale_writes;
  // My write is causally after the token's version; LWW must order it
  // later. Difference the integer parts exactly (magnitude-independent).
  const double diff =
      static_cast<double>(s.units - tok.ts_units) + (s.frac - tok.ts_frac);
  const double budget =
      s.uncertainty_units + tok.unc_units + kNetworkBoundUnits;
  if (diff <= 0.0) {
    ++st.inversions;
    st.worst_inversion_ns = std::max(st.worst_inversion_ns, -diff * ns_per_unit_);
  }
  if (diff + budget < 0.0) {
    // Even the most favorable reading inside both claimed intervals is
    // inverted: the app would have committed the wrong winner confidently.
    ++st.certain_wrong;
  } else if (diff - budget <= 0.0) {
    // Intervals overlap: the app knows it cannot order the pair.
    ++st.ambiguous;
  }

  // Forward a fresh token carrying my version.
  auto next_tok = std::make_shared<LwwTokenPacket>();
  next_tok->ring_id = kRingId;
  next_tok->generation = tok.generation;
  next_tok->hop = tok.hop + 1;
  next_tok->writer = static_cast<std::uint32_t>(me);
  next_tok->ts_units = s.units;
  next_tok->ts_frac = s.frac;
  next_tok->unc_units = s.uncertainty_units;
  next_tok->stale = s.stale;
  net::Frame f;
  f.dst = ring_[(me + 1) % ring_.size()].host->addr();
  f.ethertype = net::kEtherTypeLww;
  f.payload_bytes = kAppPayloadBytes;
  f.priority = kAppPriority;
  f.packet = next_tok;
  ring_[me].host->send_hw(f);
}

LwwWriterStats LwwApp::total() const {
  LwwWriterStats out;
  for (const LwwWriterStats& s : stats_) {
    out.writes += s.writes;
    out.inversions += s.inversions;
    out.certain_wrong += s.certain_wrong;
    out.ambiguous += s.ambiguous;
    out.stale_writes += s.stale_writes;
    out.worst_inversion_ns = std::max(out.worst_inversion_ns, s.worst_inversion_ns);
  }
  return out;
}

}  // namespace dtpsim::apps
