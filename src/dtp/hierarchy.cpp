#include "dtp/hierarchy.hpp"

#include <algorithm>
#include <cmath>

#include "obs/hub.hpp"

namespace dtpsim::dtp {

namespace {
/// A source is stale once no sample was accepted for this multiple of its
/// measured inter-arrival gap (failover trigger; keep < 2 so GPS loss fails
/// over within two broadcast intervals).
constexpr double kStalenessFactor = 1.5;
/// Staleness age limit before the inter-arrival gap is known.
constexpr fs_t kStalenessFloor = from_ms(1);
/// Falseticker acceptance margin on top of claimed accuracy + drift age.
constexpr double kFalsetickerMarginNs = 50.0;
/// Consecutive rejected samples before a source is quarantined.
constexpr int kFalsetickerStrikes = 2;
/// Quarantine hold-down; rejections while lying keep extending it.
constexpr fs_t kFalsetickerHolddown = from_ms(1);
/// Rate-error bound (ppm) of the free-running island vs UTC — covers the
/// oscillator envelope of whatever the island's master tree runs at, on both
/// sides of a partition.
constexpr double kHoldoverDriftPpm = 300.0;
/// Fixed uncertainty margin (ns) on top of claim + dispersion + drift.
constexpr double kBaseMarginNs = 25.0;
/// Minimum serving rate while slewing out a backward raw jump: served time
/// still advances at this fraction of real time.
constexpr double kMinServeRate = 0.5;
}  // namespace

TimeSourceParams TimeSourceParams::gps(std::uint32_t id, fs_t period) {
  TimeSourceParams p;
  p.source_id = id;
  p.stratum = 1;
  p.accuracy_ns = 100.0;
  p.period = period;
  return p;
}

TimeSourceParams TimeSourceParams::upstream_island(std::uint32_t id, int stratum,
                                                   double accuracy_ns, fs_t period) {
  TimeSourceParams p;
  p.source_id = id;
  p.stratum = stratum;
  p.accuracy_ns = accuracy_ns;
  p.period = period;
  return p;
}

// ---------------------------------------------------------------------------
// UtcSourceServer

UtcSourceServer::UtcSourceServer(sim::Simulator& sim, net::Host& host, Agent& agent,
                                 TimeSourceParams params)
    : sim_(sim),
      host_(host),
      agent_(agent),
      agent_alive_(agent.lifetime()),
      params_(params),
      stratum_(params.stratum),
      rng_(sim.fork_rng(0x5B0CULL ^ host.addr().value ^
                        (static_cast<std::uint64_t>(params.source_id) << 32))),
      proc_(sim, params.period, [this] { fire(); }, sim::EventCategory::kBeacon) {
  // One-step clock: counter and UTC are both captured at the hardware
  // transmit instant. The lie, if any, is applied here too — a rogue
  // grandmaster's packets are perfectly formed.
  host_.nic().on_transmit.add(net::kEtherTypeSourceSync, [this](net::Frame& f, fs_t tx_start) {
    auto pkt = std::dynamic_pointer_cast<const SourceSyncPacket>(f.packet);
    if (!pkt || pkt->source_id != params_.source_id || agent_alive_.expired()) return;
    auto* mut = const_cast<SourceSyncPacket*>(pkt.get());
    mut->tx_dtp_counter = agent_.global_fractional_at(tx_start);
    double utc = static_cast<double>(tx_start);
    if (params_.utc_error_ns > 0)
      utc += rng_.normal(0.0, params_.utc_error_ns) * static_cast<double>(kFsPerNs);
    utc += lie_ns_ * static_cast<double>(kFsPerNs);
    mut->utc_at_tx = static_cast<fs_t>(std::llround(utc));
    mut->stamped = true;
  });
}

void UtcSourceServer::fire() {
  // Reference lost, or the host crashed: nothing worth advertising.
  if (down_ || agent_alive_.expired()) return;
  auto pkt = std::make_shared<SourceSyncPacket>();
  pkt->source_id = params_.source_id;
  pkt->stratum = stratum_;
  pkt->accuracy_ns = params_.accuracy_ns;

  net::Frame f;
  f.dst = net::MacAddr{0x0180'C200'000EULL};  // link-local multicast
  f.ethertype = net::kEtherTypeSourceSync;
  f.payload_bytes = 46;
  f.packet = pkt;
  ++count_;
  host_.send_app(f);
}

// ---------------------------------------------------------------------------
// HierarchyClient

HierarchyClient::HierarchyClient(net::Host& host, Agent& agent, HierarchyParams params)
    : host_(host), agent_(agent), agent_alive_(agent.lifetime()), params_(params) {
  host_.on_hw_receive.add(net::kEtherTypeSourceSync,
                          [this](const net::Frame& f, fs_t hw_rx) { handle_sync(f, hw_rx); });
}

const SourceTrack* HierarchyClient::track(std::uint32_t id) const {
  for (const SourceTrack& t : tracks_)
    if (t.id == id) return &t;
  return nullptr;
}

SourceTrack& HierarchyClient::track_for(const SourceSyncPacket& p) {
  for (SourceTrack& t : tracks_)
    if (t.id == p.source_id) return t;
  SourceTrack t;
  t.id = p.source_id;
  tracks_.push_back(t);
  return tracks_.back();
}

double HierarchyClient::tick_ns() const {
  return to_ns_f(agent_.device().oscillator().nominal_period()) /
         static_cast<double>(agent_.params().counter_delta);
}

double HierarchyClient::extrapolate(const SourceTrack& t, fs_t now) const {
  const double elapsed_units = agent_.global_fractional_at(now) - t.fix_counter;
  return t.fix_utc + elapsed_units * tick_ns() * static_cast<double>(kFsPerNs);
}

double HierarchyClient::uncertainty_of(const SourceTrack& t, fs_t now) const {
  // claimed accuracy + measured dispersion + margin, plus rate-error growth
  // since the last accepted fix. Holdover is the same formula with an aging
  // fix: the bound grows linearly and never shrinks until a fix lands.
  const double age_ns = to_ns_f(std::max<fs_t>(0, now - t.last_accept));
  const double drift_ns = kHoldoverDriftPpm * 1e-6 * age_ns;
  const double ns =
      t.accuracy_ns + t.dispersion_ns + kBaseMarginNs + drift_ns;
  return ns * static_cast<double>(kFsPerNs);
}

bool HierarchyClient::stale(const SourceTrack& t, fs_t now) const {
  if (!t.have_fix) return true;
  const fs_t limit = t.inter_arrival > 0
                         ? static_cast<fs_t>(kStalenessFactor *
                                             static_cast<double>(t.inter_arrival))
                         : kStalenessFloor;
  return now - t.last_accept > limit;
}

bool HierarchyClient::usable(const SourceTrack& t, fs_t now) const {
  if (!t.have_fix) return false;
  if (now < t.quarantined_until) return false;
  return !stale(t, now);
}

const SourceTrack* HierarchyClient::select(fs_t now) const {
  // BMCA-lite: stratum, then quality (claimed accuracy + measured
  // dispersion), then the stable source-id tiebreak. Pure function of the
  // tracks, so serial and parallel runs agree bit for bit.
  const SourceTrack* best = nullptr;
  for (const SourceTrack& t : tracks_) {
    if (!usable(t, now)) continue;
    if (best == nullptr) {
      best = &t;
      continue;
    }
    const double tq = t.accuracy_ns + t.dispersion_ns;
    const double bq = best->accuracy_ns + best->dispersion_ns;
    if (t.stratum != best->stratum ? t.stratum < best->stratum
        : tq != bq               ? tq < bq
                                 : t.id < best->id)
      best = &t;
  }
  return best;
}

void HierarchyClient::observe_selection(const SourceTrack* best, fs_t now) {
  const int id = best != nullptr ? static_cast<int>(best->id) : -1;
  if (id == selected_id_) return;
  ++selection_changes_;
  if (auto* tr = obs::trace_of(host_.simulator().obs()))
    tr->instant_global(now, "hier:select " + host_.name() + " -> " +
                                (id < 0 ? std::string("holdover")
                                        : "source" + std::to_string(id)));
  selected_id_ = id;
  if (best != nullptr) holdover_id_ = id;
}

void HierarchyClient::handle_sync(const net::Frame& f, fs_t hw_rx) {
  auto pkt = std::dynamic_pointer_cast<const SourceSyncPacket>(f.packet);
  if (!pkt || !pkt->stamped || agent_alive_.expired()) return;
  ++syncs_;
  SourceTrack& t = track_for(*pkt);
  t.stratum = pkt->stratum;
  t.accuracy_ns = pkt->accuracy_ns;

  const double rx_counter = agent_.global_fractional_at(hw_rx);
  const double owd_units = rx_counter - pkt->tx_dtp_counter;
  const double est = static_cast<double>(pkt->utc_at_tx) +
                     owd_units * tick_ns() * static_cast<double>(kFsPerNs);

  bool reject = false;
  // Falseticker screen 1 — self-consistency: the new sample against the
  // track's own last accepted fix, extrapolated along the DTP counter.
  // The allowance ages with the fix (same drift model as the uncertainty)
  // so a healed source is eventually re-admitted by this check alone.
  if (t.have_fix) {
    const double age_ns = to_ns_f(std::max<fs_t>(0, hw_rx - t.last_accept));
    const double allowed_ns = 2.0 * t.accuracy_ns + kFalsetickerMarginNs +
                              kHoldoverDriftPpm * 1e-6 * age_ns;
    if (std::abs(est - extrapolate(t, hw_rx)) > allowed_ns * static_cast<double>(kFsPerNs))
      reject = true;
  }
  // Falseticker screen 2 — cross-consistency: against the currently
  // selected source's timeline. Rejected samples never update a fix, so
  // even while a rogue is still *selected* its fix (and this check's
  // reference) remains the pre-lie truth; a persistent liar therefore
  // stays quarantined for as long as any truthful source keeps serving.
  if (!reject && selected_id_ >= 0 && static_cast<int>(t.id) != selected_id_) {
    const SourceTrack* sel = track(static_cast<std::uint32_t>(selected_id_));
    if (sel != nullptr && usable(*sel, hw_rx)) {
      const double lim = uncertainty_of(*sel, hw_rx) +
                         (t.accuracy_ns + kFalsetickerMarginNs) * static_cast<double>(kFsPerNs);
      if (std::abs(est - extrapolate(*sel, hw_rx)) > lim) reject = true;
    }
  }

  if (reject) {
    ++t.rejected;
    ++rejected_;
    if (++t.strikes >= kFalsetickerStrikes) {
      const fs_t until = hw_rx + kFalsetickerHolddown;
      if (until > t.quarantined_until) {
        if (t.quarantined_until <= hw_rx) {
          if (auto* tr = obs::trace_of(host_.simulator().obs()))
            tr->instant_global(hw_rx, "hier:quarantine " + host_.name() +
                                          " source" + std::to_string(t.id));
        }
        t.quarantined_until = until;
      }
    }
  } else {
    if (t.have_fix) {
      const double innov_ns =
          std::abs(est - extrapolate(t, hw_rx)) / static_cast<double>(kFsPerNs);
      // Decayed max of |innovation|: accepted steps inflate the dispersion
      // *before* the fix is used, so the uncertainty always covers them.
      t.dispersion_ns = std::max(t.dispersion_ns * 0.75, innov_ns);
      t.inter_arrival = hw_rx - t.last_accept;
    }
    t.strikes = 0;
    t.quarantined_until = 0;  // an accepted sample ends any quarantine
    t.fix_counter = rx_counter;
    t.fix_utc = est;
    t.last_accept = hw_rx;
    t.have_fix = true;
    ++t.accepted;
  }

  observe_selection(select(hw_rx), hw_rx);
}

ServedTime HierarchyClient::serve(fs_t now) {
  if (agent_alive_.expired()) {
    // The host crashed and its agent went with it: with no counter left to
    // extrapolate on, refuse for the rest of the run.
    last_ = ServedTime{};
    last_.status = HierarchyStatus::kUnavailable;
    return last_;
  }
  const SourceTrack* best = select(now);
  observe_selection(best, now);

  const SourceTrack* basis = best;
  if (basis == nullptr && holdover_id_ >= 0) {
    // Holdover: free-run on the last selected source's fix. The DTP counter
    // supplies the rate (it *is* the last disciplined rate); only the
    // island-vs-UTC rate error grows the bound.
    basis = track(static_cast<std::uint32_t>(holdover_id_));
    if (basis != nullptr && !basis->have_fix) basis = nullptr;
  }

  ServedTime out;
  if (basis == nullptr) {
    out.status = HierarchyStatus::kAcquiring;
    last_ = out;
    return out;
  }

  const double raw = extrapolate(*basis, now);
  double unc = uncertainty_of(*basis, now);
  out.status = best != nullptr ? HierarchyStatus::kLocked : HierarchyStatus::kHoldover;
  if (best != nullptr) {
    out.source_id = static_cast<int>(best->id);
    out.stratum = best->stratum;
  }

  double served = raw;
  if (have_served_) {
    // Monotone serving: never step backwards. When the raw estimate falls
    // behind what we already served (source switchover, heal after
    // holdover), keep advancing at a reduced rate and let the raw timeline
    // catch up; the slew gap is added to the reported uncertainty so the
    // bound stays honest while we converge.
    const double floor = served_utc_ + kMinServeRate * static_cast<double>(now - served_at_);
    if (raw < floor) {
      served = floor;
      unc += floor - raw;
    }
  }

  if (params_.holdover_ceiling > 0 &&
      unc > static_cast<double>(params_.holdover_ceiling)) {
    // Refusing beats serving a number we cannot bound. The ceiling applies
    // to the *full* reported uncertainty, slew gap included — a mid-holdover
    // counter re-INIT can drop the raw timeline milliseconds behind the
    // serving floor, and handing out a timestamp with a bound that wide is
    // exactly what the ceiling promises never happens (found by the stress
    // fuzzer). The ratchet state is left untouched; when a source returns,
    // serving resumes from a raw estimate ahead of the frozen value — still
    // no backward step.
    out.status = HierarchyStatus::kUnavailable;
    out.source_id = -1;
    out.stratum = 0;
    last_ = out;
    return out;
  }

  have_served_ = true;
  served_utc_ = served;
  served_at_ = now;

  out.available = true;
  out.utc = served;
  out.uncertainty = unc;
  last_ = out;
  return out;
}

// ---------------------------------------------------------------------------
// TimeHierarchy

UtcSourceServer& TimeHierarchy::add_server(sim::Simulator& sim, net::Host& host,
                                           Agent& agent, TimeSourceParams params) {
  servers_.push_back(std::make_unique<UtcSourceServer>(sim, host, agent, params));
  return *servers_.back();
}

HierarchyClient& TimeHierarchy::add_client(net::Host& host, Agent& agent,
                                           HierarchyParams params) {
  clients_.push_back(std::make_unique<HierarchyClient>(host, agent, params));
  return *clients_.back();
}

void TimeHierarchy::start() {
  for (auto& s : servers_) s->start();
  if (clients_.empty()) return;
  auto* m = obs::metrics_of(clients_.front()->host().simulator().obs());
  if (m == nullptr) return;
  // Pull probes: evaluated on the coordinator at snapshot time, reading
  // state the last serve()/receive left behind — no worker-side writes.
  for (auto& c : clients_) {
    HierarchyClient* cl = c.get();
    const std::string base = "hier." + cl->host().name() + ".";
    m->probe(base + "uncertainty_ns", [cl] {
      const ServedTime& s = cl->last_served();
      return s.available ? s.uncertainty / static_cast<double>(kFsPerNs) : 0.0;
    });
    m->probe(base + "selected", [cl] {
      return static_cast<double>(cl->selected_source());
    });
    m->probe(base + "selection_changes", [cl] {
      return static_cast<double>(cl->selection_changes());
    });
    m->probe(base + "status", [cl] {
      return static_cast<double>(static_cast<int>(cl->status()));
    });
  }
}

UtcSourceServer* TimeHierarchy::server_on(const std::string& host_name) {
  for (auto& s : servers_)
    if (s->host().name() == host_name) return s.get();
  return nullptr;
}

HierarchyClient* TimeHierarchy::client_on(const std::string& host_name) {
  for (auto& c : clients_)
    if (c->host().name() == host_name) return c.get();
  return nullptr;
}

}  // namespace dtpsim::dtp
