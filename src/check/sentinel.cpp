#include "check/sentinel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "dtp/daemon.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/watchdog.hpp"
#include "net/device.hpp"
#include "net/mac.hpp"
#include "obs/hub.hpp"
#include "phy/port.hpp"

namespace dtpsim::check {

namespace {
/// Consecutive all-synced samples before the offset monitor arms.
constexpr int kSettleSamples = 8;
/// Slack added to the FIFO crossing bound, as a fraction of one period
/// (covers the re-anchor quantization of a drifting oscillator).
constexpr double kFifoSlackFraction = 0.75;
/// Oscillator-error margin (ppm) for the counter-runaway bound, on top of
/// the network's configured ppm spread.
constexpr double kExtraPpmMargin = 100.0;
/// Cap on stored violations per kind (the rest are counted, not stored).
constexpr std::size_t kMaxStoredPerKind = 16;
}  // namespace

std::string RunDigest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// Per-port probe state. Each port's events run on one shard thread, so the
/// counters are thread-confined; only `owner->record` takes the lock.
struct Sentinel::PortMon {
  Sentinel* owner = nullptr;
  net::Device* dev = nullptr;
  phy::PhyPort* port = nullptr;
  std::size_t port_index = 0;
  std::string label;                 // "dev:port" for reports
  std::uint64_t tx_checks = 0;
  std::uint64_t fifo_checks = 0;
};

/// Per-device sampler state (coordinator-only).
struct Sentinel::DeviceMon {
  net::Device* dev = nullptr;
  const dtp::Agent* last_agent = nullptr;  // crash/restart => fresh baseline
  bool has_prev = false;
  WideCounter prev_gc;
  std::uint64_t prev_resets = 0;
};

/// Per-hierarchy-client sampler state (coordinator-only).
struct Sentinel::HierarchyMon {
  dtp::HierarchyClient* client = nullptr;
  bool has_prev = false;
  double prev_utc = 0.0;
  double prev_uncertainty = 0.0;
  fs_t prev_at = 0;
  dtp::HierarchyStatus prev_status = dtp::HierarchyStatus::kAcquiring;
};

/// Per-daemon timebase-page sampler state (coordinator-only).
struct Sentinel::TimebaseMon {
  const dtp::Daemon* daemon = nullptr;
};

/// Per-watchdog-watch sampler state (coordinator-only).
struct Sentinel::WatchdogMon {
  bool has_prev = false;
  int prev_attempts = 0;
  fs_t prev_backoff = 0;
  std::uint64_t prev_quarantines = 0;
  std::uint64_t prev_reinits = 0;
  bool was_disabled = false;
};

Sentinel::Sentinel(net::Network& net, dtp::DtpNetwork& dtp, SentinelParams params)
    : net_(net), dtp_(dtp), params_(params) {
  diameter_hops_ = net::hop_diameter(net_);
  offset_bound_ticks_ = params_.offset_bound_ticks > 0.0
                            ? params_.offset_bound_ticks
                            : 4.0 * static_cast<double>(diameter_hops_) + 1.0;

  for (net::Device* dev : net_.devices()) {
    device_mons_.push_back(DeviceMon{dev, nullptr, false, WideCounter{}, 0});
    for (std::size_t p = 0; p < dev->port_count(); ++p) {
      auto mon = std::make_unique<PortMon>();
      mon->owner = this;
      mon->dev = dev;
      mon->port = &dev->port(p);
      mon->port_index = p;
      mon->label = dev->name() + ":" + std::to_string(p);
      PortMon* m = mon.get();

      // Idle-restore / zero-overhead egress probe: a DTP message must fit
      // the 56-bit idle field exactly — a 57th bit would clobber the block
      // type byte and leak protocol bits into MAC-visible bytes.
      m->port->set_probe_control_tx([m](std::uint64_t bits56, fs_t tx_start) {
        ++m->tx_checks;
        if (bits56 >> 56 != 0) {
          m->owner->record(Violation{
              InvariantKind::kIdleRestore, tx_start, m->label,
              static_cast<double>(bits56 >> 56), 0.0,
              "control payload spilled past the 56-bit idle field"});
        }
      });

      // SyncFifo crossing envelope: visibility strictly after arrival and
      // within (pipeline + phase-wait + metastability + slack) periods.
      m->port->set_probe_control_rx([m](const phy::ControlRx& rx) {
        ++m->fifo_checks;
        const fs_t dt = rx.crossing.visible_time - rx.wire_arrival;
        const fs_t period = m->port->oscillator().period();
        const auto& fp = m->port->params().fifo;
        const double max_periods =
            static_cast<double>(fp.pipeline_cycles) + 2.0 + kFifoSlackFraction;
        const fs_t bound = static_cast<fs_t>(max_periods * static_cast<double>(period));
        if (dt <= 0 || dt > bound) {
          m->owner->record(Violation{InvariantKind::kFifoBound,
                                     rx.crossing.visible_time, m->label,
                                     static_cast<double>(dt), static_cast<double>(bound),
                                     "CDC crossing delay outside the SyncFifo envelope"});
        }
      });

      port_mons_.push_back(std::move(mon));
    }
  }

  sampler_ = std::make_unique<sim::PeriodicProcess>(
      net_.simulator(), params_.sample_period, [this] { sample(); },
      sim::EventCategory::kProbe);
  sampler_->start();
}

Sentinel::~Sentinel() {
  sampler_->stop();
  for (auto& m : port_mons_) {
    m->port->set_probe_control_tx(nullptr);
    m->port->set_probe_control_rx(nullptr);
  }
}

void Sentinel::set_hierarchy(dtp::TimeHierarchy* hierarchy) {
  hierarchy_ = hierarchy;
  hier_mons_.clear();
  if (hierarchy_ == nullptr) return;
  for (const auto& c : hierarchy_->clients())
    hier_mons_.push_back(HierarchyMon{c.get()});
}

void Sentinel::set_watchdog(const dtp::HealthWatchdog* watchdog) {
  watchdog_ = watchdog;
  watchdog_mons_.clear();
  if (watchdog_ != nullptr) watchdog_mons_.resize(watchdog_->watch_count());
}

void Sentinel::watch_timebase(const dtp::Daemon* daemon) {
  if (daemon != nullptr) timebase_mons_.push_back(TimebaseMon{daemon});
}

void Sentinel::add_blackout(fs_t from, fs_t until) {
  blackouts_.emplace_back(from, until);
}

bool Sentinel::in_blackout(fs_t t) const {
  for (const auto& [from, until] : blackouts_)
    if (t >= from && t < until) return true;
  return false;
}

void Sentinel::record(Violation v) {
  // Every violation is also a global trace instant when a hub traces. Trace
  // first (its own lock): worker-thread probes report here too, and nesting
  // the sink's mutex inside mu_ would create an avoidable ordering.
  if (auto* tr = obs::trace_of(net_.simulator().obs()))
    tr->instant_global(v.at, std::string("violation:") + invariant_name(v.kind) +
                                 (v.device.empty() ? "" : " " + v.device));
  std::lock_guard<std::mutex> lock(mu_);
  auto& count = violation_counts_[static_cast<int>(v.kind)];
  ++count;
  if (count <= kMaxStoredPerKind) violations_.push_back(std::move(v));
}

void Sentinel::report(Violation v) { record(std::move(v)); }

std::vector<Violation> Sentinel::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Violation> out = violations_;
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    return a.device < b.device;
  });
  return out;
}

std::uint64_t Sentinel::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (auto c : violation_counts_) total += c;
  return total;
}

SentinelStats Sentinel::stats() const {
  SentinelStats out = stats_;
  for (const auto& m : port_mons_) {
    out.tx_probe_checks += m->tx_checks;
    out.fifo_probe_checks += m->fifo_checks;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t stored = violations_.size(), total = 0;
  for (auto c : violation_counts_) total += c;
  out.suppressed_violations = total - stored;
  return out;
}

void Sentinel::sample() {
  const fs_t now = net_.simulator().now();
  ++stats_.samples;
  check_monotonic(now);
  check_offsets(now);
  check_overhead(now);
  check_wrap_and_rate(now);
  check_hierarchy(now);
  check_watchdog(now);
  check_timebase(now);
}

void Sentinel::check_timebase(fs_t now) {
  for (TimebaseMon& m : timebase_mons_) {
    const dtp::Daemon* d = m.daemon;
    const dtp::TimebaseSample s = d->timebase_sample(now);
    // Every page read is observable output: fold it into the digest so the
    // serving layer joins the serial-vs-parallel differential.
    auto mix_double = [this](double v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      offsets_digest_.mix(bits);
    };
    offsets_digest_.mix(static_cast<std::uint64_t>(s.units));
    mix_double(s.frac);
    mix_double(s.uncertainty_units);
    offsets_digest_.mix((static_cast<std::uint64_t>(s.epoch) << 2) |
                        (s.valid ? 2u : 0u) | (s.stale ? 1u : 0u));
    if (!s.valid || s.stale) continue;
    // Honesty: a fresh snapshot's uncertainty must cover the true counter
    // error. Stale pages are exempt (the flag is the admission) and fault
    // windows are blacked out like the offset monitor — a rogue oscillator
    // moves the truth in ways no poll-time analysis can bound.
    if (in_blackout(now)) continue;
    ++stats_.timebase_checks;
    const dtp::Agent& agent = d->agent();
    const auto truth_units = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(agent.global_at(now).value()) &
        0x7FFF'FFFF'FFFF'FFFFULL);
    const double err =
        std::abs(static_cast<double>(s.units - truth_units) + s.frac -
                 agent.phase_units_at(now));
    if (err > s.uncertainty_units) {
      record(Violation{InvariantKind::kTimebaseUncertainty, now,
                       agent.device().name(), err, s.uncertainty_units,
                       "timebase page uncertainty understated the true "
                       "counter error (units)"});
    }
  }
}

void Sentinel::check_watchdog(fs_t now) {
  if (watchdog_ == nullptr) return;
  const int ceiling = watchdog_->params().max_reinit_attempts;
  for (std::size_t i = 0; i < watchdog_mons_.size(); ++i) {
    WatchdogMon& m = watchdog_mons_[i];
    const dtp::WatchdogPortStats& ws = watchdog_->watch_stats(i);
    const std::string& label = watchdog_->watch_label(i);
    ++stats_.watchdog_checks;
    if (ws.attempts > ceiling) {
      record(Violation{InvariantKind::kWatchdogRemediation, now, label,
                       static_cast<double>(ws.attempts),
                       static_cast<double>(ceiling),
                       "re-INIT attempts exceeded the escalation ceiling"});
    }
    if (m.has_prev) {
      // Each backoff computed while an episode is live (attempts carried
      // over from a prior re-INIT) must be strictly longer than the last —
      // the no-flap-loop guarantee. A fresh episode (attempts reset to 0 on
      // a clean probation) legitimately restarts at the base backoff, and
      // the quarantine that became a disable never draws a backoff at all.
      if (ws.quarantines > m.prev_quarantines && ws.disables == 0 &&
          ws.attempts > 0 &&
          ws.attempts == m.prev_attempts &&
          ws.last_backoff <= m.prev_backoff) {
        record(Violation{InvariantKind::kWatchdogRemediation, now, label,
                         static_cast<double>(ws.last_backoff),
                         static_cast<double>(m.prev_backoff),
                         "episode backoff did not grow monotonically"});
      }
      if (m.was_disabled && ws.reinits > m.prev_reinits) {
        record(Violation{InvariantKind::kWatchdogRemediation, now, label,
                         static_cast<double>(ws.reinits),
                         static_cast<double>(m.prev_reinits),
                         "a disabled port was re-INITed (disable must be final)"});
      }
    }
    m.has_prev = true;
    m.prev_attempts = ws.attempts;
    m.prev_backoff = ws.last_backoff;
    m.prev_quarantines = ws.quarantines;
    m.prev_reinits = ws.reinits;
    m.was_disabled =
        m.was_disabled || watchdog_->watch_health(i) == dtp::PortHealth::kDisabled;
  }
}

void Sentinel::check_hierarchy(fs_t now) {
  for (HierarchyMon& m : hier_mons_) {
    const dtp::ServedTime st = m.client->serve(now);
    const std::string name = m.client->host().name();
    // The served timeline is observable output: fold it into the digest so
    // a selection or holdover divergence between thread counts is caught.
    auto mix_double = [this](double v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      offsets_digest_.mix(bits);
    };
    offsets_digest_.mix(static_cast<std::uint64_t>(st.status));
    offsets_digest_.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(st.source_id)));
    if (st.available) {
      mix_double(st.utc);
      mix_double(st.uncertainty);
    }
    if (!st.available) {
      m.prev_status = st.status;
      continue;
    }
    ++stats_.utc_checks;
    // Backstep: never legal, fault window or not — a consumer that already
    // read the earlier timestamp cannot be un-told.
    if (m.has_prev && st.utc < m.prev_utc) {
      record(Violation{InvariantKind::kUtcBackstep, now, name,
                       st.utc - m.prev_utc, 0.0,
                       "served UTC stepped backwards across samples"});
    }
    // Honesty: true UTC is simulator time; the served interval must cover
    // the truth. Also never blacked out — an uncertainty that understates
    // the error *during* a fault is exactly the lie holdover must not tell.
    const double err = std::abs(st.utc - static_cast<double>(now));
    if (err > st.uncertainty) {
      record(Violation{InvariantKind::kUtcUncertainty, now, name,
                       err * 1e-6, st.uncertainty * 1e-6,
                       "served uncertainty understated the true UTC error (ns)"});
    }
    // Holdover uncertainty must grow with age. A decaying slew gap may
    // shrink it by at most the raw-timeline advance, so anything dropping
    // faster than elapsed time is a monitor-worthy reset-to-confident bug.
    if (m.has_prev && m.prev_status == dtp::HierarchyStatus::kHoldover &&
        st.status == dtp::HierarchyStatus::kHoldover) {
      const double allowed_drop =
          1.001 * static_cast<double>(now - m.prev_at);
      if (m.prev_uncertainty - st.uncertainty > allowed_drop) {
        record(Violation{InvariantKind::kUtcUncertainty, now, name,
                         st.uncertainty * 1e-6, m.prev_uncertainty * 1e-6,
                         "holdover uncertainty shrank while free-running (ns)"});
      }
    }
    m.has_prev = true;
    m.prev_utc = st.utc;
    m.prev_uncertainty = st.uncertainty;
    m.prev_at = now;
    m.prev_status = st.status;
  }
}

void Sentinel::check_monotonic(fs_t now) {
  for (DeviceMon& m : device_mons_) {
    const dtp::Agent* agent = dtp_.agent_of(m.dev);
    if (agent == nullptr || agent != m.last_agent) {
      // Crashed / restarted / newly attached: fresh baseline.
      m.last_agent = agent;
      m.has_prev = false;
      if (agent == nullptr) continue;
    }
    const WideCounter gc = agent->global_at(now);
    const std::uint64_t resets = agent->counter_resets();
    if (m.has_prev && resets == m.prev_resets) {
      ++stats_.monotonic_checks;
      const __int128 d = gc.diff(m.prev_gc);
      if (d < 0) {
        record(Violation{InvariantKind::kClockMonotonic, now, m.dev->name(),
                         static_cast<double>(d), 0.0,
                         "global counter decreased with no reset: prev=" +
                             m.prev_gc.to_string() + " now=" + gc.to_string()});
      }
    }
    m.prev_gc = gc;
    m.prev_resets = resets;
    m.has_prev = true;
  }
}

void Sentinel::check_offsets(fs_t now) {
  // The bound only holds once every device is synced and the network has
  // been stable for a few samples; fault windows re-start the clock.
  bool settled = dtp_.size() > 0 && !in_blackout(now);
  const dtp::Agent* ref = nullptr;
  if (settled) {
    for (const DeviceMon& m : device_mons_) {
      const dtp::Agent* agent = dtp_.agent_of(m.dev);
      if (agent == nullptr) {
        settled = false;
        break;
      }
      if (ref == nullptr) ref = agent;
      for (std::size_t p = 0; p < agent->port_count(); ++p)
        if (agent->port_logic(p).state() != dtp::PortState::kSynced) {
          settled = false;
          break;
        }
      if (!settled) break;
    }
  }
  settled_streak_ = settled ? settled_streak_ + 1 : 0;
  if (ref == nullptr) return;

  // Fold the exact offsets into the digest every sample (settled or not):
  // this is the trace the serial-vs-parallel differential compares.
  double lo = 0.0, hi = 0.0;
  for (const DeviceMon& m : device_mons_) {
    const dtp::Agent* agent = dtp_.agent_of(m.dev);
    if (agent == nullptr) continue;
    const __int128 units = agent->global_at(now).diff(ref->global_at(now));
    offsets_digest_.mix_i128(units);
    const double frac = dtp::true_offset_fractional(*agent, *ref, now);
    lo = std::min(lo, frac);
    hi = std::max(hi, frac);
  }

  if (settled_streak_ < kSettleSamples) return;
  ++stats_.offset_checks;
  const double delta = static_cast<double>(ref->params().counter_delta);
  const double spread_ticks = (hi - lo) / delta;
  if (spread_ticks > offset_bound_ticks_) {
    record(Violation{InvariantKind::kOffsetBound, now, "",
                     spread_ticks, offset_bound_ticks_,
                     "max pairwise offset exceeded 4TD while settled"});
  }
}

void Sentinel::check_overhead(fs_t now) {
  // Zero packet overhead (§4.2/§4.4): DTP must never manufacture or consume
  // MAC frames. Every frame the PHY serialized must be one the MAC sent.
  for (const auto& m : port_mons_) {
    ++stats_.overhead_checks;
    const std::uint64_t phy_frames = m->port->frames_sent();
    const std::uint64_t mac_frames = m->dev->mac(m->port_index).stats().tx_frames;
    if (phy_frames != mac_frames) {
      record(Violation{InvariantKind::kZeroOverhead, now, m->label,
                       static_cast<double>(phy_frames), static_cast<double>(mac_frames),
                       "PHY frame count diverged from MAC frame count"});
    }
  }
}

void Sentinel::check_wrap_and_rate(fs_t now) {
  // Reference agent for both checks: first live agent in device order.
  const dtp::Agent* ref = nullptr;
  for (const DeviceMon& m : device_mons_)
    if ((ref = dtp_.agent_of(m.dev)) != nullptr) break;
  if (ref == nullptr) return;

  // Wrap self-check: reconstructing a nearby counter from its 53-bit BEACON
  // payload must land exactly, including across the 2^53 / 2^106 seams.
  ++stats_.wrap_checks;
  const WideCounter gc = ref->global_at(now);
  for (std::uint64_t ahead : {std::uint64_t{1}, std::uint64_t{200} * ref->params().counter_delta}) {
    const WideCounter peer = gc.plus(ahead);
    const WideCounter rebuilt = gc.reconstruct_from_lsb(peer.lsb53());
    if (rebuilt.diff(peer) != 0) {
      record(Violation{InvariantKind::kCounterWrap, now, ref->device().name(),
                       static_cast<double>(static_cast<__int128>(rebuilt.diff(peer))),
                       0.0, "reconstruct_from_lsb missed near " + gc.to_string()});
    }
  }

  // Counter-runaway: the fastest any counter may legally advance is the
  // fastest oscillator in the network plus measurement slack. A fast-forward
  // bug (e.g. broken wrap compare) shows up here as a superluminal jump.
  WideCounter net_max = gc;
  for (const DeviceMon& m : device_mons_) {
    const dtp::Agent* agent = dtp_.agent_of(m.dev);
    if (agent == nullptr) continue;
    net_max = max(net_max, agent->global_at(now));
  }
  if (have_net_max_ && !in_blackout(now) && !in_blackout(prev_net_max_at_)) {
    ++stats_.rate_checks;
    const fs_t elapsed = now - prev_net_max_at_;
    const double nominal = static_cast<double>(ref->device().oscillator().nominal_period());
    const double ppm = net_.params().ppm_spread + kExtraPpmMargin;
    const double max_ticks = static_cast<double>(elapsed) / (nominal * (1.0 - ppm * 1e-6));
    const double delta = static_cast<double>(ref->params().counter_delta);
    const double bound = (max_ticks + 4.0) * delta;
    const double advance = static_cast<double>(net_max.diff(prev_net_max_));
    if (advance > bound) {
      record(Violation{InvariantKind::kCounterRunaway, now, "",
                       advance, bound,
                       "network-max counter advanced faster than any oscillator"});
    }
  }
  prev_net_max_ = net_max;
  prev_net_max_at_ = now;
  have_net_max_ = true;
}

RunDigest Sentinel::digest() const {
  RunDigest d = offsets_digest_;
  const sim::SimStats st = net_.simulator().stats();
  d.mix(st.scheduled);
  d.mix(st.executed);
  d.mix(st.cancelled);
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i)
    d.mix(st.executed_by_category[i]);
  for (const auto& m : port_mons_) {
    d.mix(m->port->frames_sent());
    d.mix(m->port->control_blocks_sent());
    // CDC activity pins the bridged engine's RNG stream positions: a fused
    // arrival that drew its metastability sample at the wrong point shows up
    // here even when every message still lands on the right tick.
    d.mix(m->port->fifo_crossings());
    d.mix(m->port->fifo_extra_cycles());
  }
  for (const DeviceMon& m : device_mons_) {
    const dtp::Agent* agent = dtp_.agent_of(m.dev);
    if (agent == nullptr) {
      d.mix(~0ULL);
      continue;
    }
    d.mix(agent->global_adjustments());
    d.mix(agent->counter_resets());
  }
  for (const HierarchyMon& m : hier_mons_) {
    d.mix(m.client->syncs_received());
    d.mix(m.client->samples_rejected());
    d.mix(m.client->selection_changes());
    d.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(m.client->selected_source())));
  }
  if (watchdog_ != nullptr) {
    // The full escalation history per watch: a single off-by-one strike or a
    // different backoff draw between thread counts shows up immediately.
    for (std::size_t i = 0; i < watchdog_->watch_count(); ++i) {
      const dtp::WatchdogPortStats& ws = watchdog_->watch_stats(i);
      d.mix(ws.windows);
      d.mix(ws.strikes);
      d.mix(ws.suspects);
      d.mix(ws.quarantines);
      d.mix(ws.reinits);
      d.mix(ws.disables);
      d.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ws.attempts)));
      d.mix(static_cast<std::uint64_t>(ws.last_backoff));
      d.mix(static_cast<std::uint64_t>(watchdog_->watch_health(i)));
    }
  }
  return d;
}

}  // namespace dtpsim::check
