#include "dtp/watchdog.hpp"

#include <algorithm>
#include <string>

#include "net/device.hpp"
#include "obs/hub.hpp"

namespace dtpsim::dtp {

namespace {
/// Sibling cross-check bound, in ticks: ports on one device share the
/// oscillator, so their local counters must agree within roughly
/// 2 * max_beacon_offset_ticks of each other (each port tracks its peer with
/// at most the range-filter bias) plus CDC slack. A port lagging the best
/// sibling by more than this is struck.
constexpr double kSiblingBoundTicks = 12.0;

/// Gate events within one window needed to call the window a strike (a
/// single outlier is CDC noise, a burst is a failing lane).
constexpr int kMinGateEvents = 2;

/// Consecutive strike windows before a suspect port is quarantined.
constexpr int kSuspectStrikes = 2;

/// Post-join grace. When a device adopts a join-sized forward jump (a
/// partition heals, a quarantined subtree re-joins, an operator sets the
/// counter), every peer that has not heard the announce wave yet looks stale
/// and sibling ports transiently diverge — the max-discipline converging,
/// not damage. Windows overlapping this long a shadow after the device's
/// last such jump skip the staleness and sibling signals; the counter-stall
/// signal stays live (a frozen register is frozen regardless of who jumped).
constexpr fs_t kJumpShadow = from_us(10);
}  // namespace

const char* to_string(PortHealth h) {
  switch (h) {
    case PortHealth::kHealthy: return "HEALTHY";
    case PortHealth::kSuspect: return "SUSPECT";
    case PortHealth::kQuarantined: return "QUARANTINED";
    case PortHealth::kProbation: return "PROBATION";
    case PortHealth::kDisabled: return "DISABLED";
  }
  return "?";
}

/// Per-port watch state. Everything here is coordinator-confined: the one
/// periodic sampler both reads and writes it.
struct HealthWatchdog::Mon {
  net::Device* dev = nullptr;
  std::size_t port_index = 0;
  std::string label;  ///< "dev:port" for verdicts and traces
  Rng rng;            ///< deterministic backoff-jitter stream

  const Agent* last_agent = nullptr;  ///< crash/restart => fresh baseline
  PortHealth health = PortHealth::kHealthy;
  bool has_prev = false;
  WideCounter prev_lc;
  std::uint64_t prev_gate = 0;
  int strike_streak = 0;  ///< consecutive struck windows
  int clean_streak = 0;   ///< consecutive clean windows (probation progress)
  fs_t reinit_due = -1;   ///< when the scheduled re-INIT fires; -1 = none
  WatchdogPortStats stats;
};

HealthWatchdog::HealthWatchdog(net::Network& net, DtpNetwork& dtp,
                               WatchdogParams params, std::uint64_t seed)
    : net_(net), dtp_(dtp), params_(params) {
  Rng root(seed);
  for (net::Device* dev : net_.devices()) {
    for (std::size_t p = 0; p < dev->port_count(); ++p) {
      auto mon = std::make_unique<Mon>();
      mon->dev = dev;
      mon->port_index = p;
      mon->label = dev->name() + ":" + std::to_string(p);
      // Fork per watch slot in construction order: the jitter stream depends
      // only on (seed, slot), never on which ports get quarantined first.
      mon->rng = root.fork(mons_.size() + 1);
      mons_.push_back(std::move(mon));
    }
  }
  sampler_ = std::make_unique<sim::PeriodicProcess>(
      net_.simulator(), params_.check_period, [this] { sample(); },
      sim::EventCategory::kProbe);
  sampler_->start();
}

HealthWatchdog::~HealthWatchdog() { sampler_->stop(); }

const std::string& HealthWatchdog::watch_label(std::size_t i) const {
  return mons_.at(i)->label;
}

PortHealth HealthWatchdog::watch_health(std::size_t i) const {
  return mons_.at(i)->health;
}

const WatchdogPortStats& HealthWatchdog::watch_stats(std::size_t i) const {
  return mons_.at(i)->stats;
}

std::size_t HealthWatchdog::find_watch(const std::string& device,
                                       std::size_t port) const {
  for (std::size_t i = 0; i < mons_.size(); ++i)
    if (mons_[i]->dev->name() == device && mons_[i]->port_index == port)
      return i;
  return static_cast<std::size_t>(-1);
}

std::uint64_t HealthWatchdog::total_suspects() const {
  std::uint64_t n = 0;
  for (const auto& m : mons_) n += m->stats.suspects;
  return n;
}

std::uint64_t HealthWatchdog::total_quarantines() const {
  std::uint64_t n = 0;
  for (const auto& m : mons_) n += m->stats.quarantines;
  return n;
}

std::uint64_t HealthWatchdog::total_reinits() const {
  std::uint64_t n = 0;
  for (const auto& m : mons_) n += m->stats.reinits;
  return n;
}

std::uint64_t HealthWatchdog::total_disables() const {
  std::uint64_t n = 0;
  for (const auto& m : mons_) n += m->stats.disables;
  return n;
}

void HealthWatchdog::note(const Mon& m, fs_t now, const std::string& what) {
  if (auto* tr = obs::trace_of(net_.simulator().obs()))
    tr->instant_global(now, "wd:" + what + " " + m.label);
}

void HealthWatchdog::count(const char* metric) {
  if (auto* reg = obs::metrics_of(net_.simulator().obs())) reg->add(reg->counter(metric));
}

void HealthWatchdog::sample() {
  const fs_t now = net_.simulator().now();
  for (auto& mon : mons_) {
    Mon& m = *mon;
    Agent* agent = dtp_.agent_of(m.dev);
    if (agent != m.last_agent) {
      // Crashed / restarted / newly attached: new hardware, fresh episode.
      m.last_agent = agent;
      m.has_prev = false;
      m.health = PortHealth::kHealthy;
      m.strike_streak = 0;
      m.clean_streak = 0;
      m.reinit_due = -1;
      m.stats.attempts = 0;
      if (agent == nullptr) continue;
      agent->port_logic(m.port_index)
          .set_plausibility_gate(static_cast<std::int64_t>(
              params_.plausible_delta_ticks *
              static_cast<double>(agent->params().counter_delta)));
    }
    if (agent == nullptr) continue;
    // The watchdog's signals assume peer-max discipline: a master-tree agent
    // deliberately lets non-parent ports free-run (their beacons are ignored),
    // so sibling divergence there is design, not damage.
    if (agent->params().mode != SyncMode::kPeerMax) continue;
    evaluate(m, now);
  }
}

void HealthWatchdog::evaluate(Mon& m, fs_t now) {
  Agent& agent = *dtp_.agent_of(m.dev);
  PortLogic& pl = agent.port_logic(m.port_index);

  switch (m.health) {
    case PortHealth::kDisabled:
      // A disable is final: if anything (operator override, link bounce past
      // the cooldown) revived the port, put it back down.
      if (pl.state() != PortState::kFaulty) pl.quarantine(now);
      return;
    case PortHealth::kQuarantined:
      if (m.reinit_due >= 0 && now >= m.reinit_due) fire_reinit(m, now);
      return;
    default:
      break;
  }

  // Healthy / suspect / probation: evaluate this window's signals. Only a
  // SYNCED port makes measurable claims; across non-synced gaps the advance
  // baseline is meaningless, so it re-arms.
  if (pl.state() != PortState::kSynced) {
    m.has_prev = false;
    return;
  }
  const WideCounter lc = pl.local_at(now);
  const std::uint64_t gate = pl.wd_gate_events();
  const bool had_prev = m.has_prev;
  bool struck = false;
  const char* why = nullptr;

  if (had_prev) {
    ++m.stats.windows;
    const auto delta = static_cast<double>(agent.params().counter_delta);
    // A join-sized forward jump of this device's gc (partition heal, a
    // quarantined subtree re-joining) makes every peer that has not heard
    // the announce wave yet look stale, and siblings diverge until the wave
    // has crossed each link. Windows overlapping the jump's shadow skip the
    // staleness and sibling signals — but never the stall signal.
    const bool jump_shadowed =
        agent.last_join_jump_at() >= 0 &&
        now - agent.last_join_jump_at() <=
            params_.check_period + kJumpShadow &&
        agent.last_join_jump_units() > 2 * agent.params().counter_delta;
    if (lc.diff(m.prev_lc) <= 0) {
      struck = true;
      why = "counter stalled";
    }
    if (!struck && !jump_shadowed &&
        gate - m.prev_gate >= static_cast<std::uint64_t>(kMinGateEvents)) {
      struck = true;
      why = "implausibly stale beacons";
    }
    if (!struck && !jump_shadowed) {
      // Sibling cross-check: all ports of the device share one oscillator,
      // so lagging the best sibling beyond the bound means this port's view
      // of its peer went lame while the siblings' stayed live.
      const auto bound = static_cast<__int128>(kSiblingBoundTicks * delta);
      for (std::size_t p = 0; p < agent.port_count(); ++p) {
        if (p == m.port_index) continue;
        const PortLogic& sib = agent.port_logic(p);
        if (sib.state() != PortState::kSynced) continue;
        if (sib.local_at(now).diff(lc) > bound) {
          struck = true;
          why = "lagging sibling ports";
          break;
        }
      }
    }
  }

  m.prev_lc = lc;
  m.prev_gate = gate;
  m.has_prev = true;
  if (!had_prev) return;  // first synced window only arms the baseline

  if (struck)
    strike(m, now, why);
  else
    clean_window(m);
}

void HealthWatchdog::strike(Mon& m, fs_t now, const char* why) {
  ++m.stats.strikes;
  m.clean_streak = 0;
  ++m.strike_streak;

  if (m.health == PortHealth::kProbation) {
    // Relapse: the fault is still there. Straight back to quarantine — the
    // attempt counter kept its value, so the next backoff is strictly longer.
    enter_quarantine(m, now, why);
    return;
  }
  if (m.health == PortHealth::kHealthy) {
    m.health = PortHealth::kSuspect;
    ++m.stats.suspects;
    m.stats.suspected_at = now;
    if (m.stats.first_suspected_at < 0) m.stats.first_suspected_at = now;
    count("wd.suspects");
    note(m, now, std::string("suspect (") + why + ")");
  }
  if (m.strike_streak >= kSuspectStrikes)
    enter_quarantine(m, now, why);
}

void HealthWatchdog::clean_window(Mon& m) {
  m.strike_streak = 0;
  if (m.health == PortHealth::kSuspect) {
    // One clean window clears a suspicion that never reached quarantine.
    m.health = PortHealth::kHealthy;
    return;
  }
  if (m.health == PortHealth::kProbation &&
      ++m.clean_streak >= params_.probation_windows) {
    // Only a full clean probation ends the episode; a short clean streak
    // between relapses never resets the attempt counter, so the backoff
    // keeps growing — the no-flap-loop guarantee.
    m.health = PortHealth::kHealthy;
    m.clean_streak = 0;
    m.stats.attempts = 0;
  }
}

void HealthWatchdog::enter_quarantine(Mon& m, fs_t now, const char* why) {
  Agent& agent = *dtp_.agent_of(m.dev);
  agent.port_logic(m.port_index).quarantine(now);
  m.health = PortHealth::kQuarantined;
  ++m.stats.quarantines;
  m.strike_streak = 0;
  m.clean_streak = 0;
  m.has_prev = false;
  count("wd.quarantines");

  if (m.stats.attempts >= params_.max_reinit_attempts) {
    m.health = PortHealth::kDisabled;
    ++m.stats.disables;
    m.reinit_due = -1;
    verdicts_.push_back(WatchdogVerdict{
        m.dev->name(), m.port_index, now,
        std::string(why) + " persisted through " +
            std::to_string(m.stats.attempts) + " re-INIT attempts"});
    count("wd.disables");
    note(m, now, std::string("disable (") + why + ")");
    return;
  }

  // Exponential backoff with deterministic jitter: attempt k waits
  // base * 2^k + U[0, base/4). Strictly monotone within the episode:
  // base*2^(k+1) >= base*2^k + base > base*2^k + jitter.
  const fs_t base = params_.reinit_backoff;
  fs_t backoff = base << m.stats.attempts;
  const fs_t span = base / 4;
  if (span > 0) backoff += static_cast<fs_t>(
      m.rng.uniform(static_cast<std::uint64_t>(span)));
  m.stats.last_backoff = backoff;
  m.reinit_due = now + backoff;
  note(m, now, std::string("quarantine (") + why + ")");
}

void HealthWatchdog::fire_reinit(Mon& m, fs_t now) {
  Agent& agent = *dtp_.agent_of(m.dev);
  ++m.stats.attempts;
  ++m.stats.reinits;
  m.reinit_due = -1;
  m.health = PortHealth::kProbation;
  m.clean_streak = 0;
  m.has_prev = false;
  count("wd.reinits");
  note(m, now,
       "reinit attempt=" + std::to_string(m.stats.attempts));
  agent.port_logic(m.port_index).reinit();
}

}  // namespace dtpsim::dtp
