#include "chaos/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "chaos/serialize.hpp"
#include "dtp/daemon.hpp"
#include "dtp/hierarchy.hpp"
#include "obs/hub.hpp"
#include "obs/json.hpp"

namespace dtpsim::chaos {

namespace {
/// Reconvergence criterion: worst neighbor offset back within this many
/// ticks (±4T is the paper's one-hop bound, Section 3.3).
constexpr double kConvergeThresholdTicks = 4;
constexpr int kConsecutiveOk = 3;  ///< samples in a row under the threshold
}  // namespace

ChaosEngine::ChaosEngine(net::Network& net, dtp::DtpNetwork& dtp)
    : net_(net), dtp_(dtp), sim_(net.simulator()) {
  const auto devices = net_.devices();
  if (devices.empty()) throw std::invalid_argument("ChaosEngine: empty network");
  for (net::Device* dev : devices)
    for (std::size_t p = 0; p < dev->port_count(); ++p) port_owner_[&dev->port(p)] = dev;
  for (const auto& cable : net_.cables()) {
    if (!cable->connected()) continue;
    Link l;
    l.a = &cable->port_a();
    l.b = &cable->port_b();
    l.dev_a = owner_of(l.a);
    l.dev_b = owner_of(l.b);
    l.cable = cable.get();
    links_.push_back(l);
  }
  // The beacon interval in simulator time — the unit recovery is reported
  // in. Ticks are nominal (every device's grid is within ±100 ppm of this).
  beacon_interval_ = static_cast<fs_t>(dtp_.params().beacon_interval_ticks) *
                     devices.front()->oscillator().nominal_period();
}

net::Device* ChaosEngine::owner_of(const phy::PhyPort* port) const {
  auto it = port_owner_.find(port);
  return it == port_owner_.end() ? nullptr : it->second;
}

dtp::PortLogic* ChaosEngine::port_logic_at(phy::PhyPort* port) const {
  net::Device* dev = owner_of(port);
  dtp::Agent* a = dev ? dtp_.agent_of(dev) : nullptr;
  if (!a) return nullptr;
  for (std::size_t p = 0; p < a->port_count(); ++p)
    if (&a->port_logic(p).phy_port() == port) return &a->port_logic(p);
  return nullptr;
}

ChaosEngine::Link* ChaosEngine::link_between(const net::Device& a, const net::Device& b) {
  for (Link& l : links_) {
    if ((l.dev_a == &a && l.dev_b == &b) || (l.dev_a == &b && l.dev_b == &a)) return &l;
  }
  return nullptr;
}

void ChaosEngine::mark(const std::string& name) const {
  if (auto* tr = hub_ != nullptr ? hub_->trace() : nullptr)
    tr->instant_global(sim_.now(), name);
}

void ChaosEngine::record_result(const ProbeResult& r) {
  report_.add(r);
  --faults_pending_;
  if (hub_ == nullptr) return;
  if (auto* m = hub_->metrics()) {
    m->add(m->counter("chaos.faults_recovered"));
    if (r.converged)
      m->observe(m->histogram("chaos.reconverge_beacons"), r.reconverge_beacons);
  }
  if (auto* tr = hub_->trace()) {
    std::string args = "\"reconverge_beacons\": " + obs::json_double(r.reconverge_beacons) +
                       ", \"residual_ticks\": " + obs::json_double(r.residual_ticks);
    tr->instant_global(sim_.now(),
                       (r.converged ? "recovered:" : "recovery-timeout:") + r.fault_class,
                       args);
  }
}

void ChaosEngine::take_link_down(Link& link) {
  if (!link.up) return;
  mark("fault:link_down " + link.dev_a->name() + "-" + link.dev_b->name());
  link.cable->disconnect();
  link.up = false;
}

void ChaosEngine::bring_link_up(Link& link) {
  if (link.up) return;
  mark("heal:link_up " + link.dev_a->name() + "-" + link.dev_b->name());
  // A replug is a fresh cable (Network-owned); transient impairments on the
  // old one (BER bursts, control drops) do not survive the swap.
  link.cable = &net_.connect_ports(*link.a, *link.b);
  link.up = true;
}

void ChaosEngine::crash_node(net::Device& dev) {
  mark("fault:node_crash " + dev.name());
  // Agent first — an abrupt power-off does not gracefully observe its own
  // links dying (no counter-reset bookkeeping on the corpse).
  dtp_.remove_agent(dev);
  for (Link& l : links_)
    if (l.dev_a == &dev || l.dev_b == &dev) take_link_down(l);
}

void ChaosEngine::restart_node(net::Device& dev) {
  mark("heal:node_restart " + dev.name());
  for (Link& l : links_)
    if ((l.dev_a == &dev || l.dev_b == &dev) && !l.up) bring_link_up(l);
  // Fresh agent: counters at zero, INIT re-runs on every up link, and the
  // network counter is re-learned through BEACON-JOIN (Section 3.2).
  dtp_.attach_agent(dev);
}

ProbeSample ChaosEngine::neighbor_offsets(const std::vector<net::Device*>& affected) const {
  ProbeSample s;
  const fs_t t = sim_.now();
  const double delta = static_cast<double>(dtp_.params().counter_delta);
  bool any = false;
  bool missing = false;
  for (net::Device* dev : affected) {
    dtp::Agent* a = dtp_.agent_of(dev);
    if (!a) {
      missing = true;  // still powered off
      continue;
    }
    for (std::size_t p = 0; p < a->port_count(); ++p) {
      dtp::PortLogic& pl = a->port_logic(p);
      if (!pl.phy_port().link_up()) continue;
      // A port we quarantined does not count as a neighbor relation — its
      // peer is the fault (rogue isolation is *correct* divergence).
      if (pl.state() == dtp::PortState::kFaulty) continue;
      net::Device* peer_dev = owner_of(pl.phy_port().peer());
      dtp::Agent* b = peer_dev ? dtp_.agent_of(peer_dev) : nullptr;
      if (!b) continue;
      const double off = dtp::true_offset_fractional(*a, *b, t) / delta;
      any = true;
      s.worst_abs = std::max(s.worst_abs, std::abs(off));
      // The stall-ceiling check (Section 5.4) only applies to an established
      // relation: while a port is still in INIT a rejoiner's counter sits
      // legitimately far below its peers and the peer reads as "ahead".
      if (pl.state() == dtp::PortState::kSynced)
        s.worst_ahead = std::max(s.worst_ahead, off);
    }
  }
  s.valid = any && !missing;
  return s;
}

ProbeResult ChaosEngine::make_seed(const FaultSpec& spec, fs_t recovery_start) const {
  ProbeResult seed;
  seed.fault_class = fault_class_name(spec.kind);
  seed.label = spec.label;
  seed.injected_at = spec.at;
  seed.recovery_start = recovery_start;
  // Daemon-targeted faults have no device name to serialize.
  if (spec.kind != FaultKind::kPcieStorm) seed.repro = fault_to_line(spec);
  return seed;
}

void ChaosEngine::start_probe(const FaultSpec& spec, ProbeResult seed,
                              std::vector<net::Device*> affected) {
  RecoveryProbe::Params pp;
  pp.threshold_ticks = spec.probe_threshold_ticks > 0 ? spec.probe_threshold_ticks
                                                      : kConvergeThresholdTicks;
  pp.consecutive_ok = kConsecutiveOk;
  pp.sample_period =
      spec.probe_sample_period > 0 ? spec.probe_sample_period : probe_sample_period();
  pp.timeout = spec.probe_timeout > 0 ? spec.probe_timeout : probe_timeout();
  pp.beacon_interval = beacon_interval_;
  // Section 5.4: a recovering device may lag arbitrarily (it fast-forwards)
  // but must never run *ahead* of a neighbor past one beacon interval of
  // drift plus the stall slack.
  pp.stall_ceiling_ticks = static_cast<double>(dtp_.params().beacon_interval_ticks) + 4;
  probes_.push_back(std::make_unique<RecoveryProbe>(
      sim_, pp,
      [this, affected = std::move(affected)] { return neighbor_offsets(affected); },
      std::move(seed), [this](const ProbeResult& r) { record_result(r); }));
  probes_.back()->start();
}

void ChaosEngine::start_daemon_probe(const FaultSpec& spec, ProbeResult seed) {
  RecoveryProbe::Params pp;
  pp.threshold_ticks = spec.probe_threshold_ticks > 0 ? spec.probe_threshold_ticks : 16;
  pp.consecutive_ok = kConsecutiveOk;
  // The software clock only moves on daemon polls; sampling faster than the
  // poll period would just re-read the same extrapolation.
  pp.sample_period = spec.probe_sample_period > 0 ? spec.probe_sample_period
                                                  : spec.daemon->params().poll_period;
  pp.timeout = spec.probe_timeout > 0 ? spec.probe_timeout
                                      : 40 * spec.daemon->params().poll_period;
  pp.beacon_interval = beacon_interval_;
  pp.stall_ceiling_ticks = 0;  // not a network-layer probe
  dtp::Daemon* daemon = spec.daemon;
  probes_.push_back(std::make_unique<RecoveryProbe>(
      sim_, pp,
      [this, daemon] {
        ProbeSample s;
        // A stale anchor (every storm-window read rejected) still
        // extrapolates and can drift *through* the threshold by luck;
        // recovery only counts from readings on a fresh anchor.
        if (!daemon->calibrated() || daemon->stale(sim_.now())) return s;
        s.worst_abs = daemon->current_error_ticks(sim_.now());
        s.valid = true;
        return s;
      },
      std::move(seed), [this](const ProbeResult& r) { record_result(r); }));
  probes_.back()->start();
}

net::Device* ChaosEngine::require_device(const std::string& name) const {
  net::Device* dev = net_.find_device(name);
  if (dev == nullptr)
    throw std::invalid_argument("chaos: no device named '" + name + "' in this topology");
  return dev;
}

ChaosEngine::Target ChaosEngine::resolve(const FaultSpec& spec) {
  fault_end(spec);  // every window must end inside the fs_t range
  Target t;
  if (spec.kind == FaultKind::kPcieStorm) {
    if (!spec.daemon) throw std::invalid_argument("chaos: pcie_storm without daemon");
    return t;
  }
  t.a = require_device(spec.a);
  if (is_link_fault(spec.kind)) {
    t.b = require_device(spec.b);
    t.link = link_between(*t.a, *t.b);
    if (!t.link) throw std::invalid_argument("chaos: devices are not cabled together");
  }
  switch (spec.kind) {
    case FaultKind::kGpsLoss:
    case FaultKind::kRogueGrandmaster:
    case FaultKind::kStratumFlap:
      t.server = require_server(spec);
      break;
    case FaultKind::kIslandPartition:
      if (hierarchy_ == nullptr)
        throw std::invalid_argument(
            "chaos: island_partition without a time hierarchy (set_hierarchy)");
      break;
    default:
      break;
  }
  return t;
}

void ChaosEngine::schedule(const FaultPlan& plan) {
  std::vector<Target> targets;
  targets.reserve(plan.size());
  for (const FaultSpec& spec : plan.faults) targets.push_back(resolve(spec));
  for (std::size_t i = 0; i < plan.size(); ++i) schedule_fault(plan.faults[i], targets[i]);
}

void ChaosEngine::schedule_fault(const FaultSpec& spec, const Target& t) {
  ++faults_pending_;
  if (auto* m = hub_ != nullptr ? hub_->metrics() : nullptr)
    m->add(m->counter("chaos.faults_injected"));
  switch (spec.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kPortFail: {
      Link* l = t.link;
      sim_.schedule_at(spec.at, [this, l] { take_link_down(*l); });
      sim_.schedule_at(spec.at + spec.duration, [this, l, spec, t] {
        bring_link_up(*l);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kFlapStorm: {
      Link* l = t.link;
      const int flaps = std::max(1, spec.count);
      for (int i = 0; i < flaps; ++i) {
        const fs_t down_at = spec.at + i * spec.period;
        sim_.schedule_at(down_at, [this, l] { take_link_down(*l); });
        const bool last = i == flaps - 1;
        sim_.schedule_at(down_at + spec.duration, [this, l, spec, t, last] {
          bring_link_up(*l);
          if (last) start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
        });
      }
      break;
    }
    case FaultKind::kBerBurst: {
      Link* l = t.link;
      sim_.schedule_at(spec.at, [this, l, ber = spec.magnitude] {
        mark("fault:ber_burst " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_ber(ber);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, l, spec, t] {
        mark("heal:ber_clear " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_ber(net_.params().cable.ber);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kBeaconLoss: {
      Link* l = t.link;
      sim_.schedule_at(spec.at, [this, l, drop = spec.magnitude] {
        mark("fault:beacon_loss " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_control_drop(drop);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, l, spec, t] {
        mark("heal:beacon_loss_clear " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_control_drop(0.0);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kNodeCrash: {
      net::Device* dev = t.a;
      sim_.schedule_at(spec.at, [this, dev] { crash_node(*dev); });
      sim_.schedule_at(spec.at + spec.duration, [this, spec, dev] {
        restart_node(*dev);
        start_probe(spec, make_seed(spec, sim_.now()), {dev});
      });
      break;
    }
    case FaultKind::kRogueOscillator: {
      net::Device* dev = t.a;
      sim_.schedule_at(spec.at, [this, spec, dev] {
        mark("fault:rogue_oscillator " + spec.a);
        // The thermal walk would pull the oscillator back toward its old
        // frequency; a genuinely broken part stays broken.
        dev->disable_drift();
        dev->oscillator().set_ppm_at(sim_.now(), spec.magnitude);
        watch_rogue(spec, dev);
      });
      break;
    }
    case FaultKind::kPcieStorm: {
      sim_.schedule_at(spec.at, [this, spec] {
        mark("fault:pcie_storm");
        spec.daemon->set_pcie_stress(spec.pcie_extra_per_leg, spec.pcie_spike_prob,
                                     spec.pcie_spike_mean);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, spec] {
        mark("heal:pcie_clear");
        spec.daemon->clear_pcie_stress();
        start_daemon_probe(spec, make_seed(spec, sim_.now()));
      });
      break;
    }
    case FaultKind::kGpsLoss: {
      dtp::UtcSourceServer* srv = t.server;
      // Failover is measured from the *loss*, not the heal: the probe goes
      // valid only once every client is locked to a different source.
      sim_.schedule_at(spec.at, [this, spec, srv] {
        mark("fault:gps_loss " + spec.a);
        srv->set_down(true);
        ProbeResult seed = make_seed(spec, spec.at);
        start_hierarchy_probe(spec, std::move(seed), srv->params().period,
                              static_cast<int>(srv->params().source_id));
      });
      sim_.schedule_at(spec.at + spec.duration, [this, spec, srv] {
        mark("heal:gps_restore " + spec.a);
        srv->set_down(false);
      });
      break;
    }
    case FaultKind::kRogueGrandmaster: {
      dtp::UtcSourceServer* srv = t.server;
      sim_.schedule_at(spec.at, [this, spec, srv] {
        mark("fault:rogue_grandmaster " + spec.a);
        srv->set_lie_ns(spec.magnitude);
        watch_rogue_gm(spec, srv);
      });
      break;
    }
    case FaultKind::kIslandPartition: {
      Link* l = t.link;
      sim_.schedule_at(spec.at, [this, l] { take_link_down(*l); });
      sim_.schedule_at(spec.at + spec.duration, [this, l, spec] {
        bring_link_up(*l);
        // Reconvergence after heal: everyone locked again, served UTC back
        // within the threshold, and (sentinel-checked) no backward steps on
        // the way. The islanded clients rode holdover in between.
        fs_t period = beacon_interval_;
        if (!hierarchy_->servers().empty())
          period = hierarchy_->servers().front()->params().period;
        start_hierarchy_probe(spec, make_seed(spec, sim_.now()), period, -1);
      });
      break;
    }
    case FaultKind::kStratumFlap: {
      dtp::UtcSourceServer* srv = t.server;
      const int flaps = std::max(1, spec.count);
      for (int i = 0; i < flaps; ++i) {
        sim_.schedule_at(spec.at + i * spec.period, [this, spec, srv, i] {
          const bool degrade = (i % 2) == 0;
          const int s = degrade ? static_cast<int>(spec.magnitude)
                                : srv->params().stratum;
          mark("fault:stratum_flap " + spec.a + " -> " + std::to_string(s));
          srv->set_stratum(s);
        });
      }
      sim_.schedule_at(spec.at + flaps * spec.period, [this, spec, srv] {
        mark("heal:stratum_restore " + spec.a);
        srv->set_stratum(srv->params().stratum);
        start_hierarchy_probe(spec, make_seed(spec, sim_.now()),
                              srv->params().period, -1);
      });
      break;
    }
    // Gray failures: impair one *direction* of a live cable (or one port's
    // counter register) without any link-down edge. The spec's a -> b order
    // picks the direction: cable dir 0 carries dev_a's transmissions, so the
    // faulted direction is 0 exactly when device spec.a owns the cable's a side.
    case FaultKind::kAsymmetricDelay: {
      Link* l = t.link;
      const int dir = l->dev_a == t.a ? 0 : 1;
      sim_.schedule_at(spec.at, [this, l, dir, extra = spec.period] {
        mark("fault:asymmetric_delay " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_extra_delay(dir, extra);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, l, dir, spec, t] {
        mark("heal:asymmetric_delay_clear " + l->dev_a->name() + "-" +
             l->dev_b->name());
        l->cable->set_extra_delay(dir, 0);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kLimpingPort: {
      Link* l = t.link;
      const int dir = l->dev_a == t.a ? 0 : 1;
      sim_.schedule_at(spec.at,
                       [this, l, dir, prob = spec.magnitude, stall = spec.period] {
        mark("fault:limping_port " + l->dev_a->name() + "-" + l->dev_b->name());
        l->cable->set_tx_stall(dir, prob, stall);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, l, dir, spec, t] {
        mark("heal:limping_port_clear " + l->dev_a->name() + "-" +
             l->dev_b->name());
        l->cable->set_tx_stall(dir, 0.0, 0);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kSilentCorruption: {
      Link* l = t.link;
      const int dir = l->dev_a == t.a ? 0 : 1;
      sim_.schedule_at(spec.at, [this, l, dir, prob = spec.magnitude] {
        mark("fault:silent_corruption " + l->dev_a->name() + "-" +
             l->dev_b->name());
        l->cable->set_silent_corrupt(dir, prob);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, l, dir, spec, t] {
        mark("heal:silent_corruption_clear " + l->dev_a->name() + "-" +
             l->dev_b->name());
        l->cable->set_silent_corrupt(dir, 0.0);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
    case FaultKind::kFrozenCounter: {
      Link* l = t.link;
      // The stuck register lives on device spec.a's port facing spec.b.
      phy::PhyPort* port = l->dev_a == t.a ? l->a : l->b;
      sim_.schedule_at(spec.at, [this, port, spec] {
        mark("fault:frozen_counter " + spec.a);
        // Resolve at fire time: the agent may have been replaced since
        // scheduling (crash faults earlier in the plan).
        if (dtp::PortLogic* pl = port_logic_at(port)) pl->set_counter_frozen(true);
      });
      sim_.schedule_at(spec.at + spec.duration, [this, port, spec, t] {
        mark("heal:frozen_counter_thaw " + spec.a);
        if (dtp::PortLogic* pl = port_logic_at(port)) pl->set_counter_frozen(false);
        start_probe(spec, make_seed(spec, sim_.now()), {t.a, t.b});
      });
      break;
    }
  }
}

dtp::UtcSourceServer* ChaosEngine::require_server(const FaultSpec& spec) const {
  if (hierarchy_ == nullptr)
    throw std::invalid_argument(
        "chaos: source fault without a time hierarchy (set_hierarchy)");
  dtp::UtcSourceServer* srv = hierarchy_->server_on(spec.a);
  if (srv == nullptr)
    throw std::invalid_argument("chaos: no time source server hosted on '" + spec.a + "'");
  return srv;
}

void ChaosEngine::start_hierarchy_probe(const FaultSpec& spec, ProbeResult seed,
                                        fs_t source_period, int exclude_source) {
  RecoveryProbe::Params pp;
  pp.threshold_ticks = spec.probe_threshold_ticks > 0 ? spec.probe_threshold_ticks
                                                      : kConvergeThresholdTicks;
  pp.consecutive_ok = kConsecutiveOk;
  pp.sample_period =
      spec.probe_sample_period > 0 ? spec.probe_sample_period : source_period / 8;
  pp.timeout = spec.probe_timeout > 0 ? spec.probe_timeout : 50 * source_period;
  // Source faults report in *broadcast* intervals: the source layer's
  // reaction time is paced by its own beacon, not the PHY one.
  pp.beacon_interval = source_period;
  pp.stall_ceiling_ticks = 0;  // not a neighbor-offset probe
  const double tick_fs =
      static_cast<double>(net_.devices().front()->oscillator().nominal_period());
  probes_.push_back(std::make_unique<RecoveryProbe>(
      sim_, pp,
      [this, exclude_source, tick_fs] {
        ProbeSample s;
        if (hierarchy_ == nullptr) return s;
        const fs_t now = sim_.now();
        bool any = false, all_ok = true;
        for (const auto& c : hierarchy_->clients()) {
          any = true;
          const dtp::ServedTime st = c->serve(now);
          if (!st.available || st.status != dtp::HierarchyStatus::kLocked ||
              (exclude_source >= 0 && st.source_id == exclude_source)) {
            all_ok = false;
            continue;
          }
          s.worst_abs = std::max(
              s.worst_abs, std::abs(st.utc - static_cast<double>(now)) / tick_fs);
        }
        s.valid = any && all_ok;
        return s;
      },
      std::move(seed), [this](const ProbeResult& r) { record_result(r); }));
  probes_.back()->start();
}

bool ChaosEngine::rogue_gm_deselected(std::uint32_t rogue_id) const {
  bool any = false;
  const fs_t now = sim_.now();
  for (const auto& c : hierarchy_->clients()) {
    any = true;
    const dtp::ServedTime st = c->serve(now);  // re-evaluates selection
    if (!st.available || st.status != dtp::HierarchyStatus::kLocked ||
        st.source_id == static_cast<int>(rogue_id))
      return false;
  }
  return any;
}

void ChaosEngine::watch_rogue_gm(const FaultSpec& spec, dtp::UtcSourceServer* srv) {
  const fs_t deadline = spec.at + spec.duration;
  sim_.schedule_at(sim_.now() + srv->params().period / 8,
                   [this, spec, srv, deadline] { rogue_gm_poll(spec, srv, deadline); },
                   sim::EventCategory::kProbe);
}

void ChaosEngine::rogue_gm_poll(const FaultSpec& spec, dtp::UtcSourceServer* srv,
                                fs_t deadline) {
  if (rogue_gm_deselected(srv->params().source_id)) {
    mark("rogue_gm_deselected " + spec.a);
    // Quarantine observed: every client is locked to a truthful source.
    // After the operator reaction delay the grandmaster is fixed and the
    // hierarchy must settle again (it may legitimately re-select the healed
    // source — monotone serving covers the switch-back).
    sim_.schedule_at(sim_.now() + spec.period, [this, spec, srv] {
      mark("heal:rogue_gm_fixed " + spec.a);
      srv->set_lie_ns(0.0);
      ProbeResult seed = make_seed(spec, sim_.now());
      seed.peer_isolated = true;
      start_hierarchy_probe(spec, std::move(seed), srv->params().period, -1);
    });
    return;
  }
  if (sim_.now() >= deadline) {
    // Detection failed — the lie went unnoticed; record the miss.
    ProbeResult r = make_seed(spec, deadline);
    r.peer_isolated = false;
    r.converged = false;
    record_result(r);
    return;
  }
  sim_.schedule_at(sim_.now() + srv->params().period / 8,
                   [this, spec, srv, deadline] { rogue_gm_poll(spec, srv, deadline); },
                   sim::EventCategory::kProbe);
}

bool ChaosEngine::rogue_isolated(const net::Device& rogue) const {
  bool any = false;
  for (const Link& l : links_) {
    if (l.dev_a != &rogue && l.dev_b != &rogue) continue;
    if (!l.up) continue;
    phy::PhyPort* far = l.dev_a == &rogue ? l.b : l.a;
    dtp::PortLogic* pl = port_logic_at(far);
    if (!pl) continue;  // neighbor crashed; can't count it either way
    if (pl->state() != dtp::PortState::kFaulty) return false;
    any = true;
  }
  return any;
}

void ChaosEngine::watch_rogue(const FaultSpec& spec, net::Device* rogue) {
  const fs_t deadline = spec.at + spec.duration;
  sim_.schedule_at(sim_.now() + probe_sample_period(),
                   [this, spec, rogue, deadline] { rogue_poll(spec, rogue, deadline); },
                   sim::EventCategory::kProbe);
}

void ChaosEngine::rogue_poll(const FaultSpec& spec, net::Device* rogue, fs_t deadline) {
  if (rogue_isolated(*rogue)) {
    mark("rogue_isolated " + spec.a);
    // Quarantine observed. After the operator reaction delay, clear the
    // collateral quarantines (ports that tripped on jumps the rogue's
    // counter caused to *propagate*, before the direct neighbor cut it
    // off) and measure the healthy remainder reconverging.
    sim_.schedule_at(sim_.now() + spec.period, [this, spec, rogue] {
      remediate_collateral(*rogue);
      ProbeResult seed = make_seed(spec, sim_.now());
      seed.peer_isolated = true;
      std::vector<net::Device*> affected;
      for (net::Device* dev : net_.devices())
        if (dev != rogue) affected.push_back(dev);
      start_probe(spec, std::move(seed), std::move(affected));
    });
    return;
  }
  if (sim_.now() >= deadline) {
    // Detection failed — record the miss; nothing to recover toward.
    ProbeResult r = make_seed(spec, deadline);
    r.peer_isolated = false;
    r.converged = false;
    record_result(r);
    return;
  }
  sim_.schedule_at(sim_.now() + probe_sample_period(),
                   [this, spec, rogue, deadline] { rogue_poll(spec, rogue, deadline); },
                   sim::EventCategory::kProbe);
}

void ChaosEngine::remediate_collateral(const net::Device& rogue) {
  for (std::size_t i = 0; i < dtp_.size(); ++i) {
    dtp::Agent& a = dtp_.agent(i);
    if (&a.device() == &rogue) continue;
    for (std::size_t p = 0; p < a.port_count(); ++p) {
      dtp::PortLogic& pl = a.port_logic(p);
      if (pl.state() != dtp::PortState::kFaulty) continue;
      if (owner_of(pl.phy_port().peer()) == &rogue) continue;  // stays cut off
      pl.clear_fault();
    }
  }
}

bool ChaosEngine::all_probes_done() const { return faults_pending_ == 0; }

}  // namespace dtpsim::chaos
