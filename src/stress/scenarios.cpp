/// The table of named fault campaigns (DESIGN.md §17): one row per
/// `dtpsim --chaos` value. The loud-failure rows share the canonical
/// campaign's parameters (chaos/campaign.hpp); the gates are the acceptance
/// checks every caller enforces.

#include <algorithm>
#include <cmath>

#include "chaos/campaign.hpp"
#include "dtp/agent.hpp"
#include "net/frame.hpp"
#include "stress/campaign.hpp"

namespace dtpsim::stress {

namespace {

using chaos::CanonicalCampaign;
using chaos::FaultSpec;

constexpr fs_t kT0 = CanonicalCampaign::settle_time();

/// Pairwise bound across the Fig. 5 tree: 4T per hop, D = 4 hops.
constexpr double kTree4TdTicks = 16.0;

/// The dtpsim flags every named campaign reads.
const std::vector<std::string> kCampaignFlags = {
    "chaos", "protocol", "seed", "threads", "engine", "trace", "metrics", "metrics-interval"};

Gate probes_reported() {
  return {"every probe reported", [](Campaign& c) { return c.engine().all_probes_done(); }};
}

Gate class_gate(const std::string& cls, const std::string& what,
                std::function<bool(const chaos::ClassSummary&)> holds) {
  return {cls + ": " + what,
          [cls, holds](Campaign& c) { return holds(c.report().summary(cls)); }};
}

Gate injected_once_and_converged(const std::string& cls) {
  return class_gate(cls, "injected once and reconverged",
                    [](const auto& s) { return s.n == 1 && s.converged == s.n; });
}

/// A network-layer fault class: back within ±4T of every neighbor inside
/// two beacon intervals, with the §5.4 stall ceiling intact.
void add_recovery_gates(std::vector<Gate>& gates, const std::string& cls) {
  gates.push_back(injected_once_and_converged(cls));
  gates.push_back(class_gate(cls, "p99 <= 2 beacon intervals",
                             [](const auto& s) { return s.p99_bi <= 2.0; }));
  gates.push_back(class_gate(cls, "stall ceiling held",
                             [](const auto& s) { return s.stall_ok; }));
}

const net::Device* rogue_device(Campaign& c) {
  for (const FaultSpec& f : c.plan().faults)
    if (f.kind == chaos::FaultKind::kRogueOscillator) return c.net().find_device(f.a);
  return nullptr;
}

/// The rogue oscillator is quarantined by its neighbor, the rest of the
/// network reconverges after collateral remediation, and the healthy
/// devices end within the tree's 4TD envelope of each other.
void add_rogue_gates(std::vector<Gate>& gates) {
  gates.push_back(class_gate("rogue_oscillator", "quarantined by its neighbor",
                             [](const auto& s) { return s.n == 1 && s.isolated; }));
  gates.push_back(class_gate("rogue_oscillator", "healthy remainder reconverged",
                             [](const auto& s) { return s.converged == 1; }));
  gates.push_back({"every port facing the rogue stays quarantined", [](Campaign& c) {
    const net::Device* rogue = rogue_device(c);
    return rogue != nullptr && c.engine().rogue_isolated(*rogue);
  }});
  gates.push_back({"healthy devices within 4TD after remediation", [](Campaign& c) {
    const net::Device* rogue = rogue_device(c);
    double worst = 0;
    for (std::size_t i = 0; i < c.dtp().size(); ++i) {
      const dtp::Agent& a = c.dtp().agent(i);
      if (&a.device() == rogue) continue;
      for (std::size_t j = 0; j < c.dtp().size(); ++j) {
        const dtp::Agent& b = c.dtp().agent(j);
        if (&b.device() == rogue) continue;
        worst = std::max(worst,
                         std::abs(dtp::true_offset_fractional(a, b, c.sim().now())));
      }
    }
    return worst <= kTree4TdTicks;
  }});
}

Gate sentinel_clean() {
  return {"sentinel clean", [](Campaign& c) { return c.sentinel()->clean(); }};
}

/// Loud-failure rows: the canonical campaign's parameters under MTU load.
Scenario canonical_row(std::string name, std::function<chaos::FaultPlan(Campaign&)> plan,
                       fs_t horizon) {
  Scenario s;
  s.name = std::move(name);
  s.setting = ", MTU-saturated";
  s.flags = kCampaignFlags;
  s.net = CanonicalCampaign::net_params();
  s.dtp = CanonicalCampaign::dtp_params();
  s.load = [](Campaign& c) {
    CanonicalCampaign::start_heavy_load(c.net(), c.tree(), net::kMtuFrameBytes);
  };
  s.plan = std::move(plan);
  s.horizon = horizon;
  s.gates = {probes_reported()};
  return s;
}

/// A one-fault loud-failure row running `length` past the settle time.
Scenario single_fault_row(std::string name, const std::string& cls, fs_t length,
                          std::function<FaultSpec(const net::PaperTreeTopology&)> fault) {
  Scenario s = canonical_row(
      std::move(name),
      [fault](Campaign& c) {
        chaos::FaultPlan plan;
        plan.add(fault(c.tree()));
        return plan;
      },
      kT0 + length);
  if (cls == "rogue_oscillator")
    add_rogue_gates(s.gates);
  else
    add_recovery_gates(s.gates, cls);
  return s;
}

/// The source-level campaign (DESIGN.md §13): a stratum-1 GPS source on the
/// first leaf under S1, a stratum-2 upstream-island source on the first
/// leaf under S2, and a hierarchy client on every other leaf. Both sources
/// sit outside S3's subtree, so cutting the S0--S3 trunk strands S3's three
/// clients with no source at all — the holdover case.
///
///   t0+0      gps_loss      GPS reference dark 1 ms; clients must fail over
///                           to the stratum-2 source within 2 broadcast
///                           intervals (kStalenessFactor 1.5 + detection lag)
///   t0+2.5ms  rogue_gm      GPS broadcasts UTC shifted +2 us; every client
///                           must quarantine it within 1.5 ms; the lie is
///                           cleared 0.5 ms after quarantine is observed
///   t0+6ms    island_partition  S0--S3 dark 2 ms; S3's clients ride holdover
///                           (uncertainty growing, sentinel-checked honest),
///                           then reconverge after the heal
///   t0+11ms   stratum_flap  the GPS advertises stratum 5 and back, 4
///                           toggles, one per 200 us; selection must track
///                           deterministically with no backward served step
///
/// Sources broadcast every 100 us, so the probes report in 100 us units, and
/// served UTC must come back within the tree's pairwise 4TD envelope: a
/// client serves time *across* the tree, not over one hop.
Scenario source_row() {
  Scenario s = canonical_row(
      "source",
      [](Campaign& c) {
        const net::PaperTreeTopology& t = c.tree();
        net::Host& gps = *t.leaves[0];
        chaos::FaultPlan plan;
        plan.add(FaultSpec::gps_loss(gps, kT0, from_ms(1)))
            .add(FaultSpec::rogue_grandmaster(gps, kT0 + from_us(2500), 2000.0,
                                              from_us(1500), from_us(500)))
            .add(FaultSpec::island_partition(*t.root, *t.aggs[2], kT0 + from_ms(6), from_ms(2)))
            .add(FaultSpec::stratum_flap(gps, kT0 + from_ms(11), 4, from_us(200), 5));
        for (FaultSpec& f : plan.faults) f.probe_threshold_ticks = kTree4TdTicks;
        return plan;
      },
      kT0 + from_ms(18));
  s.setting = " (stratum-1 GPS + stratum-2 island)";
  s.flags.push_back("holdover-ceiling");
  s.load = nullptr;
  s.hierarchy = [](Campaign& c) { add_two_sources(c, 0, 3); };
  // The partition (plus DTP re-sync margin) disturbs the network layer, so
  // the offset monitors take a blackout over it; the UTC checks never do.
  s.sentinel = check::SentinelParams{};
  s.blackouts = {{kT0 + from_ms(6), kT0 + from_ms(9)}};

  s.gates.push_back(injected_once_and_converged("gps_loss"));
  s.gates.push_back(class_gate("gps_loss", "failover p99 <= 2 broadcast intervals",
                               [](const auto& c) { return c.p99_bi <= 2.0; }));
  s.gates.push_back(class_gate("rogue_grandmaster", "deselected while a truthful source served",
                               [](const auto& c) { return c.n == 1 && c.isolated; }));
  s.gates.push_back(class_gate("rogue_grandmaster", "reconverged after the lie cleared",
                               [](const auto& c) { return c.converged == 1; }));
  s.gates.push_back({"every client rejected the lie", [](Campaign& c) {
    for (const auto& client : c.hierarchy().clients()) {
      const dtp::SourceTrack* t = client->track(1);
      if (t == nullptr || t->rejected == 0) return false;
    }
    return true;
  }});
  s.gates.push_back(class_gate("island_partition", "reconverged after the heal",
                               [](const auto& c) { return c.converged == 1; }));
  s.gates.push_back(class_gate("stratum_flap", "selection settled",
                               [](const auto& c) { return c.converged == 1; }));
  s.gates.push_back({"every client served, changed source, and ended locked", [](Campaign& c) {
    for (const auto& client : c.hierarchy().clients())
      if (!client->ever_served() || client->status() != dtp::HierarchyStatus::kLocked ||
          client->selection_changes() <= 1)
        return false;
    return true;
  }});
  s.gates.push_back({"sentinel UTC monitors ran",
                     [](Campaign& c) { return c.sentinel()->stats().utc_checks > 0; }});
  s.gates.push_back(sentinel_clean());
  return s;
}

/// Where a watchdog suspicion may legitimately land: a gray fault's window
/// plus the 3 ms remediation margin.
bool in_window(const FaultSpec& f, fs_t t) {
  return t >= f.at && t < f.at + f.duration + from_ms(3);
}

/// When each port the watchdog ever suspected was first suspected.
std::vector<fs_t> first_suspicions(Campaign& c) {
  std::vector<fs_t> out;
  const dtp::HealthWatchdog& wd = *c.watchdog();
  for (std::size_t i = 0; i < wd.watch_count(); ++i)
    if (wd.watch_stats(i).suspects > 0) out.push_back(wd.watch_stats(i).first_suspected_at);
  return out;
}

/// The gray-failure campaign (DESIGN.md §15): one instance of each gray
/// fault kind under MTU load, against a per-port HealthWatchdog.
///
///   t0+0      asymmetric_delay  root -> S1 gains 52 ns (~8 ticks) one-way
///                               for 3 ms; S1's uplink sees every beacon
///                               implausibly stale and is re-INITed
///   t0+4ms    limping_port      leaf2 -> S1 stalls 30% of its control
///                               blocks by 90 ns (~14 ticks) for 3 ms
///   t0+8ms    silent_corruption leaf4 -> S2 flips a low counter bit in 80%
///                               of control payloads for 3 ms (+-4/+-8 tick
///                               lies that survive framing)
///   t0+12ms   frozen_counter    leaf6's port facing S3 latches its counter
///                               for 2 ms while the device stays alive
///
/// The jump detector is OFF: every injection is sized to stay under the
/// loud detectors (that is what makes it gray), so a detection is the
/// watchdog's alone. Magnitudes are tied to the default
/// `WatchdogParams::plausible_delta_ticks = 6` gate: each fault's staleness
/// lands at or past -7 ticks even after a mid-fault re-INIT halves the bias
/// into the measured OWD, so detection cannot be argued away by a lucky d.
Scenario gray_row() {
  Scenario s = canonical_row(
      "gray",
      [](Campaign& c) {
        const net::PaperTreeTopology& t = c.tree();
        chaos::FaultPlan plan;
        plan.add(FaultSpec::asymmetric_delay(*t.root, *t.aggs[0], kT0, from_ms(3), from_ns(52)))
            .add(FaultSpec::limping_port(*t.leaves[2], *t.aggs[0], kT0 + from_ms(4), from_ms(3),
                                         0.3, from_ns(90)))
            .add(FaultSpec::silent_corruption(*t.leaves[4], *t.aggs[1], kT0 + from_ms(8),
                                              from_ms(3), 0.8))
            .add(FaultSpec::frozen_counter(*t.leaves[6], *t.aggs[2], kT0 + from_ms(12),
                                           from_ms(2)));
        for (FaultSpec& f : plan.faults) {
          f.label = std::string("gray:") + chaos::fault_class_name(f.kind);
          // Recovery includes the watchdog's backoff ladder (up to ~1.6 ms
          // pending at heal time) plus probation, not just beacon churn.
          f.probe_timeout = from_ms(5);
        }
        return plan;
      },
      kT0 + from_ms(20));
  s.flags.insert(s.flags.end(), {"wd-check-period", "wd-backoff"});
  s.dtp->enable_jump_detector = false;
  s.watchdog = dtp::WatchdogParams{};
  // Each fault window plus a remediation margin (backoff ladder, probation,
  // and the post-heal fast-forward that re-absorbs a biased OWD): offsets
  // and counter-rate checks hold fire there; watchdog invariants never do.
  s.sentinel = check::SentinelParams{};
  const fs_t margin = from_ms(3);
  s.blackouts = {{kT0, kT0 + from_ms(3) + margin},
                 {kT0 + from_ms(4), kT0 + from_ms(7) + margin},
                 {kT0 + from_ms(8), kT0 + from_ms(11) + margin},
                 {kT0 + from_ms(12), kT0 + from_ms(14) + margin}};

  for (const char* cls : {"asymmetric_delay", "limping_port", "silent_corruption",
                          "frozen_counter"})
    s.gates.push_back(injected_once_and_converged(cls));
  s.gates.push_back({"no suspicion outside a fault window", [](Campaign& c) {
    const std::vector<FaultSpec>& faults = c.plan().faults;
    for (fs_t t : first_suspicions(c))
      if (std::none_of(faults.begin(), faults.end(),
                       [t](const FaultSpec& f) { return in_window(f, t); }))
        return false;
    return true;
  }});
  s.gates.push_back({"every gray fault detected", [](Campaign& c) {
    const std::vector<fs_t> times = first_suspicions(c);
    for (const FaultSpec& f : c.plan().faults)
      if (std::none_of(times.begin(), times.end(), [&f](fs_t t) { return in_window(f, t); }))
        return false;
    return true;
  }});
  // Every gray fault injects on a distinct link and remediation means its
  // victim port walked the ladder: at least four quarantined ports, every
  // suspected port back to HEALTHY with its episode closed, none disabled.
  s.gates.push_back({"every victim port remediated (quarantine + re-INIT ladder)",
                     [](Campaign& c) {
    const dtp::HealthWatchdog& wd = *c.watchdog();
    std::size_t remediated = 0;
    for (std::size_t i = 0; i < wd.watch_count(); ++i)
      remediated += wd.watch_stats(i).suspects > 0 && wd.watch_stats(i).quarantines > 0;
    return remediated >= 4;
  }});
  s.gates.push_back({"every suspected port HEALTHY with its episode closed", [](Campaign& c) {
    const dtp::HealthWatchdog& wd = *c.watchdog();
    for (std::size_t i = 0; i < wd.watch_count(); ++i)
      if (wd.watch_stats(i).suspects > 0 &&
          (wd.watch_health(i) != dtp::PortHealth::kHealthy || wd.watch_stats(i).attempts != 0))
        return false;
    return true;
  }});
  s.gates.push_back(
      {"no port disabled", [](Campaign& c) { return c.watchdog()->total_disables() == 0; }});
  s.gates.push_back({"sentinel watchdog monitors ran",
                     [](Campaign& c) { return c.sentinel()->stats().watchdog_checks > 0; }});
  s.gates.push_back(sentinel_clean());
  return s;
}

Scenario canonical_full_row() {
  Scenario s = canonical_row(
      "canonical", [](Campaign& c) { return CanonicalCampaign::plan(c.tree(), kT0); },
      CanonicalCampaign::end_time(kT0));
  for (const char* cls : {"link_flap", "flap_storm", "port_fail", "ber_burst", "beacon_loss",
                          "node_crash"})
    add_recovery_gates(s.gates, cls);
  add_rogue_gates(s.gates);
  return s;
}

std::vector<Scenario> build_table() {
  using T = const net::PaperTreeTopology&;
  return {
      single_fault_row("flap", "link_flap", from_ms(2), [](T t) {
        return FaultSpec::link_flap(*t.leaves[0], *t.aggs[0], kT0, from_us(50));
      }),
      single_fault_row("storm", "flap_storm", from_ms(3), [](T t) {
        return FaultSpec::flap_storm(*t.leaves[1], *t.aggs[0], kT0, 6, from_us(150), from_us(60));
      }),
      single_fault_row("crash", "node_crash", from_ms(2), [](T t) {
        return FaultSpec::node_crash(*t.leaves[4], kT0, from_us(400));
      }),
      single_fault_row("ber", "ber_burst", from_ms(3), [](T t) {
        return FaultSpec::ber_burst(*t.leaves[3], *t.aggs[1], kT0, from_us(1500), 1e-5);
      }),
      single_fault_row("rogue", "rogue_oscillator", from_ms(12), [](T t) {
        return FaultSpec::rogue_oscillator(*t.leaves[7], kT0, 500.0, from_ms(6), from_ms(2));
      }),
      source_row(),
      gray_row(),
      canonical_full_row(),
  };
}

}  // namespace

void add_two_sources(Campaign& c, std::size_t gps, std::size_t island) {
  const std::vector<net::Host*>& hosts = c.hosts();
  const fs_t period = from_us(100);
  c.hierarchy().add_server(c.sim(), *hosts[gps], *c.dtp().agent_of(hosts[gps]),
                           dtp::TimeSourceParams::gps(1, period));
  c.hierarchy().add_server(c.sim(), *hosts[island], *c.dtp().agent_of(hosts[island]),
                           dtp::TimeSourceParams::upstream_island(2, 2, 150.0, period));
  for (std::size_t i = 0; i < hosts.size(); ++i)
    if (i != gps && i != island)
      c.hierarchy().add_client(*hosts[i], *c.dtp().agent_of(hosts[i]), {});
}

const std::vector<Scenario>& scenario_table() {
  static const std::vector<Scenario> table = build_table();
  return table;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenario_table())
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace dtpsim::stress
