#include "stress/runner.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dtpsim::stress {

namespace {

/// The largest topology in the repository: the k=32 fat-tree (8192 hosts)
/// that bench_scalability builds.
constexpr std::uint64_t kMaxDevices = 9472;

/// Hosts plus switches the spec's topology builds, from its size fields in
/// 128-bit arithmetic so no uint32 value can wrap the count.
unsigned __int128 device_count(const StressSpec& s) {
  using U = unsigned __int128;
  switch (s.topo) {
    case TopoKind::kChain: return U{s.chain_switches} + 2;
    case TopoKind::kPaperTree: return 12;  // Fig. 5: S0-S3 switches, S4-S11 hosts
    case TopoKind::kRandomTree: return U{s.tree_switches} + s.tree_hosts;
    case TopoKind::kFatTree: {
      const U half = s.fat_k / 2;
      const U edges = U{s.fat_k} * half;  // = aggregation switches
      return half * half + 2 * edges + edges * s.fat_hosts_per_edge;
    }
  }
  return 0;
}

}  // namespace

std::vector<net::Host*> build_topology(net::Network& net, const StressSpec& s) {
  if (device_count(s) > kMaxDevices)
    throw std::invalid_argument("stress: the spec's topology has more than " +
                                std::to_string(kMaxDevices) + " devices");
  switch (s.topo) {
    case TopoKind::kChain: {
      auto topo = net::build_chain(net, s.chain_switches);
      return {topo.left, topo.right};
    }
    case TopoKind::kPaperTree:
      return net::build_paper_tree(net).leaves;
    case TopoKind::kRandomTree:
      return net::build_random_tree(net, s.shape_seed, s.tree_switches, s.tree_hosts).hosts;
    case TopoKind::kFatTree:
      return net::build_fat_tree(net, static_cast<int>(s.fat_k),
                                 static_cast<int>(s.fat_hosts_per_edge))
          .hosts;
  }
  throw std::invalid_argument("stress: unknown topology kind");
}

namespace {

void start_traffic(net::Network& net, const std::vector<net::Host*>& hosts,
                   const StressSpec& s) {
  if (s.n_flows == 0 || hosts.size() < 2) return;
  net::TrafficParams tp;
  tp.saturate = s.saturate;
  tp.rate_bps = s.rate_gbps * 1e9;
  tp.frame_bytes = s.frame_bytes;
  const std::size_t h = hosts.size();
  const std::size_t stride = std::max<std::size_t>(1, h / 2);
  for (std::uint32_t i = 0; i < s.n_flows; ++i) {
    const std::size_t src = i % h;
    std::size_t dst = (src + stride + i / h) % h;
    if (dst == src) dst = (dst + 1) % h;
    net.add_traffic(*hosts[src], hosts[dst]->addr(), tp).start();
  }
}

}  // namespace

Scenario resolve(const StressSpec& spec) {
  Scenario s;
  s.net.ppm_spread = spec.ppm_spread;
  s.net.enable_drift = spec.enable_drift;
  s.net.cable.propagation_delay = spec.propagation_delay;
  // INIT's delay measurement must not queue behind an in-flight data frame
  // right after a replug (see MacParams::data_holdoff).
  s.net.mac.data_holdoff = from_us(20);
  s.dtp.beacon_interval_ticks = spec.beacon_interval_ticks;

  s.topology = [spec](net::Network& net) { return build_topology(net, spec); };
  s.load = [spec](Campaign& c) { start_traffic(c.net(), c.hosts(), spec); };
  // Multi-source hierarchy: a stratum-1 GPS source on the first host, a
  // stratum-2 island source on the last, clients everywhere in between.
  if (spec.hier) {
    s.hierarchy = [](Campaign& c) {
      if (c.hosts().size() < 3)
        throw std::invalid_argument(
            "stress: hier needs at least three hosts (two sources + a client)");
      add_two_sources(c, 0, c.hosts().size() - 1);
    };
    s.holdover_ceiling = spec.hier_holdover_ceiling;
  }
  if (spec.gray) s.watchdog = dtp::WatchdogParams{};  // DESIGN.md §15
  s.plan = [spec](Campaign&) { return chaos::FaultPlan{spec.faults}; };
  s.horizon = spec.horizon;

  check::SentinelParams sp;
  if (spec.sample_period > 0) sp.sample_period = spec.sample_period;
  if (spec.offset_bound_ticks > 0) sp.offset_bound_ticks = spec.offset_bound_ticks;
  // A sentinel that never samples would call any run clean.
  if (sp.sample_period >= spec.horizon)
    throw std::invalid_argument("stress: sentinel sample period is not shorter than the horizon");
  s.sentinel = sp;
  for (const auto& f : spec.faults) {
    // The blackout opens two samples before the fault.
    fs_t from = 0;
    if (__builtin_mul_overflow(sp.sample_period, 2, &from) ||
        __builtin_sub_overflow(f.at, from, &from))
      throw std::invalid_argument("stress: sentinel blackout starts before the fs_t range");
    s.blackouts.emplace_back(from, blackout_end(f));
  }
  return s;
}

CampaignResult run_campaign(const StressSpec& spec, const ObsOptions* obs) {
  Campaign c(resolve(spec), {spec.sim_seed, spec.threads, spec.bridged,
                             obs != nullptr ? *obs : ObsOptions{}});
  c.run();

  const check::Sentinel& sentinel = *c.sentinel();
  CampaignResult r;
  r.spec = spec;
  r.violations = sentinel.violations();
  r.digest = sentinel.digest();
  r.sentinel_stats = sentinel.stats();
  r.offset_bound_ticks = sentinel.offset_bound_ticks();
  r.diameter_hops = sentinel.diameter_hops();
  r.events_executed = c.sim().stats().executed;
  r.shards = c.sim().shard_count();
  return r;
}

CampaignResult run_differential(const StressSpec& spec) {
  // The baseline is always the serial cycle-exact engine: both the parallel
  // conservative engine and the tick-bridging engine promise bit-identical
  // RunDigests against it, separately and combined.
  if (spec.threads <= 1 && !spec.bridged) return run_campaign(spec);
  StressSpec base_spec = spec;
  base_spec.threads = 1;
  base_spec.bridged = false;
  const CampaignResult base = run_campaign(base_spec);
  CampaignResult var = run_campaign(spec);
  if (!(base.digest == var.digest)) {
    const std::string mode = std::to_string(spec.threads) + "-thread " +
                             (spec.bridged ? "bridged" : "exact");
    check::Violation v;
    v.kind = check::InvariantKind::kDigestMismatch;
    v.at = spec.horizon;
    v.device = "network";
    v.observed = static_cast<double>(var.shards);
    v.bound = 1.0;
    v.detail = "serial-exact digest " + base.digest.hex() + " != " + mode +
               " digest " + var.digest.hex();
    var.violations.push_back(std::move(v));
  }
  return var;
}

BatchOutcome run_batch(std::uint64_t seed, std::uint32_t count,
                       const StressLimits& limits, bool differential) {
  BatchOutcome out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const StressSpec spec = generate(seed, i, limits);
    CampaignResult r = differential ? run_differential(spec) : run_campaign(spec);
    ++out.campaigns;
    out.events_executed += r.events_executed;
    if (!r.clean()) out.failures.push_back(std::move(r));
  }
  return out;
}

void write_repro(const StressSpec& spec, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("stress: cannot open '" + path + "' for writing");
  out << to_text(spec);
  if (!out.flush()) throw std::runtime_error("stress: short write to '" + path + "'");
}

StressSpec load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("stress: cannot read repro file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return spec_from_text(buf.str());
}

CampaignResult replay(const std::string& path) { return run_campaign(load_repro(path)); }

}  // namespace dtpsim::stress
