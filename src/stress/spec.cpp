#include "stress/spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "chaos/serialize.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "stress/runner.hpp"

namespace dtpsim::stress {

const char* topo_name(TopoKind kind) {
  switch (kind) {
    case TopoKind::kChain: return "chain";
    case TopoKind::kPaperTree: return "paper_tree";
    case TopoKind::kRandomTree: return "random_tree";
    case TopoKind::kFatTree: return "fat_tree";
  }
  return "unknown";
}

TopoKind topo_from_name(const std::string& name) {
  for (auto k : {TopoKind::kChain, TopoKind::kPaperTree, TopoKind::kRandomTree,
                 TopoKind::kFatTree})
    if (name == topo_name(k)) return k;
  throw std::invalid_argument("stress: unknown topology '" + name + "'");
}

namespace {

/// The generator's traffic and random-tree envelope (tier-1 batches stay
/// small).
constexpr std::uint32_t kMaxFlows = 4;
constexpr std::uint32_t kMaxTreeSwitches = 8;

/// The spec's topology built into a scratch network: the generator and
/// spec_size read cables, names and hosts from it instead of mirroring the
/// builders.
struct ScratchTopology {
  sim::Simulator sim{0};
  net::Network net{sim};
  std::vector<net::Host*> hosts;

  explicit ScratchTopology(const StressSpec& s) : hosts(build_topology(net, s)) {}
};

/// Reconvergence time granted after a fault ends before the offset monitor
/// re-arms (crash/port-fail need INIT restart; link faults resync faster).
fs_t recovery_margin(chaos::FaultKind kind) {
  switch (kind) {
    case chaos::FaultKind::kNodeCrash:
    case chaos::FaultKind::kPortFail:
      return from_us(1500);  // INIT restart + join propagation
    case chaos::FaultKind::kAsymmetricDelay:
    case chaos::FaultKind::kLimpingPort:
    case chaos::FaultKind::kSilentCorruption:
    case chaos::FaultKind::kFrozenCounter:
      // The watchdog ladder runs past the heal: a pending exponential
      // backoff (a few doublings of the 200us base), the re-INIT exchange,
      // and a full clean probation before the port counts as recovered.
      return from_ms(3);
    default:
      return from_ms(1);
  }
}

using Fields = std::unordered_map<std::string, std::string>;

/// Parse "key=value key=value ..." from the remainder of a section line.
Fields parse_kv(std::istringstream& in, const std::string& section) {
  Fields kv;
  std::string word;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("stress: expected key=value in '" + section +
                                  "' line, got '" + word + "'");
    if (!kv.emplace(word.substr(0, eq), word.substr(eq + 1)).second)
      throw std::invalid_argument("stress: duplicate key in '" + section + "' line");
  }
  return kv;
}

std::string take(Fields& kv, const std::string& section, const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end())
    throw std::invalid_argument("stress: '" + section + "' line missing key '" + key + "'");
  std::string v = it->second;
  kv.erase(it);
  return v;
}

/// Take `key` from a section line into `field`, checked against the
/// field's type: 0 or 1 for a flag, a finite number for a real, and for an
/// integer a value that fits it. Every integer in the format is a seed, a
/// count, a size or a duration, so none may be negative.
template <typename T>
void read(Fields& kv, const std::string& section, const std::string& key, T& field) {
  const std::string what = "stress: " + key;
  const std::string text = take(kv, section, key);
  if constexpr (std::is_same_v<T, bool>)
    field = parse_int<int>(what, text, 0, 1) != 0;
  else if constexpr (std::is_floating_point_v<T>)
    field = parse_real(what, text);
  else
    field = parse_int<T>(what, text, 0);
}

void expect_empty(const Fields& kv, const std::string& section) {
  if (!kv.empty())
    throw std::invalid_argument("stress: unknown key '" + kv.begin()->first + "' in '" +
                                section + "' line");
}

}  // namespace

double spec_size(const StressSpec& s) {
  double size = 1000.0 * static_cast<double>(s.faults.size());
  for (const auto& f : s.faults) size += 50.0 * f.count;
  size += 10.0 * static_cast<double>(ScratchTopology(s).net.devices().size());
  size += static_cast<double>(s.horizon) / static_cast<double>(from_ms(1));
  size += 2.0 * s.threads + s.n_flows + (s.bridged ? 2.0 : 0.0);
  size += s.hier ? 25.0 : 0.0;  // shrinker: drop the hierarchy when it can
  size += s.gray ? 25.0 : 0.0;  // ... and the watchdog
  return size;
}

std::string to_text(const StressSpec& s) {
  std::ostringstream out;
  out << "dtpsim-stress-repro v1\n";
  out << "campaign seed=" << s.sim_seed << " topo=" << topo_name(s.topo) << "\n";
  out << "topo_args chain=" << s.chain_switches << " tree_sw=" << s.tree_switches
      << " tree_hosts=" << s.tree_hosts << " shape=" << s.shape_seed
      << " fat_k=" << s.fat_k << " fat_hpe=" << s.fat_hosts_per_edge << "\n";
  out << "net beacon=" << s.beacon_interval_ticks << " ppm=" << format_real(s.ppm_spread)
      << " drift=" << (s.enable_drift ? 1 : 0) << " prop=" << s.propagation_delay << "\n";
  out << "load flows=" << s.n_flows << " bytes=" << s.frame_bytes
      << " saturate=" << (s.saturate ? 1 : 0) << " gbps=" << format_real(s.rate_gbps) << "\n";
  out << "run threads=" << s.threads << " settle=" << s.settle
      << " horizon=" << s.horizon << " engine=" << (s.bridged ? "bridged" : "exact")
      << "\n";
  out << "sentinel bound=" << format_real(s.offset_bound_ticks)
      << " sample=" << s.sample_period << "\n";
  // Optional section: omitted entirely for hierarchy-free specs so files
  // written before the hierarchy existed re-serialize byte-identically.
  if (s.hier || s.hier_holdover_ceiling != 0)
    out << "hier enabled=" << (s.hier ? 1 : 0)
        << " ceiling=" << s.hier_holdover_ceiling << "\n";
  if (s.gray) out << "gray enabled=1\n";
  for (const auto& f : s.faults) out << chaos::fault_to_line(f) << "\n";
  out << "end\n";
  return out.str();
}

StressSpec spec_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dtpsim-stress-repro v1")
    throw std::invalid_argument("stress: missing 'dtpsim-stress-repro v1' header");

  StressSpec s;
  bool terminated = false;
  bool seen[6] = {};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      terminated = true;
      break;
    }
    std::istringstream ls(line);
    std::string section;
    ls >> section;
    if (section == "fault") {
      s.faults.push_back(chaos::fault_from_line(line));
      continue;
    }
    auto kv = parse_kv(ls, section);
    if (section == "campaign") {
      seen[0] = true;
      read(kv, section, "seed", s.sim_seed);
      s.topo = topo_from_name(take(kv, section, "topo"));
    } else if (section == "topo_args") {
      seen[1] = true;
      read(kv, section, "chain", s.chain_switches);
      read(kv, section, "tree_sw", s.tree_switches);
      read(kv, section, "tree_hosts", s.tree_hosts);
      read(kv, section, "shape", s.shape_seed);
      read(kv, section, "fat_k", s.fat_k);
      read(kv, section, "fat_hpe", s.fat_hosts_per_edge);
    } else if (section == "net") {
      seen[2] = true;
      read(kv, section, "beacon", s.beacon_interval_ticks);
      read(kv, section, "ppm", s.ppm_spread);
      read(kv, section, "drift", s.enable_drift);
      read(kv, section, "prop", s.propagation_delay);
    } else if (section == "load") {
      seen[3] = true;
      read(kv, section, "flows", s.n_flows);
      read(kv, section, "bytes", s.frame_bytes);
      read(kv, section, "saturate", s.saturate);
      read(kv, section, "gbps", s.rate_gbps);
    } else if (section == "run") {
      seen[4] = true;
      read(kv, section, "threads", s.threads);
      read(kv, section, "settle", s.settle);
      read(kv, section, "horizon", s.horizon);
      // Optional for files written before the bridged engine existed.
      if (auto it = kv.find("engine"); it != kv.end()) {
        if (it->second == "bridged") {
          s.bridged = true;
        } else if (it->second != "exact") {
          throw std::invalid_argument("stress: engine must be exact or bridged, got '" +
                                      it->second + "'");
        }
        kv.erase(it);
      }
    } else if (section == "sentinel") {
      seen[5] = true;
      read(kv, section, "bound", s.offset_bound_ticks);
      read(kv, section, "sample", s.sample_period);
    } else if (section == "hier") {
      // Optional — absent in pre-hierarchy repro files.
      read(kv, section, "enabled", s.hier);
      read(kv, section, "ceiling", s.hier_holdover_ceiling);
    } else if (section == "gray") {
      // Optional — absent in pre-watchdog repro files.
      read(kv, section, "enabled", s.gray);
    } else {
      throw std::invalid_argument("stress: unknown section '" + section + "'");
    }
    expect_empty(kv, section);
  }
  if (!terminated) throw std::invalid_argument("stress: repro text missing 'end' footer");
  for (int i = 0; i < 6; ++i)
    if (!seen[i])
      throw std::invalid_argument("stress: repro text is missing a required section");
  if (s.threads == 0 || s.threads > 16)
    throw std::invalid_argument("stress: threads must be in [1, 16]");
  if (s.horizon <= s.settle) throw std::invalid_argument("stress: horizon must exceed settle");
  return s;
}

fs_t blackout_end(const chaos::FaultSpec& f) {
  fs_t end = 0;
  if (__builtin_add_overflow(chaos::fault_end(f), recovery_margin(f.kind), &end))
    throw std::invalid_argument(std::string("stress: ") + chaos::fault_class_name(f.kind) +
                                " fault's blackout ends past the fs_t range");
  return end;
}

StressSpec generate(std::uint64_t seed, std::uint32_t index, const StressLimits& limits) {
  Rng r = Rng(seed).fork(0x57E55ULL * 0x1000000 + index);

  StressSpec s;
  s.sim_seed = r();

  switch (r.uniform(4)) {
    case 0:
      s.topo = TopoKind::kChain;
      s.chain_switches = 1 + static_cast<std::uint32_t>(r.uniform(4));
      break;
    case 1:
      s.topo = TopoKind::kPaperTree;
      break;
    case 2:
      s.topo = TopoKind::kRandomTree;
      s.tree_switches = 3 + static_cast<std::uint32_t>(r.uniform(kMaxTreeSwitches - 2));
      s.tree_hosts = 2 + static_cast<std::uint32_t>(r.uniform(4));
      s.shape_seed = r();
      break;
    default:
      s.topo = TopoKind::kFatTree;
      s.fat_k = 4;
      s.fat_hosts_per_edge = 1 + static_cast<std::uint32_t>(r.uniform(2));
      break;
  }

  const std::uint32_t beacons[3] = {200, 400, 800};
  s.beacon_interval_ticks = beacons[r.uniform(3)];
  s.ppm_spread = r.uniform_real(10.0, 100.0);
  s.enable_drift = r.bernoulli(0.5);
  s.propagation_delay = from_ns(static_cast<std::int64_t>(200 + r.uniform(1801)));

  s.n_flows = static_cast<std::uint32_t>(r.uniform(kMaxFlows + 1));
  const std::uint32_t sizes[3] = {64, 512, 1522};
  s.frame_bytes = sizes[r.uniform(3)];
  s.saturate = r.bernoulli(0.25);
  s.rate_gbps = r.uniform_real(0.5, 3.0);

  const std::uint32_t thread_choices[4] = {1, 1, 2, 4};
  s.threads = thread_choices[r.uniform(4)];
  if (s.threads > 1 && s.propagation_delay < from_us(1)) s.propagation_delay = from_us(1);

  s.settle = from_ms(3);

  // Faults land on the topology as built: its cables in cabling order (a -> b
  // as cabled), its device names sorted, and its host list.
  const ScratchTopology topo(s);
  std::vector<std::pair<std::string, std::string>> links;
  for (const auto& [a, b] : net::cabled_devices(topo.net))
    links.emplace_back(a->name(), b->name());
  std::vector<std::string> names;
  for (const net::Device* d : topo.net.devices()) names.push_back(d->name());
  std::sort(names.begin(), names.end());
  const std::uint32_t n_faults = static_cast<std::uint32_t>(r.uniform(limits.max_faults + 1));
  fs_t last_recovery = s.settle;
  for (std::uint32_t i = 0; i < n_faults; ++i) {
    chaos::FaultSpec f;
    const fs_t at = s.settle + from_us(200) + from_ns(static_cast<std::int64_t>(r.uniform(600'000)));
    switch (r.uniform(6)) {
      case 0: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kLinkFlap;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(20 + r.uniform(180)));
        break;
      }
      case 1: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kFlapStorm;
        f.a = a;
        f.b = b;
        f.at = at;
        f.count = 2 + static_cast<int>(r.uniform(3));
        f.duration = from_us(static_cast<std::int64_t>(10 + r.uniform(40)));
        f.period = f.duration + from_us(static_cast<std::int64_t>(30 + r.uniform(70)));
        break;
      }
      case 2: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kPortFail;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(200)));
        break;
      }
      case 3: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kBerBurst;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(50 + r.uniform(100)));
        f.magnitude = r.uniform_real(1e-6, 3e-5);
        break;
      }
      case 4: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kBeaconLoss;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(50 + r.uniform(150)));
        f.magnitude = r.uniform_real(0.1, 0.5);
        break;
      }
      default: {
        f.kind = chaos::FaultKind::kNodeCrash;
        f.a = names[r.uniform(names.size())];
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(100 + r.uniform(200)));
        break;
      }
    }
    last_recovery = std::max(last_recovery, blackout_end(f));
    s.faults.push_back(std::move(f));
  }

  // Drawn after everything above so existing (seed, index) pairs keep every
  // earlier field bit-identical to what they sampled before the bridged
  // engine existed. The hierarchy slice below follows the same rule: each
  // newer feature appends its draws strictly after the older ones.
  s.bridged = r.bernoulli(0.25);

  // Multi-source hierarchy slice: two competing sources plus clients, and
  // (half the time) one source-level fault aimed at the stratum-1 server.
  if (topo.hosts.size() >= 3 && r.bernoulli(0.25)) {
    s.hier = true;
    if (s.faults.size() < limits.max_faults && r.bernoulli(0.5)) {
      chaos::FaultSpec f;
      f.a = topo.hosts.front()->name();  // the stratum-1 source's host
      f.at = s.settle + from_us(300) +
             from_ns(static_cast<std::int64_t>(r.uniform(400'000)));
      if (r.bernoulli(0.5)) {
        f.kind = chaos::FaultKind::kGpsLoss;
        f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(300)));
      } else {
        f.kind = chaos::FaultKind::kStratumFlap;
        f.count = 2 + static_cast<int>(r.uniform(3));
        f.period = from_us(static_cast<std::int64_t>(80 + r.uniform(120)));
        f.magnitude = 5;  // alternate (worse) advertised stratum
      }
      last_recovery = std::max(last_recovery, blackout_end(f));
      s.faults.push_back(std::move(f));
    }
  }

  // Gray-failure slice: drawn strictly after the hierarchy slice so existing
  // (seed, index) pairs keep every earlier field bit-identical. Turning it on
  // arms the per-port watchdog; half the time one gray fault rides along on a
  // random link. Magnitudes track the canonical gray campaign's: big enough
  // that the staleness clears the default plausibility gate, small enough
  // that the range filter still bounds every lie.
  if (r.bernoulli(0.25)) {
    s.gray = true;
    if (s.faults.size() < limits.max_faults && r.bernoulli(0.5)) {
      chaos::FaultSpec f;
      const auto& [a, b] = links[r.uniform(links.size())];
      f.a = a;
      f.b = b;
      f.at = s.settle + from_us(200) +
             from_ns(static_cast<std::int64_t>(r.uniform(600'000)));
      f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(601)));
      switch (r.uniform(4)) {
        case 0:
          f.kind = chaos::FaultKind::kAsymmetricDelay;
          f.period = from_ns(static_cast<std::int64_t>(45 + r.uniform(76)));
          break;
        case 1:
          f.kind = chaos::FaultKind::kLimpingPort;
          f.magnitude = r.uniform_real(0.2, 0.5);
          f.period = from_ns(static_cast<std::int64_t>(60 + r.uniform(91)));
          break;
        case 2:
          f.kind = chaos::FaultKind::kSilentCorruption;
          f.magnitude = r.uniform_real(0.5, 0.9);
          break;
        default:
          f.kind = chaos::FaultKind::kFrozenCounter;
          break;
      }
      last_recovery = std::max(last_recovery, blackout_end(f));
      s.faults.push_back(std::move(f));
    }
  }

  // Horizon: convergence demonstrated before faults, recovery demonstrated
  // after the last one (the offset monitor needs its settle streak back).
  const fs_t sample = s.sample_period > 0 ? s.sample_period : from_us(5);
  s.horizon = std::max(s.settle + from_us(500), last_recovery) + 24 * sample + from_us(100);
  return s;
}

}  // namespace dtpsim::stress
