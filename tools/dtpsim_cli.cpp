/// dtpsim — run a clock-synchronization experiment from the command line.
///
///   dtpsim [--topology=star|tree|chain|fattree|fat-tree:k=K,hosts=H[,pods=P]]
///          [--nodes=N] [--hops=D]
///          [--protocol=dtp|dtp-master|ptp|ntp] [--seconds=S] [--seed=N]
///          [--load=idle|heavy] [--beacon=TICKS] [--rate=1g|10g|40g|100g]
///          [--drift] [--ber=P]
///          [--app=owd|lww|tdma] [--readers=N]
///          [--chaos=flap|storm|crash|ber|rogue|source|gray|canonical]
///          [--holdover-ceiling=DUR] [--wd-check-period=DUR] [--wd-backoff=DUR]
///          [--threads=N] [--stress=N] [--repro=FILE] [--json-out=PATH]
///          [--trace=PATH] [--metrics=PATH] [--metrics-interval=DUR]
///
/// Every --protocol, --app and --chaos run is one campaign row built and run
/// by stress::Campaign (DESIGN.md §17): --chaos picks a row of the campaign
/// table, --protocol and --app rows are made from the flags. A protocol run
/// prints a synchronization report: worst offsets over the run, protocol
/// message counts, and (for DTP) the 4TD bound verdict. An --app run prints
/// each app's verdict, a --chaos run the recovery report and its gates'
/// verdict. With --stress, runs N randomized invariant-checked campaigns
/// from --seed and writes a shrunken repro file per failure; with --repro,
/// replays one repro file deterministically and exits with the sentinel
/// verdict.
///
/// Unknown or malformed flags, flags the chosen mode does not read, and
/// horizons past the simulated-time range are an error: the tool prints
/// usage and exits with status 2 rather than silently running a different
/// experiment.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "chaos/campaign.hpp"
#include "check/sentinel.hpp"
#include "common/parse.hpp"
#include "dtp/network.hpp"
#include "dtp/watchdog.hpp"
#include "net/topology.hpp"
#include "ntp/ntp.hpp"
#include "obs/json.hpp"
#include "obs/session.hpp"
#include "sim/simulator.hpp"
#include "stress/campaign.hpp"
#include "stress/runner.hpp"
#include "stress/shrink.hpp"

namespace {

using namespace dtpsim;

/// Usage text, split where the --chaos list (taken from the campaign table)
/// goes; see usage().
constexpr const char* kUsageHead =
    "usage: dtpsim [flags]\n"
    "  --topology=star|tree|chain|fattree   shape to build (default tree = Fig. 5)\n"
    "  --topology=fat-tree:k=K,hosts=H[,pods=P]\n"
    "                       k-ary multi-pod fat-tree sized for H hosts; H must\n"
    "                       be a multiple of pods*k/2 (hosts spread evenly over\n"
    "                       the edge switches; > k/2 per edge oversubscribes).\n"
    "                       pods defaults to k; a smaller value builds a pod\n"
    "                       slice. 'fattree' stays the legacy k=4 demo fabric\n"
    "  --nodes=N            hosts in a star (default 8)\n"
    "  --hops=D             chain hop count (default 4)\n"
    "  --protocol=dtp|dtp-master|ptp|ntp    protocol under test (default dtp)\n"
    "  --seconds=S          measured duration after settling (default 0.5)\n"
    "  --seed=N             simulator seed / stress master seed (default 1)\n"
    "  --load=idle|heavy    background traffic (default idle)\n"
    "  --beacon=TICKS       DTP beacon interval in ticks (default 200)\n"
    "  --rate=1g|10g|40g|100g  link rate (default 10g)\n"
    "  --drift              enable oscillator drift random walk\n"
    "  --ber=P              uniform cable bit-error rate (default 0)\n"
    "  --app=owd|lww|tdma   time-as-a-service demo: one daemon + lock-free\n"
    "                       timebase page per host, a reader fleet, and the\n"
    "                       chosen page-consuming workload (one-way-delay\n"
    "                       pairs, last-writer-wins versioning ring, TDMA slot\n"
    "                       schedule), with the sentinel's never-understate-\n"
    "                       uncertainty monitor armed on every page; needs an\n"
    "                       acyclic topology (tree|star|chain)\n"
    "  --readers=N          lock-free page readers per host in an --app run\n"
    "                       (default 4)\n"
    "  --chaos=";
constexpr const char* kUsageTail =
    "  fault-injection\n"
    "                       demo; 'source' runs the multi-source time-hierarchy\n"
    "                       campaign (GPS loss, rogue grandmaster, island\n"
    "                       holdover, stratum flap) with the sentinel's UTC\n"
    "                       monitors armed; 'gray' runs the gray-failure\n"
    "                       campaign (asymmetric delay, limping port, silent\n"
    "                       corruption, frozen counter) against the per-port\n"
    "                       health watchdog and its escalation ladder\n"
    "  --holdover-ceiling=DUR  refuse-to-serve uncertainty ceiling for the\n"
    "                       hierarchy clients in --chaos=source, with a unit\n"
    "                       suffix (ns|us|ms|s), e.g. 5us; default 2us\n"
    "  --wd-check-period=DUR  watchdog sampling cadence in --chaos=gray\n"
    "                       (default 50us)\n"
    "  --wd-backoff=DUR     watchdog re-INIT backoff base in --chaos=gray;\n"
    "                       attempt k waits base*2^k + jitter (default 200us)\n"
    "  --threads=N          parallel conservative engine workers (default 1)\n"
    "  --engine=exact|bridged  event engine: cycle-exact, or analytic\n"
    "                       tick-bridging fast-forward for quiet PHY time\n"
    "                       (bit-identical; default bridged; exact is the reference)\n"
    "  --stress=N           run N randomized invariant-checked campaigns from\n"
    "                       --seed; failures write dtpsim-repro-<seed>-<i>.txt\n"
    "                       (+ a shrunken -min.txt) and exit 1\n"
    "  --repro=FILE         replay one repro file; exit 0 = sentinel clean,\n"
    "                       1 = violations reproduced, 2 = malformed file\n"
    "  --json-out=PATH      write a machine-readable stress/repro summary\n"
    "  --trace=PATH         write a Chrome trace_event JSON (Perfetto-loadable)\n"
    "                       of the run; with --stress, each failing campaign is\n"
    "                       replayed with a trace at <repro>.trace.json\n"
    "  --metrics=PATH       write periodic metrics snapshots as JSON; with\n"
    "                       --stress, failures get <repro>.metrics.json\n"
    "  --metrics-interval=DUR  snapshot cadence with a unit suffix (ns|us|ms|s),\n"
    "                       e.g. 50us; default = run length / 256\n";

/// "flap|storm|...": the names of the campaign table's rows, in order.
std::string chaos_names() {
  std::string out;
  for (const stress::Scenario& s : stress::scenario_table())
    out += (out.empty() ? "" : "|") + s.name;
  return out;
}

std::string usage() { return kUsageHead + chaos_names() + kUsageTail; }

struct Options {
  std::string topology = "tree";
  std::string protocol = "dtp";
  std::string load = "idle";
  std::string chaos;  ///< empty = normal experiment
  std::string app;    ///< empty = no app-workload demo
  long long readers = -1;  ///< --app page readers per host; -1 = default (4)
  std::size_t nodes = 8;
  std::size_t hops = 4;
  double seconds = 0.5;
  fs_t duration = 0;  ///< --seconds as fs_t, checked by parse() with the settle
  std::uint64_t seed = 1;
  std::int64_t beacon = 200;
  std::string rate = "10g";
  bool drift = false;
  double ber = 0.0;
  unsigned threads = 1;
  // Fat-tree spec (--topology=fat-tree:...); defaults reproduce the legacy
  // 'fattree' value (k=4 canonical, all pods).
  int ft_k = 4;
  int ft_hosts_per_edge = -1;
  int ft_pods = -1;
  fs_t holdover_ceiling = 0;  ///< --chaos=source only; 0 = hierarchy default
  fs_t wd_check_period = 0;   ///< --chaos=gray only; 0 = watchdog default
  fs_t wd_backoff = 0;        ///< --chaos=gray only; 0 = watchdog default
  bool bridged = true;  ///< false = --engine=exact
  std::uint32_t stress = 0;  ///< 0 = off; N = campaign count
  std::string repro;         ///< non-empty = replay this file
  std::string json_out;      ///< non-empty = write JSON summary here
  std::string trace;         ///< non-empty = write a Chrome trace here
  std::string metrics;       ///< non-empty = write metrics snapshots here
  fs_t metrics_interval = 0;  ///< snapshot cadence; 0 = run length / 256
  std::vector<std::string> given;  ///< every flag set on the command line
};

/// Thrown for anything the user got wrong on the command line; main() turns
/// it into a message + usage + exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool contains(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed)
    if (v == a) return true;
  return false;
}

/// An integer flag value that must fit `T`: text that is not an integer
/// keeps its "is not an integer" message; a number outside T's range names
/// the range (dtpsim::parse_int), never saturates or wraps.
template <typename T>
T parse_int(const std::string& key, const std::string& v) {
  const std::size_t digits = v.rfind('-', 0) == 0 ? 1 : 0;
  if (v.size() == digits || v.find_first_not_of("0123456789", digits) != std::string::npos)
    throw UsageError("--" + key + "=" + v + " is not an integer");
  try {
    return dtpsim::parse_int<T>("--" + key, v, std::numeric_limits<T>::min());
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

double parse_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (v.empty() || end == nullptr || *end != '\0')
    throw UsageError("--" + key + "=" + v + " is not a number");
  return out;
}

/// A positive duration with a required unit suffix: "50us", "1.5ms", "2s".
/// Delegates to the shared strict parser; a malformed value exits 2.
fs_t parse_duration_flag(const std::string& key, const std::string& v) {
  try {
    return parse_duration(v);
  } catch (const std::invalid_argument& e) {
    throw UsageError("--" + key + "=" + v + ": " + e.what());
  }
}

/// Strict parse of "k=K,hosts=H[,pods=P]" (the part after "fat-tree:").
/// Anything malformed — unknown or repeated key, missing k/hosts, odd k, a
/// host count that doesn't spread evenly over the edge switches — is a
/// UsageError, so a typo exits 2 instead of silently building a different
/// fabric.
void parse_fat_tree_spec(const std::string& spec, Options& o) {
  int k = -1, hosts = -1, pods = -1;
  std::vector<std::string> seen;
  if (spec.empty())
    throw UsageError("--topology=fat-tree: needs k=K,hosts=H");
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? spec.npos : comma - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size())
      throw UsageError("--topology=fat-tree: bad item '" + item + "' (want key=value)");
    const std::string sk = item.substr(0, eq);
    const std::string sv = item.substr(eq + 1);
    const int n = parse_int<int>("topology=fat-tree:" + sk, sv);
    int* slot = sk == "k" ? &k : sk == "hosts" ? &hosts : sk == "pods" ? &pods : nullptr;
    if (slot == nullptr)
      throw UsageError("--topology=fat-tree: unknown key '" + sk +
                       "' (want k, hosts, pods)");
    if (contains(seen, sk))
      throw UsageError("--topology=fat-tree: key '" + sk + "' is given more than once");
    seen.push_back(sk);
    *slot = n;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (k < 0 || hosts < 0)
    throw UsageError("--topology=fat-tree: both k= and hosts= are required");
  if (k < 2 || k % 2 != 0)
    throw UsageError("--topology=fat-tree: k must be even and >= 2, got " +
                     std::to_string(k));
  if (pods < 0) pods = k;
  if (pods < 1 || pods > k)
    throw UsageError("--topology=fat-tree: pods must be in [1, k], got " +
                     std::to_string(pods));
  const long long edges = static_cast<long long>(pods) * (k / 2);  // < 2^62
  if (hosts < edges || hosts % edges != 0)
    throw UsageError("--topology=fat-tree: hosts must be a positive multiple of "
                     "pods*k/2 = " + std::to_string(edges) + ", got " +
                     std::to_string(hosts));
  o.ft_k = k;
  o.ft_pods = pods;
  o.ft_hosts_per_edge = static_cast<int>(hosts / edges);
  o.topology = "fattree";
}

phy::LinkRate parse_rate(const std::string& s) {
  if (s == "1g") return phy::LinkRate::k1G;
  if (s == "40g") return phy::LinkRate::k40G;
  if (s == "100g") return phy::LinkRate::k100G;
  return phy::LinkRate::k10G;
}

/// Simulated settle time a protocol or --app run prepends to --seconds.
fs_t settle_of(const Options& o) {
  return (o.protocol == "ptp" || o.protocol == "ntp") ? from_sec(8) : from_ms(4);
}

/// Build the --topology shape into `net`; returns its hosts.
std::vector<net::Host*> build_topology(net::Network& net, const Options& o) {
  if (o.topology == "star") return net::build_star(net, o.nodes).hosts;
  if (o.topology == "chain") {
    auto chain = net::build_chain(net, o.hops > 0 ? o.hops - 1 : 0);
    return {chain.left, chain.right};
  }
  if (o.topology == "fattree") {
    net::FatTreeParams fp;
    fp.k = o.ft_k;
    fp.hosts_per_edge = o.ft_hosts_per_edge;
    fp.pods = o.ft_pods;
    return net::build_fat_tree(net, fp).hosts;
  }
  return net::build_paper_tree(net).leaves;  // tree (the paper's Fig. 5)
}

/// Saturating MTU flows from each of `hosts` to the next, in a ring.
void saturate_ring(net::Network& net, const std::vector<net::Host*>& hosts) {
  net::TrafficParams tp;
  tp.saturate = true;
  for (std::size_t i = 0; i < hosts.size(); ++i)
    net.add_traffic(*hosts[i], hosts[(i + 1) % hosts.size()]->addr(), tp).start();
}

std::size_t readers_per_host(const Options& o) {
  return o.readers >= 0 ? static_cast<std::size_t>(o.readers) : 4;
}

/// --chaos=<name>: the campaign table's row, with the knobs it reads.
stress::Scenario chaos_row(const Options& o) {
  stress::Scenario s = *stress::find_scenario(o.chaos);
  if (o.holdover_ceiling > 0) s.holdover_ceiling = o.holdover_ceiling;
  if (s.watchdog && o.wd_check_period > 0) s.watchdog->check_period = o.wd_check_period;
  if (s.watchdog && o.wd_backoff > 0) s.watchdog->reinit_backoff = o.wd_backoff;
  return s;
}

/// --protocol=dtp|dtp-master|ptp|ntp on the --topology shape. The --load
/// traffic is not part of the row: run_protocol() starts it once the
/// settle time has passed.
stress::Scenario protocol_row(const Options& o) {
  stress::Scenario s;
  s.name = o.protocol;
  s.flags = {"protocol", "topology", "nodes", "hops", "seconds", "seed",
             "load",     "rate",     "ber",   "threads", "engine"};
  s.net.rate = parse_rate(o.rate);
  s.net.cable.ber = o.ber;
  s.net.enable_drift = o.drift;
  s.topology = [o](net::Network& net) { return build_topology(net, o); };
  if (o.protocol == "ptp") {
    s.dtp.reset();
    s.ptp = stress::PtpSetup{};
    s.ptp->grandmaster.sync_interval = from_ms(250);
  } else if (o.protocol == "ntp") {
    s.dtp.reset();
    s.ntp = ntp::NtpClientParams{};
    s.ntp->poll_interval = from_ms(250);
  } else {
    s.dtp->beacon_interval_ticks = o.beacon;
    s.dtp->counter_delta = phy::rate_spec(s.net.rate).counter_delta;
    if (o.protocol == "dtp-master") s.dtp->mode = dtp::SyncMode::kMasterTree;
    s.flags.push_back("beacon");  // PTP and NTP have no beacon
  }
  s.flags.insert(s.flags.end(), {"drift", "trace", "metrics", "metrics-interval"});
  s.horizon = settle_of(o) + o.duration;
  return s;
}

/// --app=owd|lww|tdma: the time-as-a-service demo (DESIGN.md §16). One
/// daemon + timebase page per host, a lock-free reader fleet, and the chosen
/// page-consuming workload, with the sentinel's honesty monitor armed on
/// every page.
stress::Scenario app_row(const Options& o) {
  stress::Scenario s;
  s.name = o.app;
  // --app keeps the campaign's drift baseline.
  s.flags = {"protocol", "topology", "nodes", "hops",   "seconds", "seed",
             "load",     "rate",     "ber",   "threads", "engine",  "app",
             "readers",  "beacon",   "trace", "metrics", "metrics-interval"};
  // Serving apps under saturating load needs the campaign-hardened network
  // and DTP parameters (MAC data holdoff, 800-tick beacons): the page is
  // only as honest as the sync underneath it.
  s.net = chaos::CanonicalCampaign::net_params();
  s.net.rate = parse_rate(o.rate);
  s.net.cable.ber = o.ber;
  // Apps stamp priority-7 frames; the MAC needs its full strict-priority
  // queue set so bulk load cannot starve them.
  s.net.mac.priority_queues = 8;
  // Keep the campaign's counter_delta = 1 (one unit = one tick at the link
  // rate): every app parameter — slot and guard lengths, the 4TD network
  // bound — is denominated in those units.
  s.dtp = chaos::CanonicalCampaign::dtp_params();
  if (contains(o.given, "beacon")) s.dtp->beacon_interval_ticks = o.beacon;  // else keep 800
  s.topology = [o](net::Network& net) {
    std::vector<net::Host*> hosts = build_topology(net, o);
    if (o.app == "tdma" && hosts.size() < 3)
      throw UsageError("--app=tdma needs a topology with >= 3 hosts");
    return hosts;
  };
  // Heavy load saturates with MTU bulk, but never *from* a TDMA sender: a
  // 1500 B frame already on the wire would hold the slot frame past its
  // guard band no matter how good the clock is.
  if (o.load == "heavy")
    s.load = [o](stress::Campaign& c) {
      const std::size_t first = o.app == "tdma" ? 1 : 0, stride = o.app == "tdma" ? 2 : 1;
      std::vector<net::Host*> bulk;
      for (std::size_t i = first; i < c.hosts().size(); i += stride) bulk.push_back(c.hosts()[i]);
      if (bulk.size() < 2) {
        std::printf("load: skipped (too few non-sender hosts for bulk traffic)\n");
        return;
      }
      saturate_ring(c.net(), bulk);
      std::printf("load: saturating MTU traffic on %zu host(s)\n", bulk.size());
    };
  s.apps = [o](stress::Campaign& c) {
    const std::size_t n = c.hosts().size();
    apps::AppHarnessParams hp;
    hp.daemon.poll_period = from_ms(1);
    hp.daemon.sample_period = 0;
    hp.daemon.max_anchor_age = from_us(2500);
    hp.readers_per_host = readers_per_host(o);
    hp.reader_period = from_us(50);
    if (o.app == "owd") {
      // Cross-fabric pairs: each probe crosses the topology's full diameter.
      for (std::size_t i = 0; i < n / 2; ++i) hp.owd_pairs.emplace_back(i, i + n / 2);
    } else if (o.app == "lww") {
      for (std::size_t i = 0; i < n; ++i) hp.lww_ring.push_back(i);
    } else {  // tdma: even host indices send; odd ones are free for bulk load
      for (std::size_t i = 0; i < n; i += 2) hp.tdma_senders.push_back(i);
    }
    return hp;
  };
  // Cold start is blacked out like a campaign fault window: the first page
  // is published off a 2-poll rate estimate while the fabric may still be
  // max-adopting counters. The honesty gate judges steady-state serving.
  s.sentinel = check::SentinelParams{};
  s.blackouts = {{0, settle_of(o)}};
  s.horizon = settle_of(o) + o.duration;
  return s;
}

/// The campaign row the flags select.
stress::Scenario row_of(const Options& o) {
  if (!o.chaos.empty()) return chaos_row(o);
  return o.app.empty() ? protocol_row(o) : app_row(o);
}

/// What a run mode is called in messages, and the flags it reads.
struct Mode {
  std::string name;
  std::vector<std::string> reads;
};

/// The mode parse()'s flags select (stress > repro > chaos > app >
/// protocol, the order run() dispatches in) and the flags that mode reads.
Mode mode_of(const Options& o) {
  if (o.stress > 0)
    return {"--stress", {"stress", "seed", "json-out", "trace", "metrics", "metrics-interval"}};
  if (!o.repro.empty())
    return {"--repro", {"repro", "json-out", "trace", "metrics", "metrics-interval"}};
  const stress::Scenario row = row_of(o);
  const char* flag = !o.chaos.empty() ? "--chaos=" : !o.app.empty() ? "--app=" : "--protocol=";
  return {flag + row.name, row.flags};
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw UsageError("unexpected argument '" + arg + "' (flags are --key=value)");
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? arg.npos : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool has_value = eq != std::string::npos;

    if (!one_of(key, {"help", "drift", "topology", "protocol", "load", "chaos",
                      "app", "readers", "nodes", "hops", "seconds", "seed",
                      "beacon", "rate", "ber", "threads", "engine", "stress",
                      "repro", "json-out", "trace", "metrics", "metrics-interval",
                      "holdover-ceiling", "wd-check-period", "wd-backoff"}))
      throw UsageError("unknown flag '--" + key + "'");
    if (key == "help") continue;  // handled in main() before parsing
    // The last of a repeated flag would silently win.
    if (contains(o.given, key)) throw UsageError("--" + key + " is given more than once");
    o.given.push_back(key);
    if (key == "drift") {
      if (has_value && value != "true" && value != "false")
        throw UsageError("--drift takes no value (or true/false)");
      o.drift = !has_value || value == "true";
      continue;
    }
    if (!has_value || value.empty())
      throw UsageError("--" + key + " needs a value");

    if (key == "topology") {
      if (value.rfind("fat-tree:", 0) == 0) {
        parse_fat_tree_spec(value.substr(sizeof("fat-tree:") - 1), o);
      } else if (one_of(value, {"star", "tree", "chain", "fattree"})) {
        o.topology = value;
      } else {
        throw UsageError(
            "--topology must be star|tree|chain|fattree or "
            "fat-tree:k=K,hosts=H[,pods=P], got '" + value + "'");
      }
    } else if (key == "protocol") {
      if (!one_of(value, {"dtp", "dtp-master", "ptp", "ntp"}))
        throw UsageError("--protocol must be dtp|dtp-master|ptp|ntp, got '" + value + "'");
      o.protocol = value;
    } else if (key == "load") {
      if (!one_of(value, {"idle", "heavy"}))
        throw UsageError("--load must be idle|heavy, got '" + value + "'");
      o.load = value;
    } else if (key == "chaos") {
      if (stress::find_scenario(value) == nullptr)
        throw UsageError("--chaos must be " + chaos_names() + ", got '" + value + "'");
      o.chaos = value;
    } else if (key == "app") {
      if (!one_of(value, {"owd", "lww", "tdma"}))
        throw UsageError("--app must be owd|lww|tdma, got '" + value + "'");
      o.app = value;
    } else if (key == "readers") {
      const long long n = parse_int<long long>(key, value);
      if (n < 0 || n > 4096) throw UsageError("--readers must be in [0, 4096]");
      o.readers = n;
    } else if (key == "nodes") {
      const long long n = parse_int<long long>(key, value);
      if (n < 2) throw UsageError("--nodes must be >= 2");
      o.nodes = static_cast<std::size_t>(n);
    } else if (key == "hops") {
      const long long n = parse_int<long long>(key, value);
      if (n < 1) throw UsageError("--hops must be >= 1");
      o.hops = static_cast<std::size_t>(n);
    } else if (key == "seconds") {
      o.seconds = parse_double(key, value);
      if (o.seconds <= 0) throw UsageError("--seconds must be positive");
    } else if (key == "seed") {
      o.seed = parse_int<std::uint64_t>(key, value);
    } else if (key == "beacon") {
      o.beacon = parse_int<std::int64_t>(key, value);
      if (o.beacon < 8) throw UsageError("--beacon must be >= 8 ticks");
    } else if (key == "rate") {
      if (!one_of(value, {"1g", "10g", "40g", "100g"}))
        throw UsageError("--rate must be 1g|10g|40g|100g, got '" + value + "'");
      o.rate = value;
    } else if (key == "threads") {
      const long long n = parse_int<long long>(key, value);
      if (n < 1 || n > 64) throw UsageError("--threads must be in [1, 64]");
      o.threads = static_cast<unsigned>(n);
    } else if (key == "engine") {
      if (!one_of(value, {"exact", "bridged"}))
        throw UsageError("--engine must be exact|bridged, got '" + value + "'");
      o.bridged = value == "bridged";
    } else if (key == "stress") {
      const long long n = parse_int<long long>(key, value);
      if (n < 1 || n > 1'000'000) throw UsageError("--stress must be in [1, 1000000]");
      o.stress = static_cast<std::uint32_t>(n);
    } else if (key == "repro") {
      o.repro = value;
    } else if (key == "json-out") {
      o.json_out = value;
    } else if (key == "trace") {
      o.trace = value;
    } else if (key == "metrics") {
      o.metrics = value;
    } else if (key == "metrics-interval") {
      o.metrics_interval = parse_duration_flag(key, value);
    } else if (key == "holdover-ceiling") {
      o.holdover_ceiling = parse_duration_flag(key, value);
    } else if (key == "wd-check-period") {
      o.wd_check_period = parse_duration_flag(key, value);
    } else if (key == "wd-backoff") {
      o.wd_backoff = parse_duration_flag(key, value);
    } else {  // ber — the whitelist above rules out everything else
      o.ber = parse_double(key, value);
      if (o.ber < 0 || o.ber >= 1) throw UsageError("--ber must be in [0, 1)");
    }
  }
  if (!o.chaos.empty() && o.protocol != "dtp")
    throw UsageError("--chaos drives the DTP protocol; drop --protocol=" + o.protocol);
  if (!o.app.empty()) {
    if (o.protocol != "dtp")
      throw UsageError("--app workloads read the DTP daemon's page; drop --protocol=" +
                       o.protocol);
    if (o.topology == "fattree")
      throw UsageError(
          "--app workloads need an acyclic topology (tree|star|chain): the "
          "fat-tree's learn-and-flood switches duplicate unicast app frames "
          "across its multipaths");
  }
  if (o.metrics_interval > 0 && o.trace.empty() && o.metrics.empty())
    throw UsageError("--metrics-interval needs --metrics or --trace");

  // Never run a different experiment silently: a flag the chosen mode does
  // not read is an error, not a no-op.
  const Mode mode = mode_of(o);
  for (const std::string& key : o.given) {
    if (contains(mode.reads, key)) continue;
    std::string reads;
    for (const std::string& r : mode.reads) reads += " --" + r;
    throw UsageError("--" + key + " is not read by " + mode.name + " runs (they read" +
                     reads + ")");
  }
  if (contains(mode.reads, "seconds")) {
    try {
      o.duration = to_fs_checked(o.seconds, kFsPerSec, settle_of(o)) - settle_of(o);
    } catch (const std::invalid_argument& e) {
      throw UsageError(std::string("--seconds: ") + e.what());
    }
    // A verdict over an empty window would claim a horizon that never ran.
    if (o.duration <= 0) throw UsageError("--seconds: the duration rounds to 0 fs");
  }
  return o;
}

bool obs_requested(const Options& o) { return !o.trace.empty() || !o.metrics.empty(); }

obs::SessionConfig obs_config(const Options& o) {
  obs::SessionConfig oc;
  oc.trace_path = o.trace;
  oc.metrics_path = o.metrics;
  oc.metrics_interval = o.metrics_interval;
  return oc;
}

/// Tell the user where the observability files went.
void report_obs_files(const Options& o) {
  if (!o.trace.empty())
    std::printf("trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n",
                o.trace.c_str());
  if (!o.metrics.empty()) std::printf("metrics written to %s\n", o.metrics.c_str());
}

/// Say how --threads was honoured (nothing for serial runs).
void report_threads(const sim::Simulator& sim, unsigned threads) {
  if (threads <= 1) return;
  if (sim.parallel())
    std::printf("parallel: threads=%u shards=%d lookahead=%.1f ns\n", threads,
                static_cast<int>(sim.shard_count()), to_ns_f(sim.lookahead()));
  else
    std::printf("parallel: topology does not shard; running serial\n");
}

/// The event-loop report printed after every protocol run. A sharded run's
/// queue peak sums per-shard peaks that depend on mailbox timing, so only a
/// serial run prints one.
void print_stats(const sim::Simulator& sim) {
  const sim::SimStats st = sim.stats();
  std::printf("events: %llu executed (", static_cast<unsigned long long>(st.executed));
  bool first = true;
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
    if (st.executed_by_category[i] == 0) continue;
    std::printf("%s%s=%llu", first ? "" : " ",
                sim::category_name(static_cast<sim::EventCategory>(i)),
                static_cast<unsigned long long>(st.executed_by_category[i]));
    first = false;
  }
  std::printf("), %llu cancelled, queue ", static_cast<unsigned long long>(st.cancelled));
  if (!sim.parallel()) std::printf("peak=%zu ", st.peak_pending);
  std::printf("now=%zu", st.pending);
  if (st.events_per_sec > 0) std::printf(", %.2f Mevents/s", st.events_per_sec / 1e6);
  std::printf("\n");
}

/// --chaos=<name>: runs the row and prints the recovery report; exits 0 iff
/// every gate of the row held.
int run_chaos(stress::Campaign& c, const Options& o) {
  const stress::Scenario& s = c.scenario();
  std::printf("chaos plan=%s on the Fig. 5 tree%s, seed=%llu", s.name.c_str(),
              s.setting.c_str(), static_cast<unsigned long long>(o.seed));
  if (s.watchdog)
    std::printf(" (watchdog check=%s backoff=%s)",
                format_duration(s.watchdog->check_period).c_str(),
                format_duration(s.watchdog->reinit_backoff).c_str());
  std::printf("\n");
  if (o.holdover_ceiling > 0)
    std::printf("holdover refuse-to-serve ceiling: %s\n",
                format_duration(o.holdover_ceiling).c_str());
  c.run();
  report_threads(c.sim(), o.threads);
  report_obs_files(o);

  c.report().print(std::cout);
  if (const dtp::HealthWatchdog* wd = c.watchdog()) {
    for (std::size_t i = 0; i < wd->watch_count(); ++i) {
      const dtp::WatchdogPortStats& ws = wd->watch_stats(i);
      if (ws.suspects == 0) continue;
      std::printf("  watchdog %s: %s suspects=%llu quarantines=%llu reinits=%llu "
                  "attempts=%d first-suspected=%.1f us\n",
                  wd->watch_label(i).c_str(), dtp::to_string(wd->watch_health(i)),
                  static_cast<unsigned long long>(ws.suspects),
                  static_cast<unsigned long long>(ws.quarantines),
                  static_cast<unsigned long long>(ws.reinits), ws.attempts,
                  to_ns_f(ws.first_suspected_at) / 1000.0);
    }
    for (const auto& v : wd->verdicts())
      std::printf("  verdict %s:%zu at %.1f us: %s\n", v.device.c_str(), v.port,
                  to_ns_f(v.at) / 1000.0, v.reason.c_str());
  }
  if (const check::Sentinel* sentinel = c.sentinel())
    for (const auto& v : sentinel->violations())
      std::printf("  !! %s\n", v.to_string().c_str());
  std::string failed;
  for (const stress::Gate& g : s.gates)
    if (!g.holds(c)) failed += (failed.empty() ? "" : "; ") + g.name;
  std::printf("verdict: %s\n", failed.empty() ? "PASS" : ("FAIL (" + failed + ")").c_str());
  return failed.empty() ? 0 : 1;
}

void write_json_summary(const std::string& path, const char* mode,
                        std::uint32_t campaigns,
                        const std::vector<stress::CampaignResult>& failures) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw UsageError("cannot write --json-out=" + path);
  out << "{\n  \"mode\": \"" << mode << "\",\n  \"campaigns\": " << campaigns
      << ",\n  \"failures\": [\n";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const auto& f = failures[i];
    out << "    {\"sim_seed\": " << f.spec.sim_seed << ", \"digest\": \""
        << f.digest.hex() << "\", \"violations\": [";
    for (std::size_t v = 0; v < f.violations.size(); ++v)
      out << (v ? ", " : "") << "\"" << obs::json_escape(f.violations[v].to_string()) << "\"";
    out << "]}" << (i + 1 < failures.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"clean\": " << (failures.empty() ? "true" : "false") << "\n}\n";
  out.flush();
  if (!out)
    throw std::runtime_error("short write to --json-out=" + path +
                             " (disk full or file truncated?)");
}

/// --stress=N: the fuzzer batch. Every campaign is invariant-checked; any
/// failure is written out as a replayable repro plus a shrunken minimal one.
int run_stress(const Options& o) {
  std::printf("stress: %u campaigns from master seed %llu (differential on "
              "multi-threaded and bridged specs)\n",
              o.stress, static_cast<unsigned long long>(o.seed));
  std::vector<stress::CampaignResult> failures;
  std::uint64_t events = 0;
  for (std::uint32_t i = 0; i < o.stress; ++i) {
    stress::CampaignResult r = stress::run_differential(stress::generate(o.seed, i));
    events += r.events_executed;
    if (r.clean()) continue;

    const std::string base =
        "dtpsim-repro-" + std::to_string(o.seed) + "-" + std::to_string(i);
    stress::write_repro(r.spec, base + ".txt");
    std::printf("campaign %u: %zu violation(s); repro written to %s.txt\n", i,
                r.violations.size(), base.c_str());
    for (const auto& v : r.violations) std::printf("  %s\n", v.to_string().c_str());

    const stress::ShrinkResult s = stress::shrink(r.spec, r);
    stress::write_repro(s.minimal, base + "-min.txt");
    std::printf("  shrunk %.0f -> %.0f (size units, %d runs, %d reductions): %s-min.txt\n",
                s.original_size, s.minimal_size, s.runs, s.reductions, base.c_str());
    if (obs_requested(o)) {
      // Replay the failing campaign with observability attached so the repro
      // ships with an inspectable timeline of the violation.
      obs::SessionConfig oo = obs_config(o);
      if (!o.trace.empty()) oo.trace_path = base + ".trace.json";
      if (!o.metrics.empty()) oo.metrics_path = base + ".metrics.json";
      stress::run_campaign(r.spec, &oo);
      if (!oo.trace_path.empty())
        std::printf("  failing campaign trace written to %s\n", oo.trace_path.c_str());
      if (!oo.metrics_path.empty())
        std::printf("  failing campaign metrics written to %s\n", oo.metrics_path.c_str());
    }
    failures.push_back(std::move(r));
  }
  std::printf("stress: %u/%u campaigns clean, %llu events executed\n",
              o.stress - static_cast<std::uint32_t>(failures.size()), o.stress,
              static_cast<unsigned long long>(events));
  if (!o.json_out.empty()) write_json_summary(o.json_out, "stress", o.stress, failures);
  return failures.empty() ? 0 : 1;
}

/// --repro=FILE: deterministic replay; the sentinel verdict is the exit
/// status (0 clean, 1 violations; a malformed file is a usage error, 2). A
/// spec its own topology cannot run (a device or cable it does not build, a
/// shape the builders reject or one too large to build) or whose sentinel
/// would never sample is malformed too: run_campaign's contract gives
/// std::invalid_argument that meaning.
int run_repro(const Options& o) {
  stress::StressSpec spec;
  try {
    spec = stress::load_repro(o.repro);
  } catch (const std::exception& e) {
    throw UsageError(std::string("--repro: ") + e.what());
  }
  stress::CampaignResult r;
  try {
    if (obs_requested(o)) {
      // Observability changes the event schedule (snapshot events), so the
      // differential serial-vs-parallel digest compare does not apply here.
      const obs::SessionConfig oo = obs_config(o);
      r = stress::run_campaign(spec, &oo);
    } else {
      r = stress::run_differential(spec);
    }
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string("--repro: ") + e.what());
  }
  if (obs_requested(o)) report_obs_files(o);
  std::printf("repro %s: threads=%u shards=%d events=%llu digest=%s\n", o.repro.c_str(),
              spec.threads, r.shards, static_cast<unsigned long long>(r.events_executed),
              r.digest.hex().c_str());
  for (const auto& v : r.violations) std::printf("  %s\n", v.to_string().c_str());
  std::printf("verdict: %s\n", r.clean() ? "CLEAN" : "VIOLATED");
  if (!o.json_out.empty())
    write_json_summary(o.json_out, "repro", 1,
                       r.clean() ? std::vector<stress::CampaignResult>{}
                                 : std::vector<stress::CampaignResult>{r});
  return r.clean() ? 0 : 1;
}

/// --app=owd|lww|tdma: runs the row and prints each app's verdict. PASS
/// requires zero app correctness failures and zero understated-uncertainty
/// violations outside the cold-start blackout.
int run_app(stress::Campaign& c, const Options& o) {
  std::printf("app=%s topology=%s hosts=%zu readers/host=%zu seed=%llu\n", o.app.c_str(),
              o.topology.c_str(), c.hosts().size(), readers_per_host(o),
              static_cast<unsigned long long>(o.seed));
  c.start();
  report_threads(c.sim(), o.threads);
  c.sim().run_until(c.scenario().horizon);
  c.finish();
  report_obs_files(o);

  bool ok = true;
  for (const auto& v : c.apps()->verdicts()) {
    std::printf("app %s: ops=%llu failures=%llu detected=%llu worst=%.1f ns (%s)\n",
                v.app.c_str(), static_cast<unsigned long long>(v.ops),
                static_cast<unsigned long long>(v.failures),
                static_cast<unsigned long long>(v.detected), v.worst_error_ns,
                v.detail.c_str());
    ok &= v.failures == 0 && v.ops > 0;
  }
  if (apps::ReaderFleet* fleet = c.apps()->readers()) {
    std::printf("readers: %zu lock-free, %llu reads (%llu stale), digest=%s\n",
                fleet->size(), static_cast<unsigned long long>(fleet->total_reads()),
                static_cast<unsigned long long>(fleet->total_stale_reads()),
                fleet->digest().hex().c_str());
    ok &= fleet->total_reads() > 0;
  }
  const check::Sentinel& sentinel = *c.sentinel();
  std::uint64_t timebase_violations = 0;
  for (const auto& v : sentinel.violations()) {
    if (v.kind == check::InvariantKind::kTimebaseUncertainty) ++timebase_violations;
    std::printf("  !! %s\n", v.to_string().c_str());
  }
  std::printf("sentinel: %llu page checks, %llu understated-uncertainty violation(s)\n",
              static_cast<unsigned long long>(sentinel.stats().timebase_checks),
              static_cast<unsigned long long>(timebase_violations));
  ok &= sentinel.stats().timebase_checks > 0 && timebase_violations == 0;
  std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Worst |offset| over the second half of every client's true-offset series.
template <typename Clients>
double worst_offset(const Clients& clients) {
  double worst = 0;
  for (const auto& c : clients) {
    const auto& pts = c->true_series().points();
    for (std::size_t i = pts.size() / 2; i < pts.size(); ++i)
      worst = std::max(worst, std::abs(pts[i].value));
  }
  return worst;
}

/// --protocol=...: settle, start --load, run the measured window (DTP
/// sampling its worst pairwise offset every 100 us), print the report. A
/// DTP run exits 1 if the 4TD bound is violated.
int run_protocol(stress::Campaign& c, const Options& o) {
  sim::Simulator& sim = c.sim();
  const std::vector<net::Host*>& hosts = c.hosts();
  const std::size_t diameter = net::hop_diameter(c.net());
  std::printf("topology=%s devices=%zu hosts=%zu diameter=%zu hops rate=%s\n",
              o.topology.c_str(), c.net().devices().size(), hosts.size(), diameter,
              o.rate.c_str());

  const fs_t end = c.scenario().horizon;
  c.start();
  report_threads(sim, o.threads);
  sim.run_until(settle_of(o));
  if (o.load == "heavy" && hosts.size() >= 2) {
    saturate_ring(c.net(), hosts);
    std::printf("load: saturating MTU traffic between all hosts\n");
  }
  double worst_ticks = 0;
  if (c.scenario().dtp) {
    // Sample every 100 us; the last slice ends at the horizon itself.
    while (sim.now() < end) {
      sim.run_until(std::min(sim.now() + from_us(100), end));
      worst_ticks = std::max(worst_ticks, c.dtp().max_pairwise_offset_ticks(sim.now()));
    }
  } else {
    sim.run_until(end);
  }
  c.finish();
  report_obs_files(o);

  if (o.protocol == "ptp") {
    std::printf("protocol=ptp clients=%zu worst offset=%.1f ns packets=%llu\n",
                c.ptp_clients().size(), worst_offset(c.ptp_clients()),
                static_cast<unsigned long long>(c.grandmaster()->packets_sent()));
    print_stats(sim);
    return 0;
  }
  if (o.protocol == "ntp") {
    const double worst = worst_offset(c.ntp_clients());
    std::printf("protocol=ntp clients=%zu worst offset=%.1f ns (%.2f us)\n",
                c.ntp_clients().size(), worst, worst / 1000.0);
    print_stats(sim);
    return 0;
  }
  const double tick_ns = to_ns_f(phy::nominal_period(c.scenario().net.rate));
  const double bound_ticks = 4.0 * static_cast<double>(diameter);
  std::printf("protocol=%s beacon=%lld ticks all-synced=%s\n", o.protocol.c_str(),
              static_cast<long long>(o.beacon), c.dtp().all_synced() ? "yes" : "NO");
  std::printf("worst pairwise offset: %.2f ticks = %.1f ns\n", worst_ticks,
              worst_ticks * tick_ns);
  std::printf("4TD bound (D=%zu):      %.1f ticks = %.1f ns -> %s\n", diameter, bound_ticks,
              bound_ticks * tick_ns, worst_ticks <= bound_ticks + 1 ? "HOLDS" : "VIOLATED");
  std::uint64_t frames = 0;
  for (auto* h : hosts) frames += h->nic().stats().tx_frames;
  std::printf("protocol packet overhead: 0 (hosts sent %llu frames, all application)\n",
              static_cast<unsigned long long>(frames));
  print_stats(sim);
  return worst_ticks <= bound_ticks + 1 ? 0 : 1;
}

int run(const Options& o) {
  if (o.stress > 0) return run_stress(o);
  if (!o.repro.empty()) return run_repro(o);
  stress::Campaign c(row_of(o), {o.seed, o.threads, o.bridged, obs_config(o)});
  if (!o.chaos.empty()) return run_chaos(c, o);
  return o.app.empty() ? run_protocol(c, o) : run_app(c, o);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h" || a == "--help=true") {
      std::printf("%s", usage().c_str());
      return 0;
    }
  }
  try {
    return run(parse(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dtpsim: %s\n%s", e.what(), usage().c_str());
    return 2;
  } catch (const std::exception& e) {
    // Runtime failures (e.g. an observability or summary file that cannot be
    // written) fail loudly with a distinct status instead of a silent 0.
    std::fprintf(stderr, "dtpsim: %s\n", e.what());
    return 1;
  }
}
