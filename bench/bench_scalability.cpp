/// Scalability — precision and cost vs network size.
///
/// The paper's claim: "DTP scales. The precision only depends on the number
/// of hops between any two nodes" (takeaway 3) — not on the number of
/// devices. Sweep star sizes (constant 2-hop diameter, growing device
/// count), then a fat-tree k-sweep (k = 4, 8, 16, 32 — up to 8192 hosts /
/// 9472 devices, all at the 6-hop multi-pod diameter) on the parallel
/// engine, reporting per point: precision vs the 4D+1 bound, events/sec,
/// critical-path speedup, and peak RSS. The k=32 point is additionally
/// digest-compared against a serial run of the same seed (bit-exactness at
/// datacenter scale). `--quick` runs the k <= 16 prefix and skips the
/// serial compare. Emits BENCH_scalability.json with the sweep as a JSON
/// array ("k_sweep"), one entry per point.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/table.hpp"
#include "bench_util.hpp"
#include "check/sentinel.hpp"
#include "dtp/agent.hpp"
#include "dtp/network.hpp"
#include "net/device.hpp"
#include "net/topology.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

struct ScaleResult {
  std::size_t devices;
  double worst_ticks;
  double wall_seconds;
  std::uint64_t events;
  double cp_speedup;  ///< 0 when run serially
};

ScaleResult run_star(std::size_t n_hosts, fs_t duration, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim(seed);
  net::Network net(sim);
  net::build_star(net, n_hosts);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(from_ms(3));
  ScaleResult r{};
  r.devices = net.devices().size();
  while (sim.now() < from_ms(3) + duration) {
    sim.run_until(sim.now() + from_us(200));
    r.worst_ticks = std::max(r.worst_ticks, dtp.max_pairwise_offset_ticks(sim.now()));
  }
  r.events = sim.events_executed();
  r.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

/// Quiet paper-tree run (synced DTP, no data traffic — pure beacon cadence)
/// on the exact or the bridged engine, for the end-to-end engine-mode
/// comparison. Serial, identical seed: the two runs must execute the
/// identical event schedule, so events and offsets match bit-for-bit and
/// only wall time moves.
struct EngineModeResult {
  double wall_seconds;
  std::uint64_t events;
  std::uint64_t fused;
  double worst_ticks;
  std::uint64_t port_ticks;  ///< block slots of PHY time the run covered
};

constexpr fs_t kTickFs = 6'400'000;  // one 64b/66b block per 6.4 ns tick

EngineModeResult run_quiet_tree(bool bridged, fs_t settle, fs_t duration,
                                std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim(seed);
  sim.set_engine(bridged ? sim::Simulator::EngineMode::kBridged
                         : sim::Simulator::EngineMode::kExact);
  net::Network net(sim);
  net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(settle);
  EngineModeResult r{};
  while (sim.now() < settle + duration) {
    sim.run_until(sim.now() + from_us(500));
    r.worst_ticks = std::max(r.worst_ticks, dtp.max_pairwise_offset_ticks(sim.now()));
  }
  r.events = sim.events_executed();
  r.fused = sim.stats().fused;
  std::uint64_t ports = 0;
  for (const net::Device* d : net.devices()) ports += d->port_count();
  r.port_ticks = ports * static_cast<std::uint64_t>(sim.now() / kTickFs);
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

/// The motivating premise's engine (ISSUE 6 / ROADMAP item 1): every idle
/// 64b/66b block edge is an event — one per tick per port. Measured on the
/// slab engine with a trivial scrambler-cost handler, i.e. the strongest
/// version of the per-block design, to get the Mev/s ceiling the analytic
/// engines are compared against.
double per_block_reference_eps(std::uint64_t ports, std::uint64_t n_events) {
  sim::Simulator sim(1);
  struct PortClock {
    sim::Simulator* sim;
    std::uint64_t lfsr = 0x9E3779B97F4A7C15ULL;
    void tick() {
      lfsr ^= lfsr << 13;
      lfsr ^= lfsr >> 7;  // stand-in for the 58-bit scrambler step
      sim->schedule_in(kTickFs, [this] { tick(); });
    }
  };
  std::deque<PortClock> clocks;
  for (std::uint64_t i = 0; i < ports; ++i) {
    clocks.push_back(PortClock{&sim});
    PortClock* c = &clocks.back();
    sim.schedule_in(static_cast<fs_t>(1 + i), [c] { c->tick(); });
  }
  const fs_t horizon = static_cast<fs_t>(n_events / ports) * kTickFs;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(sim.events_executed()) / wall;
}

/// Process peak RSS in MiB via getrusage. Monotone over the process
/// lifetime, so in an ascending sweep each point's value is the true peak
/// for the largest fabric built so far.
long peak_rss_mb() {
#if defined(__APPLE__)
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<long>(ru.ru_maxrss / (1024 * 1024));
#elif defined(__unix__)
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<long>(ru.ru_maxrss / 1024);
#else
  return 0;
#endif
}

struct FtResult {
  std::size_t devices = 0;
  std::size_t hosts = 0;
  std::size_t diameter = 0;
  bool synced = false;  ///< every port SYNCED when the settle window ended
  double worst_ticks = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;
  /// Events and run_until wall time after the settle window: the quiet
  /// beacon cycle alone, without set-up, INIT or the offset probes.
  std::uint64_t quiet_events = 0;
  double quiet_wall_seconds = 0;
  std::uint64_t quiet_fused = 0;  ///< of quiet_events, fused inline (SimStats::fused)
  double cp_speedup = 0;  ///< 0 when run serially
  long rss_mb = 0;
  check::RunDigest digest;  ///< see run_fat_tree
};

/// One fat-tree point, serial (threads = 1) or on the parallel engine. The
/// digest folds every agent's offset at each fixed probe time plus the
/// final per-port frame/control-block counters and the engine's event
/// totals — two runs of the same seed are bit-exact iff digests match, and
/// the fold itself adds no instrumentation to the run being timed.
FtResult run_fat_tree(const net::FatTreeParams& fp, unsigned threads, fs_t settle,
                      fs_t duration, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim(seed);
  net::Network net(sim);
  const net::FatTreeTopology topo = net::build_fat_tree(net, fp);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  if (threads > 1) sim.set_threads(threads);
  sim.run_until(settle);
  FtResult r;
  r.devices = net.devices().size();
  r.hosts = topo.hosts.size();
  r.synced = dtp.all_synced();
  const std::vector<net::Device*> devices = net.devices();
  const dtp::Agent* ref = dtp.agent_of(devices.front());
  const std::uint64_t settled_events = sim.events_executed();
  const std::uint64_t settled_fused = sim.stats().fused;
  while (sim.now() < settle + duration) {
    const auto slice0 = std::chrono::steady_clock::now();
    sim.run_until(sim.now() + from_us(100));
    r.quiet_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - slice0).count();
    r.worst_ticks = std::max(r.worst_ticks, dtp.max_pairwise_offset_ticks(sim.now()));
    for (const net::Device* d : devices) {
      const dtp::Agent* a = dtp.agent_of(d);
      r.digest.mix(std::bit_cast<std::uint64_t>(
          a != nullptr && ref != nullptr ? dtp::true_offset_fractional(*a, *ref, sim.now())
                                         : 0.0));
    }
  }
  r.events = sim.events_executed();
  r.quiet_events = r.events - settled_events;
  r.quiet_fused = sim.stats().fused - settled_fused;
  r.digest.mix(r.events);
  r.digest.mix(sim.stats().scheduled);
  for (net::Device* d : devices)
    for (std::size_t p = 0; p < d->port_count(); ++p) {
      r.digest.mix(d->port(p).frames_sent());
      r.digest.mix(d->port(p).control_blocks_sent());
    }
  r.cp_speedup = sim.parallel() ? sim.parallel_stats().critical_path_speedup() : 0;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.rss_mb = peak_rss_mb();
  r.diameter = net::hop_diameter(net);  // after the timed run: all-pairs BFS
  return r;
}

/// How tightly the beacons arriving at one switch bunch up, after settle.
struct ArrivalSpread {
  std::size_t ports = 0;
  std::size_t rounds = 0;        ///< bunches of arrivals seen
  double median_size = 0;        ///< arrivals per bunch
  double median_spread_ns = 0;   ///< first to last arrival of a bunch
  double max_spread_ns = 0;
  double tight_share = 0;        ///< bunches no wider than one CDC crossing
  double median_gap_ns = 0;      ///< between consecutive arrivals of a bunch
  double close_gap_share = 0;    ///< gaps shorter than one CDC crossing
};

/// Records every control block's wire arrival at the ports of the first
/// aggregation switch over `window` after `settle`, and groups them into
/// bunches: an arrival more than half a beacon interval after the bunch's
/// first starts the next one. Beacon chains that run in phase give one
/// bunch per interval, one arrival per port, a few ticks wide; chains at
/// random phases give bunches half an interval wide. A CDC crossing spans
/// the phase wait plus the pipeline (pipeline_cycles + 1 ticks).
ArrivalSpread beacon_arrival_spread(const net::FatTreeParams& fp, fs_t settle,
                                    fs_t window, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const net::FatTreeTopology topo = net::build_fat_tree(net, fp);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(settle);
  net::Device& sw = *topo.agg.front();
  std::vector<fs_t> arrivals;
  for (std::size_t p = 0; p < sw.port_count(); ++p)
    sw.port(p).set_probe_control_rx(
        [&arrivals](const phy::ControlRx& rx) { arrivals.push_back(rx.wire_arrival); });
  sim.run_until(settle + window);
  for (std::size_t p = 0; p < sw.port_count(); ++p) sw.port(p).set_probe_control_rx(nullptr);

  std::sort(arrivals.begin(), arrivals.end());
  const fs_t tick = sw.oscillator().nominal_period();
  const fs_t half_interval = dtp.params().beacon_interval_ticks * tick / 2;
  const fs_t crossing =
      (sw.port(0).params().fifo.pipeline_cycles + 1) * tick;
  std::vector<double> sizes, spreads, gaps;
  std::size_t tight = 0, close = 0;
  for (std::size_t i = 0; i < arrivals.size();) {
    std::size_t j = i;
    while (j < arrivals.size() && arrivals[j] - arrivals[i] <= half_interval) {
      if (j > i) {
        gaps.push_back(to_ns_f(arrivals[j] - arrivals[j - 1]));
        if (arrivals[j] - arrivals[j - 1] < crossing) ++close;
      }
      ++j;
    }
    const fs_t spread = arrivals[j - 1] - arrivals[i];
    sizes.push_back(static_cast<double>(j - i));
    spreads.push_back(to_ns_f(spread));
    if (spread <= crossing) ++tight;
    i = j;
  }
  ArrivalSpread a;
  a.ports = sw.port_count();
  a.rounds = spreads.size();
  if (a.rounds == 0) return a;
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  a.median_size = median(sizes);
  a.median_spread_ns = median(spreads);
  a.max_spread_ns = *std::max_element(spreads.begin(), spreads.end());
  a.tight_share = static_cast<double>(tight) / static_cast<double>(a.rounds);
  if (!gaps.empty()) {
    a.median_gap_ns = median(gaps);
    a.close_gap_share = static_cast<double>(close) / static_cast<double>(gaps.size());
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 0.2);
  const fs_t ft_duration = static_cast<fs_t>(
      flags.get_double("ft-seconds", 0.0003) * static_cast<double>(kFsPerSec));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6090));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));

  BenchJson json;
  json.add("bench", std::string("scalability"));

  banner("Scalability  precision vs device count (constant diameter)");

  Table t({"hosts", "devices", "worst offset (ticks)", "bound (2 hops)", "events",
           "wall (s)"});
  bool flat = true;
  double first = 0, last = 0;
  std::uint64_t s = seed;
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const ScaleResult r = run_star(n, duration, s++);
    t.add_row({Table::cell("%zu", n), Table::cell("%zu", r.devices),
               Table::cell("%.2f", r.worst_ticks), "8.0",
               Table::cell("%llu", static_cast<unsigned long long>(r.events)),
               Table::cell("%.2f", r.wall_seconds)});
    flat &= r.worst_ticks <= 8.0;
    if (n == 2) first = r.worst_ticks;
    if (n == 64) {
      last = r.worst_ticks;
      json.add("star64_worst_ticks", r.worst_ticks);
      json.add("star64_events", r.events);
    }
  }
  std::printf("\n%s\n", t.render().c_str());

  banner("Scalability  fat-tree k-sweep to 8192 hosts (multi-pod, parallel engine)");

  // k=4 canonical; k=8/k=16 with 4 hosts per edge switch grow the host
  // count to 128 and 512; k=32 with 16 hosts per edge is the 8192-host /
  // 9472-device datacenter point. The diameter stays 6 across the whole
  // sweep, so the 4D+1 bound must not move while the device count grows
  // 260x — that is the paper's takeaway 3, measured.
  const bool quick = flags.has("quick");
  struct FtCase { int k; int hpe; };
  std::vector<FtCase> cases = {{4, -1}, {8, 4}, {16, 4}, {32, 16}};
  if (quick) cases.pop_back();  // --quick: the k <= 16 prefix
  // The k=32 point simulates ~50k ports; a shorter (still converged —
  // checked below) window keeps its two runs affordable.
  const fs_t k32_settle = static_cast<fs_t>(
      flags.get_double("k32-settle-seconds", 0.0004) * static_cast<double>(kFsPerSec));
  const fs_t k32_duration = static_cast<fs_t>(
      flags.get_double("k32-seconds", 0.0001) * static_cast<double>(kFsPerSec));

  Table ft({"k", "hosts", "devices", "worst (ticks)", "bound 4D+1", "events",
            "Mev/s", "quiet ns/ev", "quiet fused", "cp speedup", "rss (MB)", "wall (s)"});
  bool ft_ok = true;
  bool ft_synced = true;
  std::string sweep = "[";
  FtResult k32;
  net::FatTreeParams k32_params;
  std::uint64_t k32_seed = 0;
  for (const FtCase c : cases) {
    net::FatTreeParams fp;
    fp.k = c.k;
    fp.hosts_per_edge = c.hpe;
    const fs_t settle = c.k == 32 ? k32_settle : from_ms(1);
    const fs_t dur = c.k == 32 ? k32_duration : ft_duration;
    const std::uint64_t case_seed = s++;
    const FtResult r = run_fat_tree(fp, threads, settle, dur, case_seed);
    const double bound = 4.0 * static_cast<double>(r.diameter) + 1;
    const double eps = r.wall_seconds > 0
                           ? static_cast<double>(r.events) / r.wall_seconds
                           : 0;
    const double quiet_ns = r.quiet_events > 0 ? r.quiet_wall_seconds * 1e9 /
                                                     static_cast<double>(r.quiet_events)
                                               : 0;
    const double fused_share = r.quiet_events > 0
                                   ? static_cast<double>(r.quiet_fused) /
                                         static_cast<double>(r.quiet_events)
                                   : 0;
    ft.add_row({Table::cell("%d", c.k), Table::cell("%zu", r.hosts),
                Table::cell("%zu", r.devices), Table::cell("%.2f", r.worst_ticks),
                Table::cell("%.0f", bound),
                Table::cell("%llu", static_cast<unsigned long long>(r.events)),
                Table::cell("%.2f", eps / 1e6), Table::cell("%.0f", quiet_ns),
                Table::cell("%.3f", fused_share),
                r.cp_speedup > 0 ? Table::cell("%.2fx", r.cp_speedup) : "serial",
                Table::cell("%ld", r.rss_mb), Table::cell("%.2f", r.wall_seconds)});
    ft_ok &= r.worst_ticks <= bound;
    ft_synced &= r.synced;
    char entry[512];
    std::snprintf(entry,
                  sizeof(entry),
                  "%s{\"k\": %d, \"hosts\": %zu, \"devices\": %zu, "
                  "\"diameter_hops\": %zu, \"worst_ticks\": %.6g, "
                  "\"bound_ticks\": %.6g, \"events\": %llu, "
                  "\"events_per_sec\": %.6g, \"quiet_ns_per_event\": %.6g, "
                  "\"quiet_fused_share\": %.6g, "
                  "\"cp_speedup\": %.6g, \"peak_rss_mb\": %ld, \"wall_seconds\": %.6g}",
                  sweep.size() > 1 ? ", " : "", c.k, r.hosts, r.devices, r.diameter,
                  r.worst_ticks, bound, static_cast<unsigned long long>(r.events),
                  eps, quiet_ns, fused_share, r.cp_speedup, r.rss_mb, r.wall_seconds);
    sweep += entry;
    if (c.k == 32) {
      k32 = r;
      k32_params = fp;
      k32_seed = case_seed;
    }
  }
  sweep += "]";
  json.add_raw("k_sweep", sweep);
  json.add("quick", quick);
  std::printf("\n%s\n", ft.render().c_str());

  // Why few CDC visibility events fuse at k=16 (DESIGN.md §12): the apply
  // gate yields to a same-node arrival pending before the visible edge, and
  // that is common exactly when a switch's beacons arrive bunched.
  {
    net::FatTreeParams fp;
    fp.k = 16;
    fp.hosts_per_edge = 4;
    const ArrivalSpread a = beacon_arrival_spread(fp, from_ms(1), from_us(100), seed);
    std::printf("beacon arrivals at one k=16 aggregation switch (%zu ports, 100 us after a "
                "1 ms settle): %zu bunches, median %.0f arrivals spread %.1f ns (max "
                "%.1f ns); %.0f%% of bunches within one CDC crossing; median gap "
                "between arrivals %.1f ns, %.0f%% of gaps shorter than a crossing\n\n",
                a.ports, a.rounds, a.median_size, a.median_spread_ns, a.max_spread_ns,
                100.0 * a.tight_share, a.median_gap_ns, 100.0 * a.close_gap_share);
    json.add("k16_arrival_bunch_median_size", a.median_size);
    json.add("k16_arrival_bunch_median_spread_ns", a.median_spread_ns);
    json.add("k16_arrival_bunch_max_spread_ns", a.max_spread_ns);
    json.add("k16_arrival_bunch_tight_share", a.tight_share);
    json.add("k16_arrival_median_gap_ns", a.median_gap_ns);
    json.add("k16_arrival_close_gap_share", a.close_gap_share);
  }

  // Datacenter-scale determinism: the 8192-host point, re-run serially with
  // the same seed, must produce the identical observable-output digest —
  // the conservative engine's bit-exactness claim does not erode at scale.
  bool k32_bit_exact = true;  // vacuously true under --quick
  if (!quick) {
    banner("Determinism  k=32 (8192 hosts) serial vs 4-thread digest compare");
    const FtResult ser = run_fat_tree(k32_params, 1, k32_settle, k32_duration, k32_seed);
    k32_bit_exact = ser.digest == k32.digest && ser.events == k32.events;
    std::printf("  parallel: %llu events  digest %s\n",
                static_cast<unsigned long long>(k32.events), k32.digest.hex().c_str());
    std::printf("  serial:   %llu events  digest %s  (%.2f s wall)\n\n",
                static_cast<unsigned long long>(ser.events), ser.digest.hex().c_str(),
                ser.wall_seconds);
    json.add("k32_bit_exact", k32_bit_exact);
    json.add("k32_serial_wall_seconds", ser.wall_seconds);
  }

  banner("Engine mode  quiet paper tree, exact vs tick-bridged (serial)");

  // A synced tree with no data traffic is the bridged engine's home turf:
  // every beacon cascade rides POD steps and ~half its events fuse inline.
  // Protocol handler bodies dominate this workload, so the end-to-end win is
  // modest by design — the >= 10x engine-overhead number lives in
  // BENCH_event_loop.json's quiet-cascade section (see EXPERIMENTS.md).
  const fs_t bridge_duration = static_cast<fs_t>(
      flags.get_double("bridge-seconds", 0.02) * static_cast<double>(kFsPerSec));
  // Wall time on a shared host is one-sided noise (interference only ever
  // slows a run down), so take the best of three: the simulated work is
  // deterministic — identical events, digests, offsets every repeat — and
  // only the wall clock varies.
  EngineModeResult ex = run_quiet_tree(false, from_ms(3), bridge_duration, seed);
  EngineModeResult br = run_quiet_tree(true, from_ms(3), bridge_duration, seed);
  for (int rep = 1; rep < 3; ++rep) {
    const EngineModeResult ex2 = run_quiet_tree(false, from_ms(3), bridge_duration, seed);
    const EngineModeResult br2 = run_quiet_tree(true, from_ms(3), bridge_duration, seed);
    if (ex2.wall_seconds < ex.wall_seconds) ex = ex2;
    if (br2.wall_seconds < br.wall_seconds) br = br2;
  }
  const double eps_exact = static_cast<double>(ex.events) / ex.wall_seconds;
  const double eps_bridged = static_cast<double>(br.events) / br.wall_seconds;
  const double bridged_speedup = eps_exact > 0 ? eps_bridged / eps_exact : 0;
  const double fused_frac =
      br.events > 0 ? static_cast<double>(br.fused) / static_cast<double>(br.events)
                    : 0;
  const bool engine_identical =
      ex.events == br.events && ex.worst_ticks == br.worst_ticks;
  std::printf("  exact:   %8llu events  %6.2f Mevents/s  %.3f s  worst %.2f ticks\n",
              static_cast<unsigned long long>(ex.events), eps_exact / 1e6,
              ex.wall_seconds, ex.worst_ticks);
  std::printf("  bridged: %8llu events  %6.2f Mevents/s  %.3f s  worst %.2f ticks"
              "  (%.0f%% fused)\n",
              static_cast<unsigned long long>(br.events), eps_bridged / 1e6,
              br.wall_seconds, br.worst_ticks, 100.0 * fused_frac);
  std::printf("  bridged speedup: %.2fx end-to-end (handler bodies dominate)\n\n",
              bridged_speedup);

  // The acceptance surface for the >= 10x event-rate claim: how fast each
  // design retires quiet PHY block-time. A per-block engine pays one event
  // per port-tick; the bridged engine covers the same port-ticks with two
  // heap steps per beacon cascade. Both sides measured, nothing simulated
  // away: port_ticks counts every block slot the quiet run's wall time paid
  // for.
  const std::uint64_t quiet_ports =
      br.port_ticks / static_cast<std::uint64_t>((from_ms(3) + bridge_duration) / kTickFs);
  const double per_block_eps = per_block_reference_eps(quiet_ports, 2'000'000);
  const double bridged_block_rate =
      static_cast<double>(br.port_ticks) / br.wall_seconds;
  const double quiet_rate_win = per_block_eps > 0 ? bridged_block_rate / per_block_eps : 0;
  std::printf("  per-block reference engine (%llu port clocks): %6.2f M block-events/s\n",
              static_cast<unsigned long long>(quiet_ports), per_block_eps / 1e6);
  std::printf("  bridged block-time retirement:                 %6.2f M port-ticks/s"
              "  -> %.0fx\n\n",
              bridged_block_rate / 1e6, quiet_rate_win);

  const bool pass =
      benchutil::check("precision independent of device count (all stars within the 2-hop bound)",
            flat) &
      benchutil::check("64 hosts no worse than 2 (within one tick)", last <= first + 4.0) &
      benchutil::check("every fat-tree point within its 4D+1 bound", ft_ok) &
      benchutil::check("every fat-tree point fully synced before measuring", ft_synced) &
      benchutil::check(quick ? "k=32 serial-vs-parallel compare (skipped under --quick)"
                             : "k=32 (8192 hosts) 4-thread run bit-exact vs serial",
            k32_bit_exact) &
      benchutil::check("bridged run bit-identical to exact (events and worst offset)",
            engine_identical) &
      benchutil::check("bridged engine >= 1.3x end-to-end on the quiet tree", bridged_speedup >= 1.3) &
      benchutil::check("quiet block-time retired >= 10x faster than the per-block engine",
            quiet_rate_win >= 10.0);
  json.add("bridged_events", br.events);
  json.add("exact_events_per_sec", eps_exact);
  json.add("bridged_events_per_sec", eps_bridged);
  json.add("bridged_speedup", bridged_speedup);
  json.add("bridged_fused_fraction", fused_frac);
  json.add("bridged_identical_to_exact", engine_identical);
  json.add("per_block_reference_events_per_sec", per_block_eps);
  json.add("bridged_block_rate_per_sec", bridged_block_rate);
  json.add("quiet_event_rate_win", quiet_rate_win);
  json.add("ft_within_bound", ft_ok);
  json.add("pass", pass);
  json.write(json_out_path(flags, "scalability"));
  return pass ? 0 : 1;
}
