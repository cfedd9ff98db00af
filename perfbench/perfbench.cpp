/// perfbench: the repository benchmark (its contract is BENCHMARK.json at the
/// repository root; `perfbench/run.py` builds this binary and runs it).
///
/// One workload per invocation. A *pass* builds the workload through the
/// layers' public entry points (net::build_paper_tree / build_fat_tree,
/// dtp::enable_dtp, apps::AppHarness, check::Sentinel, Simulator::set_threads),
/// runs a fixed settle window, then a fixed simulated horizon cut into equal
/// `run_until` slices. Every call is timed from outside; nothing in the
/// simulator is modified. A run makes one warm-up pass, then repeats passes
/// until its wall budget is spent, timing a host-speed reference kernel
/// between slices (see ReferenceKernel), and reports per-pass medians and
/// averages (see RunSummary).
///
///   perfbench --workload=fig5_idle --seed=1 --seconds=10 --trace=0
///
/// --trace=0 prints the end-to-end metrics (setup_s, setup_wall_s,
/// sim_rate_norm, sim_rate, slice_ms_p50, slice_ms_p90, peak_rss_mb;
/// fail_frac is failed/attempted);
/// the result line carries setup_s, sim_rate_norm and peak_rss_mb. --trace=1
/// alternates untraced passes with traced ones (spans plus a profile-only
/// obs::Hub), reads the layers' public counters after a traced pass, runs the
/// workload's ablations and microbenchmarks, prints the per-layer metrics and
/// writes every span as Chrome trace_event JSON to --spans-out.
///
/// Every pass is checked: each port SYNCED after settle, each slice-end
/// pairwise offset within 4TD, every app op and sentinel page check clean, and
/// the pass's RunDigest equal to the first pass of the same configuration.
/// The last stdout line is one JSON object with the keys correct, attempted,
/// failed and metrics. Exit: 0 all checks held, 1 a check failed, 2 bad
/// flags or an assert-enabled build.

#include <sched.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "bench_util.hpp"
#include "chaos/campaign.hpp"
#include "check/sentinel.hpp"
#include "common/stats.hpp"
#include "dtp/daemon.hpp"
#include "dtp/network.hpp"
#include "dtp/timebase.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dtpsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads ---------------------------------------------------------------

enum class Topology { kPaperTree, kFatTreeK16 };

struct Workload {
  const char* name;
  Topology topology;
  bool mtu_load;      ///< saturating MTU flows leaf -> leaf under another agg
  bool serve;         ///< daemons + pages + readers + OWD/LWW + sentinel
  int diameter_hops;  ///< D of the 4TD bound
  fs_t settle;        ///< simulated settle window, part of set-up
  fs_t slice;         ///< simulated length of one timed run_until slice
  bool bridged_ablation;
  bool parallel_ablation;  ///< traced run also reruns on kParallelThreads
};

/// Slices per timed horizon: the horizon is slices * slice of simulated time.
constexpr int kSlices = 128;
/// Slices between two reference-kernel chunks (8 chunks per horizon).
constexpr int kSlicesPerReference = 16;
/// Measured passes every run makes at least, after its warm-up pass, so
/// setup_s and sim_rate_norm are medians of several.
constexpr std::size_t kMinPasses = 3;
/// Worker threads of the traced parallel rerun (the host's core count).
constexpr unsigned kParallelThreads = 4;

// Every timed pass runs on the serial engine. A 4-thread run waits on its
// slowest worker every epoch, so on a shared host its wall time swings with
// whatever else runs on any of the four cores (a quartile spread of 0.32 in
// sim_rate over ten runs, against 0.07-0.24 serial). The parallel engine is
// measured by the traced run's rerun instead.
const std::array<Workload, 4> kWorkloads = {{
    {"fig5_idle", Topology::kPaperTree, false, false, 4, from_ms(1), from_us(500), true, false},
    {"fig5_mtu", Topology::kPaperTree, true, false, 4, from_ms(1), from_us(200), true, false},
    {"fattree_k16", Topology::kFatTreeK16, false, false, 6, from_us(100), from_us(2), false,
     true},
    {"fig5_serve", Topology::kPaperTree, false, true, 4, from_ms(6), from_us(500), false, false},
}};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// What a pass changes from its workload (ablations). Default = the workload.
struct Variant {
  bool no_traffic = false;
  bool no_apps = false;
  bool no_sentinel = false;
  bool bridged = false;
  unsigned threads = 1;  ///< Simulator::set_threads argument
  bool profile = false;  ///< attach a profile-only obs::Hub (traced passes)
};

// --- Spans -------------------------------------------------------------------

/// Wall-clock timer for calls into the layers. When enabled it also keeps one
/// span per call in memory, written at exit as Chrome trace_event JSON.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Run `fn`; return its wall seconds and record it as a span when enabled.
  template <typename F>
  double time(const char* cat, const char* name, F&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    if (enabled_) spans_.push_back({name, cat, micros(t0), micros(t1) - micros(t0)});
    return seconds_between(t0, t1);
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path, const std::string& host_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s, \"traceEvents\": [\n",
                 host_json.c_str());
    std::fprintf(f, "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"name\": \"perfbench\"}}");
    for (const Span& s : spans_)
      std::fprintf(f, ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                   s.name, s.cat, s.ts_us, s.dur_us);
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Span {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
  };
  double micros(Clock::time_point t) const { return seconds_between(origin_, t) * 1e6; }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Host-speed reference ----------------------------------------------------

/// A fixed kernel shaped like a discrete-event loop, timed between horizon
/// slices to measure how fast the host runs at that moment.
///
/// A shared host's speed drifts by up to 1.8x in phases of seconds to
/// minutes, and every wall-clock rate drifts with it (ten 36 s runs of one
/// workload spread by a third of their median). Dividing a pass's rate by the
/// speed of this kernel, measured in the same pass, cancels most of that
/// drift: over five runs on a 4-vCPU Xeon VM it cut the quartile spread of
/// fattree_k16's rate from 0.22 to 0.03, and of fig5_mtu's from 0.09 to
/// 0.07. On fattree_k16 this event-queue-sized heap with an L3-sized table
/// tracked the simulator better than a 4 k-entry heap (0.06) or an 8 MiB
/// pointer chase (0.15). It lives here, not in src/, so no change to the
/// simulator changes it.
class ReferenceKernel {
 public:
  /// Wall time of one chunk on the reference-speed host. It only sets the
  /// scale of the normalized figures; a 4-vCPU Xeon VM took 3.1-4.3 ms.
  static constexpr double kNominalChunkS = 2.5e-3;

  ReferenceKernel() : table_(std::size_t{1} << 20) { heap_.reserve(kPending); }

  /// Fill a 16 k-event heap, fire 12 k events (each touching one word of an
  /// 8 MiB table and rescheduling itself); return the chunk's wall seconds.
  double run_chunk_s() {
    const auto later = [](const Event& a, const Event& b) { return a.t > b.t; };
    const auto t0 = Clock::now();
    heap_.clear();
    for (std::size_t k = 0; k < kPending; ++k) {
      heap_.push_back(Event{rng_() >> 40, {}});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    for (int k = 0; k < kFirings; ++k) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      Event e = heap_.back();
      heap_.pop_back();
      std::uint64_t& cell = table_[(e.t * 0x9E3779B97F4A7C15ull) >> 44];
      cell += e.t;
      mix_ ^= cell;
      e.t += (rng_() >> 44) + (mix_ & 7);
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    return seconds_between(t0, Clock::now());
  }

  /// Folded table contents; printing it keeps the work observable.
  std::uint64_t mix() const { return mix_; }

 private:
  struct Event {
    std::uint64_t t;
    std::uint64_t payload[7];  ///< an event slot is one 64-byte cache line
  };
  static constexpr std::size_t kPending = 16384;
  static constexpr int kFirings = 12000;

  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;  ///< 2^20 words: 8 MiB
  std::mt19937_64 rng_{9};
  std::uint64_t mix_ = 0;
};

// --- One pass ----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

struct PassResult {
  double setup_s = 0;
  SampleSeries slice_s;  ///< wall seconds of each horizon slice
  double horizon_s = 0;  ///< their sum
  double reference_s = 0;    ///< wall seconds of the reference chunks between slices
  int reference_chunks = 0;  ///< 0 on the warm-up pass
  check::RunDigest digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  Metrics layer;  ///< per-layer counters and set-up spans of this pass

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  /// Fold a batch of `n` checks of which `bad` failed.
  void check_many(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && first_failure.empty()) first_failure = what;
  }
  fs_t slice_len = 0;  ///< simulated length of each slice
};

net::NetworkParams network_params(const Workload& w) {
  if (!w.serve) return {};
  // The dtpsim --app network: campaign-hardened, with the full
  // strict-priority queue set the page apps' priority-7 frames need.
  net::NetworkParams np = chaos::CanonicalCampaign::net_params();
  np.mac.priority_queues = 8;
  return np;
}

apps::AppHarnessParams serve_params(std::size_t n_hosts) {
  apps::AppHarnessParams hp;
  hp.daemon.poll_period = from_ms(1);
  hp.daemon.sample_period = 0;
  hp.daemon.max_anchor_age = from_us(2500);
  hp.readers_per_host = 16;
  hp.reader_period = from_us(50);
  for (std::size_t i = 0; i < n_hosts / 2; ++i) hp.owd_pairs.emplace_back(i, i + n_hosts / 2);
  for (std::size_t i = 0; i < n_hosts; ++i) hp.lww_ring.push_back(i);
  return hp;
}

/// One pass; `reference` (null on the warm-up pass) runs a chunk after every
/// kSlicesPerReference slices, outside the slice timings.
PassResult run_pass(const Workload& w, std::uint64_t seed, const Variant& v, Spans& spans,
                    ReferenceKernel* reference) {
  PassResult r;
  r.slice_len = w.slice;
  const auto t_first = Clock::now();

  // Profile-only hub: metrics and trace off, so the event schedule is
  // untouched and the engine's WallScopes are the only thing it adds.
  obs::HubConfig hc;
  hc.metrics_enabled = false;
  hc.trace_enabled = false;
  obs::Hub hub(hc);  // declared before sim: the engine holds a pointer
  sim::Simulator sim(seed);
  if (v.profile) sim.set_obs(&hub);
  if (v.bridged) sim.set_engine(sim::Simulator::EngineMode::kBridged);
  std::optional<net::Network> net;
  net::PaperTreeTopology tree;
  dtp::DtpNetwork dtp;
  std::unique_ptr<apps::AppHarness> harness;
  std::unique_ptr<check::Sentinel> sentinel;

  Metrics& L = r.layer;
  L["net.build_s"] = spans.time("setup", "net.build", [&] {
    net.emplace(sim, network_params(w));
    if (w.topology == Topology::kPaperTree)
      tree = net::build_paper_tree(*net);
    else
      net::build_fat_tree(*net, 16, 4);
  });
  L["dtp.enable_s"] = spans.time("setup", "dtp.enable_dtp", [&] {
    dtp = dtp::enable_dtp(*net, w.serve ? chaos::CanonicalCampaign::dtp_params()
                                        : dtp::DtpParams{});
  });
  L["apps.harness_s"] = spans.time("setup", "apps.AppHarness", [&] {
    if (!w.serve || v.no_apps) return;
    harness = std::make_unique<apps::AppHarness>(sim, dtp, net->hosts(),
                                                 serve_params(net->hosts().size()));
    harness->start_daemons();
    // Apps start after the daemons have calibrated, inside the settle window:
    // five 1 ms polls in. At three (a 4 ms settle), OWD probes judged in the
    // first millisecond failed their budget on 1 seed in 41.
    harness->start_apps(w.settle - from_ms(1));
  });
  L["check.sentinel_s"] = spans.time("setup", "check.Sentinel", [&] {
    if (!w.serve || v.no_sentinel) return;
    sentinel = std::make_unique<check::Sentinel>(*net, dtp);
    if (harness)
      for (std::size_t i = 0; i < harness->size(); ++i)
        sentinel->watch_timebase(&harness->daemon(i));
    // Cold start is blacked out as in dtpsim --app: the honesty gate judges
    // steady-state serving, which is what the timed horizon measures.
    sentinel->add_blackout(0, w.settle);
  });
  L["sim.parallel.partition_s"] = spans.time("setup", "sim.set_threads", [&] {
    sim.set_threads(v.threads);
  });
  L["sim.settle_s"] = spans.time("setup", "sim.run_until(settle)",
                                 [&] { sim.run_until(w.settle); });
  // The Fig. 6a load (each leaf saturates MTU frames toward a leaf under
  // another aggregation switch) starts on a synchronized fabric, as in dtpsim
  // --load=heavy: an INIT exchange queued behind MTU frames would measure an
  // inflated delay.
  L["net.traffic_s"] = spans.time("setup", "net.add_traffic", [&] {
    if (w.mtu_load && !v.no_traffic)
      chaos::CanonicalCampaign::start_heavy_load(*net, tree, net::kMtuFrameBytes);
  });
  r.setup_s = seconds_between(t_first, Clock::now());

  std::uint64_t unsynced = 0, ports = 0;
  for (std::size_t a = 0; a < dtp.size(); ++a)
    for (std::size_t p = 0; p < dtp.agent(a).port_count(); ++p) {
      ++ports;
      if (dtp.agent(a).port_logic(p).state() != dtp::PortState::kSynced) ++unsynced;
    }
  r.check_many(ports, unsynced, "a port is not SYNCED after settle");

  // Timed horizon: equal simulated slices, each checked at its end.
  const double bound_ticks = 4.0 * w.diameter_hops;
  double worst_ticks = 0;
  const std::uint64_t events_before = sim.events_executed();
  r.slice_s.reserve(kSlices);
  for (int k = 1; k <= kSlices; ++k) {
    const fs_t end = w.settle + k * w.slice;
    const double dt = spans.time("slice", "run_until", [&] { sim.run_until(end); });
    r.slice_s.add(dt);
    r.horizon_s += dt;
    r.digest.mix_i128(static_cast<__int128>(dtp.max_pairwise_offset_units(sim.now())));
    const double ticks = dtp.max_pairwise_offset_ticks(sim.now());
    worst_ticks = std::max(worst_ticks, ticks);
    r.check(ticks <= bound_ticks, "a slice-end pairwise offset exceeds 4TD");
    if (reference != nullptr && k % kSlicesPerReference == 0) {
      r.reference_s += reference->run_chunk_s();
      ++r.reference_chunks;
    }
  }
  const std::uint64_t horizon_events = sim.events_executed() - events_before;

  // Digest: slice-end offsets (above), engine totals, per-port PHY counters.
  const sim::SimStats st = sim.stats();
  r.digest.mix(st.scheduled);
  r.digest.mix(st.executed);
  r.digest.mix(st.cancelled);
  for (std::uint64_t c : st.executed_by_category) r.digest.mix(c);

  double control_blocks = 0, frames = 0, mac_tx = 0, mac_drops = 0, mac_max_queue = 0;
  for (net::Device* d : net->devices())
    for (std::size_t p = 0; p < d->port_count(); ++p) {
      const phy::PhyPort& port = d->port(p);
      r.digest.mix(port.frames_sent());
      r.digest.mix(port.control_blocks_sent());
      r.digest.mix(port.fifo_crossings());
      r.digest.mix(port.fifo_extra_cycles());
      control_blocks += static_cast<double>(port.control_blocks_sent());
      frames += static_cast<double>(port.frames_sent());
      const net::MacStats& ms = d->mac(p).stats();
      mac_tx += static_cast<double>(ms.tx_frames);
      mac_drops += static_cast<double>(ms.tx_drops);
      mac_max_queue = std::max(mac_max_queue, static_cast<double>(ms.max_queue_bytes));
    }
  double forwarded = 0, egress_drops = 0;
  for (const net::Switch* s : net->switches()) {
    forwarded += static_cast<double>(s->stats().forwarded);
    egress_drops += static_cast<double>(s->stats().egress_drops);
  }
  double beacons_sent = 0, beacons_received = 0, filtered_range = 0;
  for (std::size_t a = 0; a < dtp.size(); ++a)
    for (std::size_t p = 0; p < dtp.agent(a).port_count(); ++p) {
      const dtp::PortStats& ps = dtp.agent(a).port_logic(p).stats();
      beacons_sent += static_cast<double>(ps.beacons_sent);
      beacons_received += static_cast<double>(ps.beacons_received);
      filtered_range += static_cast<double>(ps.filtered_range);
    }

  // The serving layers: app verdicts, reader fleet, sentinel page checks.
  double publishes = 0;
  if (harness) {
    for (const chaos::AppVerdict& av : harness->verdicts()) {
      r.check(av.ops > 0, "app " + av.app + " ran no operations");
      r.check_many(av.ops, av.failures, "app " + av.app + " failed an operation");
    }
    const apps::ReaderFleet& fleet = *harness->readers();
    r.check(fleet.total_reads() > 0, "the reader fleet read nothing");
    r.digest.mix(fleet.digest().hash);
    for (std::size_t i = 0; i < harness->size(); ++i)
      publishes += static_cast<double>(harness->daemon(i).timebase().publishes());
    L["apps.reads"] = static_cast<double>(fleet.total_reads());
    L["apps.stale_reads"] = static_cast<double>(fleet.total_stale_reads());
    L["apps.owd_probes"] = static_cast<double>(harness->owd()->total().probes);
    L["apps.lww_ops"] = static_cast<double>(harness->lww()->total().writes);
  }
  if (sentinel) {
    const check::SentinelStats ss = sentinel->stats();
    r.check(ss.timebase_checks > 0 || !harness, "the sentinel checked no page");
    r.check_many(ss.timebase_checks, sentinel->violation_count(),
                 "the sentinel recorded a violation");
    r.digest.mix(sentinel->digest().hash);
    L["check.page_checks"] = static_cast<double>(ss.timebase_checks);
  }

  L["sim.events"] = static_cast<double>(st.executed);
  L["sim.scheduled"] = static_cast<double>(st.scheduled);
  L["sim.cancelled"] = static_cast<double>(st.cancelled);
  L["sim.callback_spills"] = static_cast<double>(st.callback_spills);
  L["sim.peak_pending"] = static_cast<double>(st.peak_pending);
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c)
    L[std::string("sim.events.") + sim::category_name(static_cast<sim::EventCategory>(c))] =
        static_cast<double>(st.executed_by_category[c]);
  L["sim.events_per_s"] = static_cast<double>(horizon_events) / r.horizon_s;

  const obs::WallProfile& wp = hub.wall_profile();
  const sim::ParallelStats par = sim.parallel_stats();
  L["sim.serial_run_s"] = wp.seconds(obs::WallPhase::kSerialRun);
  L["sim.parallel.shards"] = par.shards;
  L["sim.parallel.epochs"] = static_cast<double>(par.epochs);
  L["sim.parallel.cross_messages"] = static_cast<double>(par.cross_messages);
  L["sim.parallel.lookahead_ns"] = to_ns_f(par.lookahead);
  L["sim.parallel.cp_speedup"] = par.critical_path_speedup();
  const double compute = wp.seconds(obs::WallPhase::kWorkerCompute);
  const double drain = wp.seconds(obs::WallPhase::kMailboxDrain);
  L["sim.parallel.worker_compute_s"] = compute;
  L["sim.parallel.mailbox_drain_s"] = drain;
  L["sim.parallel.instant_s"] = wp.seconds(obs::WallPhase::kInstant);
  L["sim.parallel.compute_frac"] = compute + drain > 0 ? compute / (compute + drain) : 0;

  L["phy.control_blocks"] = control_blocks;
  L["phy.frames"] = frames;
  L["net.mac_tx_frames"] = mac_tx;
  L["net.mac_tx_drops"] = mac_drops;
  L["net.mac_max_queue_bytes"] = mac_max_queue;
  L["net.switch_forwarded"] = forwarded;
  L["net.switch_egress_drops"] = egress_drops;
  L["dtp.beacons_sent"] = beacons_sent;
  L["dtp.beacons_received"] = beacons_received;
  L["dtp.filtered_range"] = filtered_range;
  L["dtp.worst_offset_ticks"] = worst_ticks;
  L["dtp.timebase_publishes"] = publishes;
  return r;
}

// --- Microbenchmarks ---------------------------------------------------------

/// A self-sustaining event cascade: every firing schedules one successor, so
/// the queue depth stays at the number of seeds.
struct Cascade {
  sim::Simulator& sim;
  std::vector<fs_t> delays;  ///< power-of-two length
  std::size_t next = 0;

  void fire() {
    sim.schedule_in(delays[next++ & (delays.size() - 1)], [this] { fire(); });
  }
};

/// Wall nanoseconds per schedule_in + fire with `depth` events pending.
double schedule_fire_ns(std::size_t depth, std::uint64_t seed, Spans& spans) {
  sim::Simulator sim(seed);
  Cascade c{sim, std::vector<fs_t>(4096), 0};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<fs_t> delay(from_ns(1), from_ns(2000));  // mean 1 us
  for (fs_t& d : c.delays) d = delay(rng);
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) c.fire();
  // ~depth firings per simulated microsecond; time about four million.
  const fs_t window =
      from_us(1) * static_cast<fs_t>(4'000'000 / std::max<std::size_t>(depth, 1) + 1);
  sim.run_until(window / 4);  // warm the slot arena and the heap
  const std::uint64_t e0 = sim.events_executed();
  const double s = spans.time("microbench", "sim.schedule_fire",
                              [&] { sim.run_until(window / 4 + window); });
  return s * 1e9 / static_cast<double>(sim.events_executed() - e0);
}

/// TimebasePage::read() latency on one reader thread while one publisher
/// thread republishes continuously: {p50, p99} ns per read over batches.
std::pair<double, double> timebase_read_ns(Spans& spans) {
  constexpr int kBatch = 256;
  constexpr int kBatches = 8192;
  dtp::TimebasePage page;
  dtp::TimebaseSnapshot snap;
  snap.units_per_tsc = 0.052;
  snap.unc_base_units = 4.0;
  snap.unc_per_tsc = 1e-7;
  snap.epoch = 1;
  snap.flags = dtp::TimebasePage::kFlagValid;
  page.publish(snap);
  SampleSeries per_read;
  per_read.reserve(kBatches);
  std::int64_t sink = 0;
  spans.time("microbench", "dtp.timebase_read", [&] {
    std::jthread writer([&page, snap](std::stop_token stop) mutable {
      for (std::int64_t k = 1; !stop.stop_requested(); ++k) {
        snap.anchor_units = k;
        snap.anchor_tsc = 3 * k;
        snap.stale_after_tsc = 3 * k + 1000;
        page.publish(snap);
      }
    });
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) sink += page.read(3 * (b * kBatch + i)).units;
      per_read.add(seconds_between(t0, Clock::now()) * 1e9 / kBatch);
    }
  });  // the jthread requests stop and joins here
  if (sink == 42) std::fprintf(stderr, " ");  // keep the reads observable
  return {per_read.percentile(50), per_read.percentile(99)};
}

// --- Reporting ---------------------------------------------------------------

/// The end-to-end figures of a set of measured passes. The host's speed
/// drifts in phases of seconds, so per-pass figures are combined rather than
/// pooled: a quantile over pooled slices would jump between those phases.
struct RunSummary {
  double setup_s = 0;        ///< median over passes of set-up wall / host-speed factor
  double setup_wall_s = 0;   ///< median over passes
  double sim_rate_norm = 0;  ///< median over passes of sim_rate x host-speed factor
  double sim_rate = 0;       ///< total simulated us / total horizon wall s
  double slice_ms_p50 = 0;   ///< mean over passes of the per-pass median slice
  double slice_ms_p90 = 0;   ///< mean over passes of the per-pass p90 slice
};

RunSummary summarize(const std::vector<PassResult>& passes) {
  RunSummary s;
  SampleSeries setups, setups_wall, rates;
  double simulated_us = 0, wall_s = 0;
  for (const PassResult& r : passes) {
    // How much slower than nominal the host ran this pass: wall times are
    // divided by it and rates multiplied, giving reference-host figures.
    const double slowdown =
        r.reference_s / r.reference_chunks / ReferenceKernel::kNominalChunkS;
    const double pass_us = to_us_f(kSlices * r.slice_len);
    setups.add(r.setup_s / slowdown);
    setups_wall.add(r.setup_s);
    rates.add(pass_us / r.horizon_s * slowdown);
    simulated_us += pass_us;
    wall_s += r.horizon_s;
    s.slice_ms_p50 += r.slice_s.percentile(50) * 1e3 / static_cast<double>(passes.size());
    s.slice_ms_p90 += r.slice_s.percentile(90) * 1e3 / static_cast<double>(passes.size());
  }
  s.setup_s = setups.percentile(50);
  s.setup_wall_s = setups_wall.percentile(50);
  s.sim_rate_norm = rates.percentile(50);
  s.sim_rate = simulated_us / wall_s;
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string host_facts_json(unsigned nproc) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return "{\"nproc\": " + std::to_string(nproc) + ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ", \"compiler\": \"" +
         __VERSION__ + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"ndebug\": " +
         (ndebug ? "true" : "false") + "}";
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// VmHWM, the resident high-water mark of this process image. getrusage's
/// ru_maxrss would do, except that it survives exec and so reports the
/// launching interpreter's footprint when that is larger.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=fig5_idle|fig5_mtu|fattree_k16|"
               "fig5_serve --seed=N --seconds=S --trace=0|1 [--spans-out=PATH]\n",
               why.c_str());
  std::exit(2);
}

/// Per-layer metric names, in output order, with units. Every one is printed
/// on every workload; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, const char*>> names = {
      {"net.build_s", "s"},
      {"dtp.enable_s", "s"},
      {"apps.harness_s", "s"},
      {"check.sentinel_s", "s"},
      {"sim.parallel.partition_s", "s"},
      {"sim.settle_s", "s"},
      {"net.traffic_s", "s"},
      {"sim.events", "count"},
      {"sim.scheduled", "count"},
      {"sim.cancelled", "count"},
      {"sim.callback_spills", "count"},
      {"sim.peak_pending", "count"},
      {"sim.events.generic", "count"},
      {"sim.events.beacon", "count"},
      {"sim.events.frame", "count"},
      {"sim.events.drift", "count"},
      {"sim.events.probe", "count"},
      {"sim.events.app", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.serial_run_s", "s"},
      {"sim.schedule_fire_ns", "ns"},
      {"sim.bridged_speedup", "ratio"},
      {"sim.parallel.shards", "count"},
      {"sim.parallel.epochs", "count"},
      {"sim.parallel.cross_messages", "count"},
      {"sim.parallel.lookahead_ns", "ns"},
      {"sim.parallel.worker_compute_s", "s"},
      {"sim.parallel.mailbox_drain_s", "s"},
      {"sim.parallel.instant_s", "s"},
      {"sim.parallel.compute_frac", "ratio"},
      {"sim.parallel.cp_speedup", "ratio"},
      {"sim.parallel.wall_speedup", "ratio"},
      {"phy.control_blocks", "count"},
      {"phy.frames", "count"},
      {"net.mac_tx_frames", "count"},
      {"net.mac_tx_drops", "count"},
      {"net.mac_max_queue_bytes", "bytes"},
      {"net.switch_forwarded", "count"},
      {"net.switch_egress_drops", "count"},
      {"net.traffic_share", "ratio"},
      {"dtp.beacons_sent", "count"},
      {"dtp.beacons_received", "count"},
      {"dtp.filtered_range", "count"},
      {"dtp.worst_offset_ticks", "ticks"},
      {"dtp.timebase_publishes", "count"},
      {"dtp.timebase_read_ns_p50", "ns"},
      {"dtp.timebase_read_ns_p99", "ns"},
      {"apps.reads", "count"},
      {"apps.stale_reads", "count"},
      {"apps.owd_probes", "count"},
      {"apps.lww_ops", "count"},
      {"apps.service_share", "ratio"},
      {"check.page_checks", "count"},
      {"check.sentinel_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return names;
}

int run(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing an assert-enabled build (NDEBUG unset); "
                       "build with CMAKE_BUILD_TYPE=RelWithDebInfo or Release\n");
  return 2;
#endif
  static const char* const kFlags[] = {"workload", "seed", "seconds", "trace", "spans-out"};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    bool known = false;
    for (const char* f : kFlags) known |= a.rfind(std::string("--") + f + "=", 0) == 0;
    if (!known) usage_error("unknown argument '" + a + "'");
  }
  benchutil::Flags flags(argc, argv);
  const Workload* w = find_workload(flags.get_string("workload", ""));
  if (w == nullptr) usage_error("--workload must name one of the four workloads");
  const long long seed = flags.get_int("seed", -1);
  if (seed < 0) usage_error("--seed must be a non-negative integer");
  const double budget_s = flags.get_double("seconds", 0);
  if (!(budget_s > 0 && budget_s <= 600)) usage_error("--seconds must be in (0, 600]");
  const long long trace = flags.get_int("trace", 0);
  if (trace != 0 && trace != 1) usage_error("--trace must be 0 or 1");
  const std::string spans_out = flags.get_string("spans-out", "");
  if (trace == 1 && spans_out.empty()) usage_error("--trace=1 needs --spans-out=PATH");

  const std::string host = host_facts_json(online_cpus());
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s seed=%lld settle=%.0f us horizon=%d x %.0f us\n", w->name, seed,
              to_us_f(w->settle), kSlices, to_us_f(w->slice));

  const auto useed = static_cast<std::uint64_t>(seed);
  Spans spans;
  const auto t0 = Clock::now();
  // The warm-up pass lets caches, the allocator and lazy set-up settle before
  // anything is timed. Later passes reuse the allocator's free lists, so its
  // high-water mark is what one build + settle + horizon needs. It runs no
  // reference chunks, so their buffers stay out of that mark.
  PassResult warmup;
  spans.time("pass", "pass(warm-up)",
             [&] { warmup = run_pass(*w, useed, Variant{}, spans, nullptr); });
  const double rss_mib = peak_rss_mib();
  ReferenceKernel reference;

  std::vector<PassResult> plain, traced;
  while (true) {
    const bool do_traced = trace == 1 && traced.size() < plain.size();
    spans.set_enabled(do_traced);
    Variant v;
    v.profile = do_traced;
    PassResult r;
    spans.time("pass", do_traced ? "pass(traced)" : "pass",
               [&] { r = run_pass(*w, useed, v, spans, &reference); });
    (do_traced ? traced : plain).push_back(std::move(r));
    const bool enough = plain.size() >= kMinPasses && (trace == 0 || traced.size() >= 2);
    if (enough && seconds_between(t0, Clock::now()) >= budget_s) break;
  }
  spans.set_enabled(trace == 1);

  std::uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  auto fold = [&](const PassResult& r, const check::RunDigest& expect, const char* what) {
    attempted += r.attempted + 1;
    failed += r.failed;
    if (first_failure.empty()) first_failure = r.first_failure;
    if (!(r.digest == expect)) {
      ++failed;
      if (first_failure.empty())
        first_failure = std::string(what) + " digest " + r.digest.hex() + " != " + expect.hex();
    }
  };
  const check::RunDigest digest = warmup.digest;
  fold(warmup, digest, "warm-up pass");
  for (const PassResult& r : plain) fold(r, digest, "repeated pass");
  for (const PassResult& r : traced) fold(r, digest, "traced pass");
  std::printf("digest: %s (%zu passes)\n", digest.hex().c_str(),
              1 + plain.size() + traced.size());

  const RunSummary sum = summarize(plain);
  SampleSeries chunk_ms;
  for (const PassResult& r : plain) chunk_ms.add(r.reference_s * 1e3 / r.reference_chunks);
  std::printf("reference: chunk %.4g ms (median over passes; nominal %.4g ms), mix %016llx\n",
              chunk_ms.percentile(50), ReferenceKernel::kNominalChunkS * 1e3,
              static_cast<unsigned long long>(reference.mix()));
  std::vector<Metric> out;
  if (trace == 0) {
    const Metric printed[] = {{"setup_s", sum.setup_s, "s"},
                              {"setup_wall_s", sum.setup_wall_s, "s"},
                              {"sim_rate_norm", sum.sim_rate_norm, "us/s"},
                              {"sim_rate", sum.sim_rate, "us/s"},
                              {"slice_ms_p50", sum.slice_ms_p50, "ms"},
                              {"slice_ms_p90", sum.slice_ms_p90, "ms"},
                              {"peak_rss_mb", rss_mib, "MiB"}};
    const std::string n = "n=" + std::to_string(plain.size()) + " passes";
    const std::string slices = n + " x " + std::to_string(kSlices) + " slices";
    const std::string notes[] = {"(per-pass, normalized to the reference; median, " + n + ")",
                                 "(median, " + n + ")",
                                 "(per-pass, normalized to the reference; median, " + n + ")",
                                 "(total, " + n + ")",
                                 "(per-pass p50, mean; " + slices + ")",
                                 "(per-pass p90, mean; " + slices + ")",
                                 "(VmHWM after the warm-up pass)"};
    for (std::size_t i = 0; i < std::size(printed); ++i) {
      std::printf("metric %-14s %14.6g %-5s %s\n", printed[i].name.c_str(),
                  printed[i].value, printed[i].unit, notes[i].c_str());
      // The wall-clock timings move with the shared host's speed by more than
      // any bound the result line may carry (ten runs of fig5_mtu spread
      // sim_rate by 0.34 and slice_ms_p90 by 0.34 of their medians; five of
      // fig5_serve spread setup_wall_s by 0.48), so they are printed for
      // reading, and the result line carries host-normalized figures.
      const std::string& name = printed[i].name;
      if (name == "setup_s" || name == "sim_rate_norm" || name == "peak_rss_mb")
        out.push_back(printed[i]);
    }
  } else {
    Metrics L;
    for (const auto& [name, unit] : layer_metric_names()) L[name] = 0;
    for (const auto& [name, value] : traced.back().layer) L[name] = value;
    L["trace.overhead"] = sum.sim_rate_norm / summarize(traced).sim_rate_norm - 1;

    // Ablations and reruns: one pass each, against the mean untraced pass.
    const double base_s = to_us_f(kSlices * w->slice) / sum.sim_rate;
    auto ablate = [&](const char* name, Variant v, bool same_digest) {
      PassResult r;
      spans.time("ablation", name, [&] { r = run_pass(*w, useed, v, spans, &reference); });
      // A rerun that only changes the engine must reproduce the digest.
      fold(r, same_digest ? digest : r.digest, name);
      std::printf("ablation %-12s horizon %.4f s vs %.4f s, digest %s\n", name, r.horizon_s,
                  base_s, r.digest.hex().c_str());
      return r;
    };
    if (w->bridged_ablation) {
      Variant v;
      v.bridged = true;
      L["sim.bridged_speedup"] = base_s / ablate("bridged", v, true).horizon_s;
    }
    if (w->mtu_load) {
      Variant v;
      v.no_traffic = true;
      L["net.traffic_share"] = 1 - ablate("no_traffic", v, false).horizon_s / base_s;
    }
    if (w->serve) {
      Variant v;
      v.no_apps = true;
      L["apps.service_share"] = 1 - ablate("no_apps", v, false).horizon_s / base_s;
      v = Variant{};
      v.no_sentinel = true;
      L["check.sentinel_share"] = 1 - ablate("no_sentinel", v, false).horizon_s / base_s;
      const auto [p50, p99] = timebase_read_ns(spans);
      L["dtp.timebase_read_ns_p50"] = p50;
      L["dtp.timebase_read_ns_p99"] = p99;
    }
    if (w->parallel_ablation) {
      // Epochs, mailboxes and partitioning: the same pass on the parallel
      // engine, profiled. Its digest must equal the serial one.
      Variant v;
      v.threads = kParallelThreads;
      v.profile = true;
      const PassResult par = ablate("parallel", v, true);
      for (const auto& [name, value] : par.layer)
        if (name.rfind("sim.parallel.", 0) == 0) L[name] = value;
      L["sim.parallel.wall_speedup"] = base_s / par.horizon_s;
    }
    L["sim.schedule_fire_ns"] =
        schedule_fire_ns(static_cast<std::size_t>(L["sim.peak_pending"]), useed, spans);

    for (const auto& [name, unit] : layer_metric_names()) {
      out.push_back({name, L[name], unit});
      std::printf("layer %-30s %16.6g %s\n", name.c_str(), L[name], unit);
    }
    if (!spans.write(spans_out, host)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_out.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(), spans_out.c_str());
  }

  std::printf("metric %-14s %14.6g %-5s (%llu failed of %llu checks)\n", "fail_frac",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  if (failed > 0) std::printf("FAILED: %s\n", first_failure.c_str());

  std::string json = std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  std::printf("%s}}\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dtpsim::perfbench

int main(int argc, char** argv) { return dtpsim::perfbench::run(argc, argv); }
