/// bench_timebase: time-as-a-service serving capacity (EXPERIMENTS.md).
///
/// Two phases:
///
///   1. Raw page throughput with real OS threads: one publisher hammering
///      `TimebasePage::publish` against 1/2/4 reader threads doing
///      checksum-verified lock-free reads. The reads/sec axis is the
///      headline number; any torn read is an immediate failure.
///
///   2. A simulated serving fleet at datacenter shape: a 64-host fat-tree
///      (k=4, 8 hosts/edge — oversubscribed, the common deployment), one
///      daemon+page per host, 16 reader processes per host (1024 readers
///      total), the uncertainty sentinel watching every page. The same
///      fleet runs serial and with 2/4 worker threads; the reader-fleet
///      digest and the sentinel digest must be bit-identical across all
///      three, and the sentinel must observe zero understated-uncertainty
///      violations.
///
/// Gates (--json-out artifact): reads/sec floor at 4 reader threads, zero
/// torn reads, >= 1000 simulated readers served, digests bit-exact
/// serial-vs-parallel, zero timebase sentinel violations.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "bench_util.hpp"
#include "check/sentinel.hpp"
#include "dtp/daemon.hpp"
#include "dtp/network.hpp"
#include "dtp/timebase.hpp"
#include "net/topology.hpp"
#include "stress/campaign.hpp"

namespace dtpsim {
namespace {

using benchutil::BenchJson;
using benchutil::check;
using benchutil::Flags;
using dtp::TimebasePage;
using dtp::TimebaseSnapshot;

struct HammerResult {
  double reads_per_sec = 0;
  std::uint64_t reads = 0;
  std::uint64_t torn = 0;
  std::uint64_t publishes = 0;
};

/// Phase 1: publisher + `n_readers` OS threads against one page.
HammerResult hammer(int n_readers, int wall_ms) {
  TimebasePage page;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_reads{0};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    TimebaseSnapshot s;
    for (std::uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
      s.anchor_units = static_cast<std::int64_t>(k);
      s.anchor_frac = 0.5;
      s.anchor_tsc = static_cast<std::int64_t>(k * 3);
      s.units_per_tsc = 0.052;
      s.unc_base_units = 4.0;
      s.unc_per_tsc = 1e-7;
      s.stale_after_tsc = static_cast<std::int64_t>(k * 3 + 1000);
      s.epoch = 1;
      s.flags = TimebasePage::kFlagValid;
      page.publish(s);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0, local_torn = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TimebasePage::RawWords raw = page.read_raw();
        if (raw.seq == 0) continue;
        ++local;
        if (TimebasePage::checksum(raw.words.data()) !=
            raw.words[TimebasePage::kPayloadWords])
          ++local_torn;
      }
      total_reads.fetch_add(local);
      torn.fetch_add(local_torn);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(wall_ms));
  stop.store(true);
  const auto t1 = std::chrono::steady_clock::now();
  writer.join();
  for (auto& t : readers) t.join();

  HammerResult out;
  out.reads = total_reads.load();
  out.torn = torn.load();
  out.publishes = page.publishes();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  out.reads_per_sec = secs > 0 ? static_cast<double>(out.reads) / secs : 0;
  return out;
}

struct FleetResult {
  std::size_t readers = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t timebase_checks = 0;
  std::uint64_t timebase_violations = 0;
  std::uint64_t other_violations = 0;
  std::string fleet_digest;
  std::string sentinel_digest;
};

/// Phase 2: the 64-host simulated fleet, serial or with worker threads.
FleetResult run_fleet(std::uint64_t seed, fs_t window, unsigned threads) {
  stress::Scenario s;
  s.topology = [](net::Network& net) { return net::build_fat_tree(net, 4, 8).hosts; };
  s.apps = [](stress::Campaign&) {
    apps::AppHarnessParams hp;
    hp.daemon.poll_period = from_ms(1);
    hp.daemon.sample_period = 0;
    hp.readers_per_host = 16;
    hp.reader_period = from_us(50);
    return hp;
  };
  // Cold start is blacked out like a campaign fault window: for the first
  // couple of polls the fabric is still max-adopting counters across six
  // hops, and a 2-poll rate estimate cannot bound a join-time counter step.
  // The honesty gate judges steady-state serving.
  s.sentinel = check::SentinelParams{};
  s.blackouts = {{0, from_ms(4)}};
  s.horizon = window;
  stress::Campaign c(std::move(s), {seed, threads});
  c.run();

  apps::ReaderFleet& fleet = *c.apps()->readers();
  const check::Sentinel& sentinel = *c.sentinel();
  FleetResult out;
  out.readers = fleet.size();
  out.total_reads = fleet.total_reads();
  out.stale_reads = fleet.total_stale_reads();
  out.fleet_digest = fleet.digest().hex();
  out.sentinel_digest = sentinel.digest().hex();
  out.timebase_checks = sentinel.stats().timebase_checks;
  for (const auto& v : sentinel.violations()) {
    if (v.kind == check::InvariantKind::kTimebaseUncertainty)
      ++out.timebase_violations;
    else
      ++out.other_violations;
  }
  return out;
}

}  // namespace
}  // namespace dtpsim

int main(int argc, char** argv) {
  using namespace dtpsim;
  benchutil::Flags flags(argc, argv);
  const int wall_ms = static_cast<int>(flags.get_int("hammer-ms", 200));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const fs_t window = flags.get_duration("window", from_ms(20));
  const double min_rps = flags.get_double("min-reads-per-sec", 1e6);

  benchutil::banner("bench_timebase: lock-free timebase page serving capacity");

  std::printf("\nphase 1: page hammer, real threads (%d ms per config)\n", wall_ms);
  BenchJson json;
  json.add("bench", std::string("timebase"));
  std::uint64_t torn_total = 0;
  double rps_at_4 = 0;
  for (int nt : {1, 2, 4}) {
    const HammerResult h = hammer(nt, wall_ms);
    std::printf("  readers=%d  %12.3f Mreads/s  (%llu reads, %llu publishes, torn=%llu)\n",
                nt, h.reads_per_sec / 1e6, static_cast<unsigned long long>(h.reads),
                static_cast<unsigned long long>(h.publishes),
                static_cast<unsigned long long>(h.torn));
    torn_total += h.torn;
    if (nt == 4) rps_at_4 = h.reads_per_sec;
    json.add("reads_per_sec_" + std::to_string(nt) + "t", h.reads_per_sec);
  }

  std::printf("\nphase 2: simulated fleet, 64 hosts x 16 readers, %.1f ms window\n",
              to_us_f(window) / 1e3);
  const FleetResult serial = run_fleet(seed, window, 1);
  const FleetResult par2 = run_fleet(seed, window, 2);
  const FleetResult par4 = run_fleet(seed, window, 4);
  std::printf("  readers=%zu reads=%llu stale=%llu sentinel_checks=%llu\n",
              serial.readers, static_cast<unsigned long long>(serial.total_reads),
              static_cast<unsigned long long>(serial.stale_reads),
              static_cast<unsigned long long>(serial.timebase_checks));
  std::printf("  digest serial=%s 2t=%s 4t=%s\n", serial.fleet_digest.c_str(),
              par2.fleet_digest.c_str(), par4.fleet_digest.c_str());

  const bool digests_match = serial.fleet_digest == par2.fleet_digest &&
                             serial.fleet_digest == par4.fleet_digest &&
                             serial.sentinel_digest == par2.sentinel_digest &&
                             serial.sentinel_digest == par4.sentinel_digest &&
                             serial.total_reads == par2.total_reads &&
                             serial.total_reads == par4.total_reads;

  const bool pass =
      benchutil::check("no torn reads under concurrent publish", torn_total == 0) &
      benchutil::check("reads/sec floor at 4 reader threads", rps_at_4 >= min_rps) &
      benchutil::check(">= 1000 simulated readers served lock-free",
            serial.readers >= 1000 && serial.total_reads > serial.readers) &
      benchutil::check("reader + sentinel digests bit-exact serial vs 2/4 threads",
            digests_match) &
      benchutil::check("sentinel timebase monitor ran", serial.timebase_checks > 0) &
      benchutil::check("zero understated-uncertainty violations",
            serial.timebase_violations == 0 && par2.timebase_violations == 0 &&
                par4.timebase_violations == 0);

  json.add("torn_reads", torn_total);
  json.add("sim_hosts", std::uint64_t{64});
  json.add("sim_readers", static_cast<std::uint64_t>(serial.readers));
  json.add("sim_reads", serial.total_reads);
  json.add("sim_stale_reads", serial.stale_reads);
  json.add("timebase_checks", serial.timebase_checks);
  json.add("timebase_violations",
           serial.timebase_violations + par2.timebase_violations +
               par4.timebase_violations);
  json.add("digests_match", digests_match);
  json.add("fleet_digest", serial.fleet_digest);
  json.add("pass", pass);
  json.write(benchutil::json_out_path(flags, "timebase"));
  return pass ? 0 : 1;
}
