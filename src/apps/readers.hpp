#pragma once

/// \file readers.hpp
/// Simulated application reader fleet for the timebase page (DESIGN.md §16).
///
/// The scaling claim behind the page design: any number of application
/// threads can read time lock-free, without funnelling through the daemon.
/// The fleet models N readers per host, each periodically sampling its
/// host's page (a seqlock read — never a lock, never a daemon call) and
/// folding every observation into a per-reader FNV digest.
///
/// Readers are pinned to their host's shard, so on the parallel engine each
/// page read is ordered against that host's daemon publishes purely by
/// simulated time — the fleet digest (combined in fixed reader order) must
/// be bit-identical across serial and any-thread-count runs, which is
/// exactly the differential check bench_timebase gates on.

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/service.hpp"
#include "check/sentinel.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::apps {

/// Per-reader accumulators; written only from the owning host's shard.
struct ReaderStats {
  std::uint64_t reads = 0;
  std::uint64_t invalid_reads = 0;  ///< page not yet serving (flag clear)
  std::uint64_t stale_reads = 0;    ///< served with the staleness flag set
  double max_unc_units = 0.0;
  check::RunDigest digest;          ///< every observation, in read order
};

class ReaderFleet {
 public:
  /// `readers_per_host` readers on every service's host, each sampling the
  /// page every `period`, phase-staggered within the host.
  ReaderFleet(sim::Simulator& sim, std::vector<TimeService> services,
              std::size_t readers_per_host, fs_t period);

  ReaderFleet(const ReaderFleet&) = delete;
  ReaderFleet& operator=(const ReaderFleet&) = delete;

  void start(fs_t at);
  void stop();

  std::size_t size() const { return readers_.size(); }
  std::uint64_t total_reads() const;
  std::uint64_t total_stale_reads() const;

  /// Fleet digest: per-reader digests combined in fixed reader order (call
  /// after the run). Serial and parallel runs must agree bit-for-bit.
  check::RunDigest digest() const;

 private:
  struct Reader {
    TimeService svc;
    ReaderStats stats;
    std::unique_ptr<sim::PeriodicProcess> proc;
  };

  void read_once(Reader& r);

  sim::Simulator& sim_;
  fs_t period_;
  std::size_t readers_per_host_;
  std::vector<std::unique_ptr<Reader>> readers_;
};

}  // namespace dtpsim::apps
