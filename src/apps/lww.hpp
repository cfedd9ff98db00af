#pragma once

/// \file lww.hpp
/// Last-writer-wins state versioning over the timebase page (DESIGN.md §16).
///
/// The UTLP-style consumer primitive: replicas version writes with the
/// synchronized clock and resolve conflicts by timestamp. The workload is a
/// token ring of writers — each write is *causally after* the one it
/// received, so ground truth is free: if a causally-later write carries a
/// timestamp <= its predecessor's, LWW would resolve the conflict backwards.
///
/// The app is uncertainty-aware, Spanner-style: every version carries the
/// writer's page uncertainty. An inversion whose intervals still overlap is
/// `ambiguous` — the app *knew* it could not order the pair and can fall
/// back (merge, vector clock). The counted correctness failure is
/// `certain_wrong`: the intervals were disjoint, the app would have
/// committed the wrong winner with confidence. With honest uncertainties
/// (the sentinel's invariant) and counters inside the ±4TD envelope, a
/// fault-free run must report zero.
///
/// Tokens travel the hardware path (priority class 7) so causal latency
/// stays small enough for injected clock skew to actually invert order;
/// lost tokens (BER bursts, crashes) are re-injected by the initiator's
/// watchdog under a fresh generation.

#include <cstdint>
#include <vector>

#include "apps/service.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::apps {

/// One circulating version token: the previous write's version stamp.
struct LwwTokenPacket : net::Packet {
  std::uint32_t ring_id = 0;
  std::uint64_t generation = 0;  ///< bumped by each watchdog re-injection
  std::uint64_t hop = 0;         ///< causal hop count
  std::uint32_t writer = 0;      ///< ring index of the previous writer
  std::int64_t ts_units = 0;     ///< previous version timestamp (split)
  double ts_frac = 0.0;
  double unc_units = 0.0;        ///< previous writer's claimed uncertainty
  bool stale = false;            ///< previous writer's page was stale
};

struct LwwParams {
  std::uint32_t ring_id = 1;
  /// Cross-host counter disagreement budget added to the certainty test, in
  /// counter units (the pairwise 4TD envelope; the page uncertainty only
  /// covers daemon-vs-own-counter error).
  double network_bound_units = 17.0;
  /// Initiator re-injects a token if its own writer saw none for this long.
  fs_t watchdog_period = from_ms(1);
  std::uint32_t payload_bytes = 64;
  std::uint8_t priority = 7;
};

/// Per-writer counters. Every field is written only from the owning host's
/// shard; aggregate after the run.
struct LwwWriterStats {
  std::uint64_t writes = 0;
  std::uint64_t inversions = 0;     ///< causally-later ts <= predecessor ts
  std::uint64_t certain_wrong = 0;  ///< inversion with disjoint intervals
  std::uint64_t ambiguous = 0;      ///< intervals overlapped: unorderable
  std::uint64_t stale_writes = 0;   ///< wrote on a stale page
  double worst_inversion_ns = 0.0;

  bool operator==(const LwwWriterStats&) const = default;
};

class LwwApp {
 public:
  LwwApp(sim::Simulator& sim, std::vector<TimeService> ring, LwwParams params = {});

  LwwApp(const LwwApp&) = delete;
  LwwApp& operator=(const LwwApp&) = delete;

  /// Inject the first token at simulated time `at` and arm the watchdog.
  void start(fs_t at);
  void stop();

  std::size_t size() const { return ring_.size(); }
  const LwwWriterStats& writer_stats(std::size_t i) const { return stats_.at(i); }
  /// Sum over writers (call after the run; not thread-safe mid-run).
  LwwWriterStats total() const;
  std::uint64_t reinjects() const { return reinjects_; }

  const LwwParams& params() const { return params_; }

 private:
  void on_token(std::size_t me, const LwwTokenPacket& tok, fs_t now);
  void inject(std::uint64_t generation);

  sim::Simulator& sim_;
  std::vector<TimeService> ring_;
  LwwParams params_;
  std::vector<LwwWriterStats> stats_;
  double ns_per_unit_ = 1.0;
  // Initiator-shard state (writer 0's node): watchdog liveness tracking.
  std::uint64_t laps_seen_ = 0;
  std::uint64_t laps_at_last_check_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t reinjects_ = 0;
  bool started_ = false;
  sim::PeriodicProcess watchdog_;
};

}  // namespace dtpsim::apps
