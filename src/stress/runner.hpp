#pragma once

/// \file runner.hpp
/// Campaign execution: StressSpec -> live simulation -> sentinel verdict.
///
/// `run_campaign` is the single code path behind the fuzzer batch, the
/// `dtpsim --repro` CLI, the differential harness, and the shrinker — so a
/// violation found anywhere replays identically everywhere. It resolves the
/// spec into a `Scenario` (its topology, traffic, hierarchy, watchdog, fault
/// plan, and a `check::Sentinel` with a blackout window per fault) and runs
/// it through the same `Campaign` runner as the named campaigns.

#include <string>
#include <vector>

#include "check/sentinel.hpp"
#include "stress/campaign.hpp"
#include "stress/spec.hpp"

namespace dtpsim::stress {

/// Everything a campaign produced. `spec` is echoed back so batch drivers
/// can write a repro without tracking indices.
struct CampaignResult {
  StressSpec spec;
  std::vector<check::Violation> violations;
  check::RunDigest digest;
  check::SentinelStats sentinel_stats;
  double offset_bound_ticks = 0;
  std::size_t diameter_hops = 0;
  std::uint64_t events_executed = 0;
  std::int32_t shards = 1;

  bool clean() const { return violations.empty(); }
};

/// Build the spec's topology into `net` and return its traffic hosts: the
/// one function that turns a spec into a network (the generator reads its
/// cables, names and hosts from it too). Throws std::invalid_argument for a
/// shape the builders reject, and, before creating anything, for one of more
/// than 9472 devices (the k=32 fat-tree, the largest the repository builds).
std::vector<net::Host*> build_topology(net::Network& net, const StressSpec& spec);

/// Execute one campaign. Deterministic: same spec -> same result (any
/// thread count yields the same digest). Throws std::invalid_argument if
/// the spec is internally inconsistent (a topology the builders reject or of
/// more than 9472 devices, a fault naming a device or cable the topology does
/// not build, a hierarchy on fewer than three hosts, a sentinel sample period
/// not shorter than the horizon or one whose blackout start leaves the fs_t
/// range) — the shrinker treats that as "candidate invalid", not as a
/// failure, and `dtpsim --repro` as a malformed file. A non-null `obs` naming
/// an output path attaches trace/metrics (the CLI replays a failing campaign
/// that way); std::runtime_error if such a file cannot be written.
CampaignResult run_campaign(const StressSpec& spec, const ObsOptions* obs = nullptr);

/// The spec as a runnable scenario (no gates: the verdict is the
/// sentinel's). Throws std::invalid_argument when the sentinel would never
/// sample (period not shorter than the horizon) or a fault's blackout, which
/// opens two samples early, would start before the fs_t range.
Scenario resolve(const StressSpec& spec);

/// Run the spec on the serial exact engine and on its own engine
/// (`spec.threads` workers, `spec.bridged`) and compare sentinel digests. On
/// mismatch the returned result (the spec's own engine) gains a
/// kDigestMismatch violation. Serial exact specs are run once.
CampaignResult run_differential(const StressSpec& spec);

/// Fixed-seed batch: generate + run campaigns [0, count). Clean results are
/// summarized, failing ones returned whole (so the driver can write repros).
struct BatchOutcome {
  std::uint32_t campaigns = 0;
  std::uint64_t events_executed = 0;
  std::vector<CampaignResult> failures;

  bool clean() const { return failures.empty(); }
};

/// `differential` runs every spec through `run_differential`: multi-threaded
/// and bridged specs are replayed on the serial exact engine and the two
/// digests compared.
BatchOutcome run_batch(std::uint64_t seed, std::uint32_t count,
                       const StressLimits& limits = {}, bool differential = false);

// --- Repro files -----------------------------------------------------------

/// Write `to_text(spec)` to `path` (throws std::runtime_error on I/O error).
void write_repro(const StressSpec& spec, const std::string& path);

/// Read + strictly parse a repro file (throws on I/O or parse errors).
StressSpec load_repro(const std::string& path);

/// load_repro + run_campaign — the exact `dtpsim --repro=<file>` semantics.
CampaignResult replay(const std::string& path);

}  // namespace dtpsim::stress
