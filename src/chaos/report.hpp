#pragma once

/// \file report.hpp
/// Aggregation of per-fault recovery results into a campaign report.
///
/// Each finished `RecoveryProbe` contributes one `ProbeResult`; the report
/// groups them by fault class and computes the per-class reconvergence
/// distribution (p50/p99 in beacon intervals, over the faults that did
/// reconverge) — the numbers `bench_fault_recovery` emits and the campaign
/// test asserts on.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/probe.hpp"

namespace dtpsim::chaos {

/// Recovery distribution for one fault class.
struct ClassSummary {
  int n = 0;              ///< faults injected
  int converged = 0;      ///< faults that reconverged before timeout
  double p50_bi = 0;      ///< median time-to-reconverge, beacon intervals
  double p99_bi = 0;      ///< tail time-to-reconverge, beacon intervals
  double worst_bi = 0;    ///< worst observed
  bool stall_ok = true;   ///< Section 5.4 ceiling held across all probes
  bool isolated = false;  ///< any probe reported a quarantined peer
};

/// Application-level outcome of one workload that ran over the campaign
/// (DESIGN.md §16): the protocol layer says "the bound held / broke"; the
/// app verdict says what that *meant* one level up — a write ordered
/// wrongly, a TDMA guard band missed, an OWD estimate outside its stated
/// uncertainty. Fault-free campaigns must report zero failures; campaigns
/// with injected faults are expected to detect some.
struct AppVerdict {
  std::string app;            ///< "owd" | "lww" | "tdma"
  std::uint64_t ops = 0;      ///< operations attempted (reads excluded)
  std::uint64_t failures = 0; ///< correctness failures (the gated number)
  std::uint64_t detected = 0; ///< degradations the app *noticed* (stale page,
                              ///< uncertainty overlap, self-reported skips)
  double worst_error_ns = 0;  ///< worst observed app-level error
  std::string detail;         ///< free-form context for the report table
};

/// All results of one campaign.
class CampaignReport {
 public:
  void add(ProbeResult r) { results_.push_back(std::move(r)); }

  const std::vector<ProbeResult>& results() const { return results_; }
  std::size_t size() const { return results_.size(); }

  /// Per-class aggregation, keyed by fault_class.
  std::map<std::string, ClassSummary> by_class() const;

  /// The summary for one class (zeroes if the class never ran).
  ClassSummary summary(const std::string& fault_class) const;

  /// Human-readable table.
  void print(std::ostream& os) const;

  /// One JSON array with a row per fault result. Each row carries the
  /// originating fault in `--repro` line format alongside the recovery
  /// numbers, so any row can be replayed verbatim from the artifact.
  std::string rows_json() const;

 private:
  std::vector<ProbeResult> results_;
};

}  // namespace dtpsim::chaos
