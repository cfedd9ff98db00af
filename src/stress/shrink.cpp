#include "stress/shrink.hpp"

#include <algorithm>
#include <stdexcept>

namespace dtpsim::stress {

namespace {

bool has_kind(const CampaignResult& r, check::InvariantKind kind) {
  for (const auto& v : r.violations)
    if (v.kind == kind) return true;
  return false;
}

/// All single-step reductions of `s`, most aggressive first. Every
/// candidate is strictly smaller by `spec_size` (faults dominate the
/// metric, then devices, then horizon/threads/flows).
std::vector<StressSpec> candidates(const StressSpec& s) {
  std::vector<StressSpec> out;

  // Drop one fault, last first (later faults are likelier to be incidental).
  for (std::size_t i = s.faults.size(); i-- > 0;) {
    StressSpec c = s;
    c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }

  // Collapse flap storms to a single flap.
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    if (s.faults[i].kind == chaos::FaultKind::kFlapStorm && s.faults[i].count > 1) {
      StressSpec c = s;
      c.faults[i].count = 1;
      out.push_back(std::move(c));
    }
  }

  if (s.threads > 1) {
    StressSpec c = s;
    c.threads = 1;
    out.push_back(std::move(c));
  }

  if (s.bridged) {
    StressSpec c = s;
    c.bridged = false;
    out.push_back(std::move(c));
  }

  if (s.n_flows > 0) {
    StressSpec c = s;
    c.n_flows = s.n_flows / 2;
    out.push_back(std::move(c));
  }

  // Pull the horizon halfway toward the settle point (but past every fault
  // the spec still schedules — an unfinished fault plan would throw off the
  // chaos probes, not reproduce the violation).
  {
    fs_t floor = s.settle + from_us(200);
    for (const auto& f : s.faults) floor = std::max(floor, chaos::fault_end(f) + from_us(200));
    const fs_t half = s.settle + (s.horizon - s.settle) / 2;
    if (half > floor && half < s.horizon) {
      StressSpec c = s;
      c.horizon = half;
      out.push_back(std::move(c));
    }
  }

  // Shave the topology. Candidates that orphan a fault's named device fail
  // to resolve and are skipped by the caller.
  switch (s.topo) {
    case TopoKind::kChain:
      if (s.chain_switches > 1) {
        StressSpec c = s;
        c.chain_switches = s.chain_switches - 1;
        out.push_back(std::move(c));
      }
      break;
    case TopoKind::kPaperTree:
      break;
    case TopoKind::kRandomTree:
      if (s.tree_switches > 2) {
        StressSpec c = s;
        c.tree_switches = s.tree_switches - 1;
        out.push_back(std::move(c));
      }
      if (s.tree_hosts > 1) {
        StressSpec c = s;
        c.tree_hosts = s.tree_hosts - 1;
        out.push_back(std::move(c));
      }
      break;
    case TopoKind::kFatTree:
      if (s.fat_hosts_per_edge > 1) {
        StressSpec c = s;
        c.fat_hosts_per_edge = s.fat_hosts_per_edge - 1;
        out.push_back(std::move(c));
      }
      break;
  }

  return out;
}

}  // namespace

ShrinkResult shrink(const StressSpec& spec, const CampaignResult& failure, int max_runs) {
  if (failure.violations.empty())
    throw std::invalid_argument("stress::shrink: the input run is clean");

  ShrinkResult r;
  r.kind = failure.violations.front().kind;  // violations are sorted; front is earliest
  r.minimal = spec;
  r.last_failure = failure;
  r.original_size = spec_size(spec);

  bool improved = true;
  while (improved && r.runs < max_runs) {
    improved = false;
    for (StressSpec& c : candidates(r.minimal)) {
      if (r.runs >= max_runs) break;
      CampaignResult cr;
      try {
        ++r.runs;
        // A digest mismatch only exists relative to the serial-exact
        // baseline, so those candidates must replay through the
        // differential; every other violation reproduces in a single run.
        cr = r.kind == check::InvariantKind::kDigestMismatch ? run_differential(c)
                                                             : run_campaign(c);
      } catch (const std::invalid_argument&) {
        continue;  // candidate names a device or cable it no longer builds
      }
      if (has_kind(cr, r.kind)) {
        r.minimal = std::move(c);
        r.last_failure = std::move(cr);
        ++r.reductions;
        improved = true;
        break;  // restart candidate generation from the smaller spec
      }
    }
  }

  r.minimal_size = spec_size(r.minimal);
  return r;
}

}  // namespace dtpsim::stress
