#pragma once

/// \file violation.hpp
/// Structured invariant-violation reports (DESIGN.md §10).
///
/// The sentinel never aborts the simulation: every broken invariant becomes
/// a `Violation` carrying the simulated time, the device involved, and the
/// observed-vs-bound numbers, so a stress campaign can finish, report all
/// damage at once, and hand the fuzzer something to shrink against.

#include <cstdint>
#include <string>

#include "common/time_units.hpp"

namespace dtpsim::check {

/// The invariants the sentinel watches — one per monitored paper claim.
enum class InvariantKind {
  kClockMonotonic,   ///< a device's global counter decreased (no legal reset)
  kOffsetBound,      ///< pairwise offset exceeded 4TD after settling
  kZeroOverhead,     ///< PHY frame count diverged from MAC frame count
  kIdleRestore,      ///< a control payload spilled past the 56-bit idle field
  kFifoBound,        ///< CDC crossing delay outside the SyncFifo envelope
  kCounterWrap,      ///< 53-bit reconstruction failed near the live counter
  kCounterRunaway,   ///< network-max counter advanced faster than any clock
  kDigestMismatch,   ///< serial and parallel runs observably diverged
  kUtcBackstep,      ///< a hierarchy client's served UTC stepped backwards
  kUtcUncertainty,   ///< served uncertainty understated the true UTC error
  kWatchdogRemediation,  ///< watchdog escalation broke its bounded/monotone
                         ///< remediation contract (attempt ceiling, backoff
                         ///< monotonicity, or action after a final disable)
  kTimebaseUncertainty,  ///< a timebase page served a fresh (non-stale)
                         ///< snapshot whose uncertainty understated the true
                         ///< counter error
};

inline constexpr int kInvariantKindCount = 12;

/// Stable short name ("offset-bound", ...) used in reports and repro files.
const char* invariant_name(InvariantKind k);

/// One broken invariant, with enough context to debug it from a log line.
struct Violation {
  InvariantKind kind = InvariantKind::kClockMonotonic;
  fs_t at = 0;            ///< simulated time of detection
  std::string device;     ///< device (or port) name; empty = network-wide
  double observed = 0.0;  ///< measured value, in the invariant's unit
  double bound = 0.0;     ///< the limit it broke
  std::string detail;     ///< free-form context (counter values, ...)

  std::string to_string() const;
};

}  // namespace dtpsim::check
