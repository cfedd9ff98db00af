#include "check/violation.hpp"

#include <cstdio>
#include <stdexcept>

namespace dtpsim::check {

const char* invariant_name(InvariantKind k) {
  switch (k) {
    case InvariantKind::kClockMonotonic: return "clock-monotonic";
    case InvariantKind::kOffsetBound: return "offset-bound";
    case InvariantKind::kZeroOverhead: return "zero-overhead";
    case InvariantKind::kIdleRestore: return "idle-restore";
    case InvariantKind::kFifoBound: return "fifo-bound";
    case InvariantKind::kCounterWrap: return "counter-wrap";
    case InvariantKind::kCounterRunaway: return "counter-runaway";
    case InvariantKind::kDigestMismatch: return "digest-mismatch";
    case InvariantKind::kUtcBackstep: return "utc-backstep";
    case InvariantKind::kUtcUncertainty: return "utc-uncertainty";
    case InvariantKind::kWatchdogRemediation: return "watchdog-remediation";
    case InvariantKind::kTimebaseUncertainty: return "timebase-uncertainty";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "[%s] t=%.3f us dev=%s observed=%.4g bound=%.4g",
                invariant_name(kind), static_cast<double>(at) * 1e-9,
                device.empty() ? "-" : device.c_str(), observed, bound);
  std::string out(buf);
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

}  // namespace dtpsim::check
