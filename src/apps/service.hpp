#pragma once

/// \file service.hpp
/// Time-as-a-service binding: one host plus the daemon whose timebase page
/// serves it (DESIGN.md §16). The app workloads (OWD, LWW, TDMA) and the
/// reader fleet all consume time through this pair: a lock-free page read
/// (`dtp::Daemon::timebase_sample`) plus the unit scale of the underlying
/// counter.

#include <cstdint>

#include "dtp/daemon.hpp"
#include "net/host.hpp"

namespace dtpsim::apps {

/// Every app frame (OWD probe, LWW token, TDMA slot frame) carries a 64-byte
/// payload and travels the hardware path in priority class 7, so causal
/// latency stays small enough for injected clock skew to show.
inline constexpr std::uint32_t kAppPayloadBytes = 64;
inline constexpr std::uint8_t kAppPriority = 7;

/// Cross-host counter disagreement budget (counter units) that the OWD and
/// LWW apps add to the two page uncertainties when judging a pair of
/// samples: the pairwise 4TD envelope the pages themselves cannot see (a
/// page's uncertainty only covers daemon-vs-own-counter error).
inline constexpr double kNetworkBoundUnits = 17.0;

/// One host's time service endpoint.
struct TimeService {
  net::Host* host = nullptr;
  dtp::Daemon* daemon = nullptr;

  /// Lock-free page read at simulated time `now`.
  dtp::TimebaseSample sample(fs_t now) const {
    return daemon->timebase_sample(now);
  }
};

/// Nanoseconds per counter unit of the daemon's underlying agent.
inline double ns_per_unit(const dtp::Daemon& d) {
  return to_ns_f(d.agent().device().oscillator().nominal_period()) /
         static_cast<double>(d.agent().params().counter_delta);
}

}  // namespace dtpsim::apps
