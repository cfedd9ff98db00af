#pragma once

/// \file clock.hpp
/// PTP hardware clock (PHC).
///
/// PTP-capable NICs carry an adjustable clock driven by the NIC oscillator;
/// the generic mechanism lives in phy::AdjustableClock (kernel software
/// clocks share the same structure — see the NTP baseline).

#include "phy/adjustable_clock.hpp"

namespace dtpsim::ptp {

/// A PHC is an adjustable clock in the NIC.
using HardwareClock = phy::AdjustableClock;

/// Hardware timestamp granularity of every PHC: grandmaster, client and
/// transparent clock.
inline constexpr fs_t kTimestampResolution = from_ns(8);

}  // namespace dtpsim::ptp
