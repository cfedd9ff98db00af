#pragma once

/// \file ptp.hpp
/// IEEE 1588-2008 on-the-wire message codec.
///
/// Serializes PtpMessage to the standard's byte layout — the 34-byte common
/// header (transportSpecific/messageType, version, length, domain, flags,
/// correctionField, sourcePortIdentity, sequenceId, control, logMessage-
/// Interval) followed by the per-type body (originTimestamp as 48-bit
/// seconds + 32-bit nanoseconds, requestingPortIdentity for Delay_Resp,
/// grandmaster fields for Announce). Round-trips exactly; used by the
/// conformance tests to prove the simulation's message objects map onto
/// real PTPv2 packets.

#include <cstdint>
#include <optional>
#include <vector>

#include "ptp/messages.hpp"

namespace dtpsim::ptp {

/// Serialize to PTPv2 bytes. `correction_ns` goes to the header's
/// correctionField (in 2^-16 ns units, as the standard specifies).
std::vector<std::uint8_t> encode_ptp(const PtpMessage& msg, double correction_ns = 0.0);

/// Parse result: the message plus the header correctionField.
struct ParsedPtp {
  PtpMessage msg;
  double correction_ns = 0.0;
};

/// Parse PTPv2 bytes; nullopt for malformed input (short, bad version,
/// unknown type, inconsistent messageLength).
std::optional<ParsedPtp> parse_ptp(const std::vector<std::uint8_t>& bytes);

/// PTP event/general UDP ports (IEEE 1588 Annex D).
inline constexpr std::uint16_t kPtpEventPort = 319;
inline constexpr std::uint16_t kPtpGeneralPort = 320;

}  // namespace dtpsim::ptp
