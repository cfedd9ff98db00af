#pragma once

/// \file ntp.hpp
/// RFC 5905 NTPv4 packet codec.
///
/// Serializes NtpMessage to the 48-byte NTP packet: LI/VN/mode byte,
/// stratum, poll, precision, root delay/dispersion, reference id, and the
/// four 64-bit NTP timestamps (32.32 fixed point, seconds since era 0).
/// The simulation's t1/t2/t3 map to the originate/receive/transmit
/// timestamps; the mode field distinguishes client (3) from server (4).

#include <cstdint>
#include <optional>
#include <vector>

#include "ntp/ntp.hpp"

namespace dtpsim::ntp {

/// NTP's UDP port.
inline constexpr std::uint16_t kNtpPort = 123;
/// NTPv4 packet size (no extensions, no MAC).
inline constexpr std::size_t kNtpPacketBytes = 48;

/// Serialize. `stratum` is 1 for the server role.
std::vector<std::uint8_t> encode_ntp(const NtpMessage& msg, std::uint8_t stratum = 2);

/// Parse result.
struct ParsedNtp {
  NtpMessage msg;
  std::uint8_t stratum = 0;
  std::uint8_t version = 0;
};

/// Parse 48-byte NTP packets; nullopt if too short or not v3/v4
/// client/server mode.
std::optional<ParsedNtp> parse_ntp(const std::vector<std::uint8_t>& bytes);

/// Convert between nanoseconds and the NTP 32.32 fixed-point timestamp.
std::uint64_t ns_to_ntp_timestamp(double t_ns);
double ntp_timestamp_to_ns(std::uint64_t ts);

}  // namespace dtpsim::ntp
