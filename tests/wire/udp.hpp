#pragma once

/// \file udp.hpp
/// Byte-level IPv4/UDP encapsulation.
///
/// The event simulation carries typed message objects; this codec builds
/// and parses IPv4 + UDP headers with real checksums, so the PTP and NTP
/// byte codecs (wire/ptp.hpp, wire/ntp.hpp) can round-trip through actual
/// packet bytes, and tests can corrupt bytes and watch checksums catch it.

#include <cstdint>
#include <optional>
#include <vector>

namespace dtpsim::net {

/// IPv4 address as a host-order u32 (e.g. 10.0.0.1 = 0x0A000001).
using Ipv4Addr = std::uint32_t;

/// One UDP datagram's addressing.
struct UdpHeader {
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t ttl = 64;
};

/// The Internet checksum (RFC 1071) over `len` bytes.
std::uint16_t internet_checksum(const std::uint8_t* data, std::size_t len);

/// Build IPv4+UDP headers around `payload`. The IPv4 header checksum and
/// the UDP checksum (with pseudo-header) are both computed.
std::vector<std::uint8_t> encode_udp(const UdpHeader& h,
                                     const std::vector<std::uint8_t>& payload);

/// Parse result of a UDP datagram.
struct ParsedUdp {
  UdpHeader header;
  std::vector<std::uint8_t> payload;
  bool ip_checksum_ok = false;
  bool udp_checksum_ok = false;
};

/// Parse IPv4+UDP bytes; nullopt if structurally invalid (too short, not
/// IPv4, not UDP, inconsistent lengths). Checksum failures parse but are
/// flagged.
std::optional<ParsedUdp> parse_udp(const std::vector<std::uint8_t>& bytes);

/// Fixed sizes.
inline constexpr std::size_t kIpv4HeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;

}  // namespace dtpsim::net
