#pragma once

/// \file ethernet.hpp
/// Ethernet frame bytes: header serialization and the IEEE 802.3 CRC-32
/// frame check sequence.
///
/// The event simulation moves `net::Frame` objects and models FCS failures
/// statistically (see phy::Cable); this codec writes real frame bytes with
/// the real polynomial, so tests can push frames through the PCS and
/// scrambler and watch a flipped wire bit fail the FCS.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/frame.hpp"

namespace dtpsim::net {

/// CRC-32 (reflected, polynomial 0xEDB88320) over `len` bytes; returns the
/// value transmitted as the Ethernet FCS.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// Incremental variant: fold more bytes into a running CRC. Start with
/// `kCrc32Init`, finish with `crc32_finish`.
inline constexpr std::uint32_t kCrc32Init = 0xFFFF'FFFFu;
std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* data, std::size_t len);
constexpr std::uint32_t crc32_finish(std::uint32_t state) { return ~state; }

/// Serialize header + dummy payload + real CRC into wire bytes (without
/// preamble); `parse_frame` reverses it and verifies the CRC.
std::vector<std::uint8_t> serialize_frame(const Frame& f,
                                          const std::vector<std::uint8_t>& payload);

/// Result of parsing a byte-level frame.
struct ParsedFrame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0;
  std::vector<std::uint8_t> payload;
  bool fcs_ok = false;
};
ParsedFrame parse_frame(const std::vector<std::uint8_t>& bytes);

}  // namespace dtpsim::net
