#pragma once

/// \file frame.hpp
/// Ethernet frame model and byte-level codec.
///
/// The event simulation moves `Frame` objects (header fields + an opaque
/// typed payload) and accounts for sizes exactly; a byte-level serializer
/// (`serialize_frame`/`parse_frame`) exists so tests can push real frames
/// through the real PCS codec and CRC.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace dtpsim::net {

/// 48-bit MAC address stored in the low bits of a u64.
struct MacAddr {
  std::uint64_t value = 0;

  static constexpr MacAddr broadcast() { return MacAddr{0xFFFF'FFFF'FFFFULL}; }
  constexpr bool is_broadcast() const { return value == 0xFFFF'FFFF'FFFFULL; }
  constexpr bool is_multicast() const { return (value >> 40) & 1; }

  constexpr bool operator==(const MacAddr&) const = default;
  std::string to_string() const;
};

/// Hash functor so MacAddr can key unordered_maps (forwarding tables).
struct MacAddrHash {
  std::size_t operator()(const MacAddr& m) const { return std::hash<std::uint64_t>{}(m.value); }
};

/// Every EtherType used in this repo. Receive and transmit hooks chain on
/// the host, and each one claims frames by EtherType alone, so two
/// protocols sharing a value would steal each other's frames.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;        ///< bulk traffic
inline constexpr std::uint16_t kEtherTypeTest = 0x88B5;        ///< local experiments
inline constexpr std::uint16_t kEtherTypeUtc = 0x88B6;         ///< dtp::UtcBroadcaster pairs
inline constexpr std::uint16_t kEtherTypeNtp = 0x88B7;         ///< NTP datagrams (stand-in for UDP/123)
inline constexpr std::uint16_t kEtherTypeTdma = 0x88B8;        ///< apps::TdmaApp slot frames
inline constexpr std::uint16_t kEtherTypeLww = 0x88B9;         ///< apps::LwwApp tokens
inline constexpr std::uint16_t kEtherTypeSourceSync = 0x88BA;  ///< dtp::UtcSourceServer syncs
inline constexpr std::uint16_t kEtherTypePageOwd = 0x88BB;     ///< apps::OwdApp probes
inline constexpr std::uint16_t kEtherTypePtp = 0x88F7;         ///< PTP over Ethernet (IEEE 1588 Annex F)

inline constexpr std::uint16_t kEtherTypes[] = {
    kEtherTypeIpv4, kEtherTypeTest,       kEtherTypeUtc,     kEtherTypeNtp, kEtherTypeTdma,
    kEtherTypeLww,  kEtherTypeSourceSync, kEtherTypePageOwd, kEtherTypePtp};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kEtherTypes); ++i)
        for (std::size_t j = i + 1; j < std::size(kEtherTypes); ++j)
          if (kEtherTypes[i] == kEtherTypes[j]) return false;
      return true;
    }(),
    "two protocols share an EtherType");

/// Base class for typed frame payloads (PTP messages, NTP messages, ...).
struct Packet {
  virtual ~Packet() = default;
};
using PacketPtr = std::shared_ptr<const Packet>;

/// Fixed Ethernet size accounting (bytes).
inline constexpr std::uint32_t kMacHeaderBytes = 14;   ///< dst + src + ethertype
inline constexpr std::uint32_t kFcsBytes = 4;
inline constexpr std::uint32_t kPreambleBytes = 8;     ///< preamble + SFD
inline constexpr std::uint32_t kMinFrameBytes = 64;    ///< header..FCS inclusive
inline constexpr std::uint32_t kMtuPayloadBytes = 1500;
/// The paper's "MTU-sized (1522 B)" frame: header + 1500 payload + FCS + VLAN.
inline constexpr std::uint32_t kMtuFrameBytes = 1522;
/// The paper's "jumbo-sized (~9 kB)" frame.
inline constexpr std::uint32_t kJumboFrameBytes = 9018;

/// One Ethernet frame in flight.
struct Frame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = kEtherTypeTest;
  std::uint32_t payload_bytes = 46;  ///< MAC client data length
  PacketPtr packet;                  ///< optional typed payload
  std::uint64_t id = 0;              ///< unique id for tracing
  /// 802.1p class of service (0 = best effort .. 7 = network control).
  /// Honored by MACs configured with more than one egress queue.
  std::uint8_t priority = 0;
  /// In-frame mutable metadata modelling PTP's correctionField: transparent
  /// clocks add per-hop residence time here, rewriting the field on the fly
  /// exactly as IEEE 1588 one-step TCs rewrite the header in flight.
  double correction_ns = 0.0;

  /// Frame length from header through FCS, honoring the 64-byte minimum.
  std::uint32_t frame_bytes() const;
  /// Bytes occupying the wire: frame plus preamble/SFD.
  std::uint32_t wire_bytes() const { return frame_bytes() + kPreambleBytes; }
};

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
