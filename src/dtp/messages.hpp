#pragma once

/// \file messages.hpp
/// DTP protocol messages and their 56-bit idle-field encoding.
///
/// Section 4.4: an /E/ control block carries eight 7-bit idle characters =
/// 56 usable bits. A DTP message is a 3-bit type plus a 53-bit payload (the
/// low or high half of the 106-bit counter). Simulated ports carry exactly
/// that 56-bit field; the block-level codec lives with the tests
/// (tests/wire/dtp.hpp). Five types exist in the paper (INIT, INIT-ACK,
/// BEACON, BEACON-JOIN, BEACON-MSB); we add LOG, the measurement message
/// the evaluation section pushes through the DTP layer (Section 6.2), which
/// the paper also carries in the PHY.
///
/// An optional parity mode implements the bit-error hardening sketched in
/// Section 3.2: one payload bit is sacrificed to carry the parity of the
/// three least significant counter bits.

#include <cstdint>
#include <optional>
#include <string>

#include "common/wide_counter.hpp"

namespace dtpsim::dtp {

/// Message types (3 bits). Zero is reserved so that an all-zero idle block
/// (plain /I/ characters) is never mistaken for a DTP message.
enum class MessageType : std::uint8_t {
  kNone = 0,        ///< plain idles, not a DTP message
  kInit = 1,        ///< T0: carries sender's local counter
  kInitAck = 2,     ///< T1: echoes the INIT payload
  kBeacon = 3,      ///< T3: carries sender's global counter (low 53 bits)
  kBeaconJoin = 4,  ///< large-adjustment beacon for joins/partition healing
  kBeaconMsb = 5,   ///< carries the high 53 bits of the global counter
  kLog = 6,         ///< evaluation harness log message (Section 6.2)
};

const char* to_string(MessageType t);

/// One DTP message: type + 53-bit payload.
struct Message {
  MessageType type = MessageType::kNone;
  std::uint64_t payload = 0;  ///< 53 significant bits

  bool operator==(const Message&) const = default;
  std::string to_string() const;
};

/// How many payload bits remain available when parity mode is on.
inline constexpr int kParityPayloadBits = kDtpPayloadBits - 1;

/// Encode a message into the 56-bit idle field.
/// Layout: bits [2:0] type, bits [55:3] payload.
/// With `parity`, payload bit 52 is replaced by the even parity of payload
/// bits [2:0] (so counters are effectively 52-bit halves in that mode).
std::uint64_t encode_bits(const Message& m, bool parity = false);

/// Decode a 56-bit idle field. Returns nullopt for kNone (plain idles) or,
/// in parity mode, for messages failing the parity check.
std::optional<Message> decode_bits(std::uint64_t bits56, bool parity = false);

}  // namespace dtpsim::dtp
