#include "dtp/messages.hpp"

#include <cstdio>
#include <stdexcept>

namespace dtpsim::dtp {

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kNone: return "NONE";
    case MessageType::kInit: return "INIT";
    case MessageType::kInitAck: return "INIT-ACK";
    case MessageType::kBeacon: return "BEACON";
    case MessageType::kBeaconJoin: return "BEACON-JOIN";
    case MessageType::kBeaconMsb: return "BEACON-MSB";
    case MessageType::kLog: return "LOG";
  }
  return "?";
}

std::string Message::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s(%llu)", dtp::to_string(type),
                static_cast<unsigned long long>(payload));
  return buf;
}

namespace {
constexpr std::uint64_t parity3(std::uint64_t v) {
  return ((v >> 0) ^ (v >> 1) ^ (v >> 2)) & 1;
}
}  // namespace

std::uint64_t encode_bits(const Message& m, bool parity) {
  if (m.type == MessageType::kNone)
    throw std::invalid_argument("encode_bits: cannot encode kNone");
  std::uint64_t payload = m.payload & kDtpPayloadMask;
  if (parity) {
    // Bit 52 of the payload carries even parity over bits [2:0].
    payload &= (1ULL << kParityPayloadBits) - 1;
    payload |= parity3(payload) << kParityPayloadBits;
  }
  return (static_cast<std::uint64_t>(m.type) & 0x7ULL) | (payload << 3);
}

std::optional<Message> decode_bits(std::uint64_t bits56, bool parity) {
  bits56 &= (1ULL << 56) - 1;
  const auto type_raw = static_cast<std::uint8_t>(bits56 & 0x7);
  if (type_raw == 0 || type_raw > static_cast<std::uint8_t>(MessageType::kLog))
    return std::nullopt;
  Message m;
  m.type = static_cast<MessageType>(type_raw);
  m.payload = (bits56 >> 3) & kDtpPayloadMask;
  if (parity) {
    const std::uint64_t claimed = (m.payload >> kParityPayloadBits) & 1;
    m.payload &= (1ULL << kParityPayloadBits) - 1;
    if (claimed != parity3(m.payload)) return std::nullopt;  // drop corrupted LSBs
  }
  return m;
}

}  // namespace dtpsim::dtp
