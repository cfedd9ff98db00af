#include "wire/ptp.hpp"

#include <cmath>

#include "wire/bytes.hpp"

namespace dtpsim::ptp {

namespace {

using wire::get_u16;
using wire::get_u32;
using wire::get_u64;
using wire::put_u16;
using wire::put_u32;
using wire::put_u64;

constexpr std::size_t kHeaderBytes = 34;

std::uint8_t type_nibble(PtpType t) {
  switch (t) {
    case PtpType::kSync: return 0x0;
    case PtpType::kDelayReq: return 0x1;
    case PtpType::kFollowUp: return 0x8;
    case PtpType::kDelayResp: return 0x9;
    case PtpType::kAnnounce: return 0xB;
  }
  return 0xF;
}

std::optional<PtpType> type_from_nibble(std::uint8_t n) {
  switch (n) {
    case 0x0: return PtpType::kSync;
    case 0x1: return PtpType::kDelayReq;
    case 0x8: return PtpType::kFollowUp;
    case 0x9: return PtpType::kDelayResp;
    case 0xB: return PtpType::kAnnounce;
  }
  return std::nullopt;
}

std::size_t body_bytes(PtpType t) {
  switch (t) {
    case PtpType::kSync:
    case PtpType::kDelayReq:
    case PtpType::kFollowUp:
      return 10;  // originTimestamp
    case PtpType::kDelayResp:
      return 20;  // receiveTimestamp + requestingPortIdentity
    case PtpType::kAnnounce:
      return 30;  // originTimestamp + currentUtcOffset + GM fields + stepsRemoved...
  }
  return 10;
}

/// PTP Timestamp: 48-bit seconds + 32-bit nanoseconds from a double of ns.
void put_timestamp(std::vector<std::uint8_t>& out, double t_ns) {
  const auto total_ns = static_cast<std::uint64_t>(std::llround(std::max(t_ns, 0.0)));
  wire::put_be(out, total_ns / 1'000'000'000ULL, 6);
  put_u32(out, static_cast<std::uint32_t>(total_ns % 1'000'000'000ULL));
}

double get_timestamp(const std::uint8_t* p) {
  return static_cast<double>(wire::get_be(p, 6)) * 1e9 + static_cast<double>(get_u32(p + 6));
}

}  // namespace

std::vector<std::uint8_t> encode_ptp(const PtpMessage& msg, double correction_ns) {
  std::vector<std::uint8_t> out;
  const std::size_t total = kHeaderBytes + body_bytes(msg.type);
  out.reserve(total);

  out.push_back(type_nibble(msg.type));  // transportSpecific=0 | messageType
  out.push_back(0x02);                   // versionPTP = 2
  put_u16(out, static_cast<std::uint16_t>(total));
  out.push_back(0);  // domainNumber
  out.push_back(0);  // reserved
  put_u16(out, 0);   // flagField (two-step handled by message types here)
  // correctionField: signed 2^-16 ns units.
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(std::llround(correction_ns * 65536.0))));
  put_u32(out, 0);  // reserved
  // sourcePortIdentity: clockIdentity (8) + portNumber (2).
  put_u64(out, msg.clock_identity);
  put_u16(out, 1);
  put_u16(out, msg.sequence);
  out.push_back(0);     // controlField (legacy)
  out.push_back(0x7F);  // logMessageInterval

  switch (msg.type) {
    case PtpType::kSync:
    case PtpType::kDelayReq:
    case PtpType::kFollowUp:
      put_timestamp(out, msg.timestamp_ns);
      break;
    case PtpType::kDelayResp:
      put_timestamp(out, msg.timestamp_ns);
      put_u64(out, msg.requester.value);  // requestingPortIdentity (clock id)
      put_u16(out, 1);                    //   ... port number
      break;
    case PtpType::kAnnounce:
      put_timestamp(out, msg.timestamp_ns);
      put_u16(out, 37);             // currentUtcOffset
      out.push_back(0);             // reserved
      out.push_back(msg.priority);  // grandmasterPriority1
      put_u32(out, 0xFE'FF'FF'00);  // grandmasterClockQuality (class/accuracy/variance)
      out.push_back(msg.priority);  // grandmasterPriority2
      put_u64(out, msg.clock_identity);  // grandmasterIdentity
      put_u16(out, 0);                   // stepsRemoved
      out.push_back(0xA0);               // timeSource: internal oscillator
      break;
  }
  return out;
}

std::optional<ParsedPtp> parse_ptp(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if ((bytes[1] & 0x0F) != 2) return std::nullopt;  // not PTPv2
  const auto type = type_from_nibble(bytes[0] & 0x0F);
  if (!type) return std::nullopt;
  const std::uint16_t length = get_u16(&bytes[2]);
  if (length != kHeaderBytes + body_bytes(*type) || bytes.size() < length)
    return std::nullopt;

  ParsedPtp p;
  p.msg.type = *type;
  p.correction_ns =
      static_cast<double>(static_cast<std::int64_t>(get_u64(&bytes[8]))) / 65536.0;
  p.msg.clock_identity = get_u64(&bytes[20]);
  p.msg.sequence = get_u16(&bytes[30]);

  const std::uint8_t* body = bytes.data() + kHeaderBytes;
  switch (*type) {
    case PtpType::kSync:
    case PtpType::kDelayReq:
    case PtpType::kFollowUp:
      p.msg.timestamp_ns = get_timestamp(body);
      break;
    case PtpType::kDelayResp:
      p.msg.timestamp_ns = get_timestamp(body);
      p.msg.requester = net::MacAddr{get_u64(body + 10)};
      break;
    case PtpType::kAnnounce:
      p.msg.timestamp_ns = get_timestamp(body);
      p.msg.priority = body[13];
      p.msg.clock_identity = get_u64(body + 19);
      break;
  }
  return p;
}

}  // namespace dtpsim::ptp
