#include "wire/ntp.hpp"

#include <cmath>

#include "wire/bytes.hpp"

namespace dtpsim::ntp {

using wire::get_u64;
using wire::put_u32;
using wire::put_u64;

std::uint64_t ns_to_ntp_timestamp(double t_ns) {
  const double t_sec = std::max(t_ns, 0.0) / 1e9;
  const double sec = std::floor(t_sec);
  const double frac = t_sec - sec;
  return (static_cast<std::uint64_t>(sec) << 32) |
         static_cast<std::uint64_t>(std::llround(frac * 4294967296.0));
}

double ntp_timestamp_to_ns(std::uint64_t ts) {
  const double sec = static_cast<double>(ts >> 32);
  const double frac = static_cast<double>(ts & 0xFFFF'FFFFULL) / 4294967296.0;
  return (sec + frac) * 1e9;
}

std::vector<std::uint8_t> encode_ntp(const NtpMessage& msg, std::uint8_t stratum) {
  std::vector<std::uint8_t> out;
  out.reserve(kNtpPacketBytes);
  const std::uint8_t mode = msg.response ? 4 : 3;  // server : client
  out.push_back(static_cast<std::uint8_t>((0 << 6) | (4 << 3) | mode));  // LI|VN=4|mode
  out.push_back(msg.response ? stratum : 0);
  out.push_back(6);                                  // poll (2^6 s nominal)
  out.push_back(static_cast<std::uint8_t>(-20));     // precision ~1 us
  put_u32(out, 0);                                   // root delay
  put_u32(out, 0);                                   // root dispersion
  put_u32(out, msg.response ? 0x44545053u : 0);      // reference id "DTPS"
  put_u64(out, 0);                                   // reference timestamp
  put_u64(out, ns_to_ntp_timestamp(msg.t1_ns));      // originate (t1)
  put_u64(out, ns_to_ntp_timestamp(msg.t2_ns));      // receive (t2)
  put_u64(out, ns_to_ntp_timestamp(msg.t3_ns));      // transmit (t3)
  return out;
}

std::optional<ParsedNtp> parse_ntp(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kNtpPacketBytes) return std::nullopt;
  const std::uint8_t vn = (bytes[0] >> 3) & 0x7;
  const std::uint8_t mode = bytes[0] & 0x7;
  if (vn < 3 || vn > 4) return std::nullopt;
  if (mode != 3 && mode != 4) return std::nullopt;

  ParsedNtp p;
  p.version = vn;
  p.stratum = bytes[1];
  p.msg.response = mode == 4;
  p.msg.t1_ns = ntp_timestamp_to_ns(get_u64(&bytes[24]));
  p.msg.t2_ns = ntp_timestamp_to_ns(get_u64(&bytes[32]));
  p.msg.t3_ns = ntp_timestamp_to_ns(get_u64(&bytes[40]));
  return p;
}

}  // namespace dtpsim::ntp
