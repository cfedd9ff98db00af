#include "wire/udp.hpp"

#include "wire/bytes.hpp"

namespace dtpsim::net {

namespace {

using wire::get_u16;
using wire::get_u32;
using wire::put_u16;
using wire::put_u32;

/// RFC 1071: add `len` bytes to `sum` as big-endian 16-bit words (an odd
/// last byte is padded with zero), fold the carries, and complement.
std::uint16_t ones_complement(std::uint32_t sum, const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i + 1 < len; i += 2) sum += get_u16(data + i);
  if (len & 1) sum += static_cast<std::uint32_t>(data[len - 1] << 8);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

/// Checksum over a UDP pseudo-header + segment; the pseudo-header fields
/// are summed directly as 16-bit words.
std::uint16_t udp_checksum(const UdpHeader& h, const std::uint8_t* segment,
                           std::size_t len) {
  const std::uint32_t pseudo = (h.src_ip >> 16) + (h.src_ip & 0xFFFF) + (h.dst_ip >> 16) +
                               (h.dst_ip & 0xFFFF) + 17 +  // zero byte + protocol = UDP
                               static_cast<std::uint16_t>(len);
  return ones_complement(pseudo, segment, len);
}

}  // namespace

std::uint16_t internet_checksum(const std::uint8_t* data, std::size_t len) {
  return ones_complement(0, data, len);
}

std::vector<std::uint8_t> encode_udp(const UdpHeader& h,
                                     const std::vector<std::uint8_t>& payload) {
  const auto udp_len = static_cast<std::uint16_t>(kUdpHeaderBytes + payload.size());
  const auto total_len = static_cast<std::uint16_t>(kIpv4HeaderBytes + udp_len);

  // UDP segment first (checksum needs the finished segment).
  std::vector<std::uint8_t> udp;
  udp.reserve(udp_len);
  put_u16(udp, h.src_port);
  put_u16(udp, h.dst_port);
  put_u16(udp, udp_len);
  put_u16(udp, 0);  // checksum placeholder
  udp.insert(udp.end(), payload.begin(), payload.end());
  std::uint16_t csum = udp_checksum(h, udp.data(), udp.size());
  if (csum == 0) csum = 0xFFFF;  // RFC 768: 0 means "no checksum"
  udp[6] = static_cast<std::uint8_t>(csum >> 8);
  udp[7] = static_cast<std::uint8_t>(csum & 0xFF);

  std::vector<std::uint8_t> out;
  out.reserve(total_len);
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(0);     // DSCP/ECN
  put_u16(out, total_len);
  put_u16(out, 0);       // identification
  put_u16(out, 0x4000);  // flags: DF
  out.push_back(h.ttl);
  out.push_back(17);  // protocol = UDP
  put_u16(out, 0);    // header checksum placeholder
  put_u32(out, h.src_ip);
  put_u32(out, h.dst_ip);
  const std::uint16_t ip_csum = internet_checksum(out.data(), kIpv4HeaderBytes);
  out[10] = static_cast<std::uint8_t>(ip_csum >> 8);
  out[11] = static_cast<std::uint8_t>(ip_csum & 0xFF);

  out.insert(out.end(), udp.begin(), udp.end());
  return out;
}

std::optional<ParsedUdp> parse_udp(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kIpv4HeaderBytes + kUdpHeaderBytes) return std::nullopt;
  if ((bytes[0] >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(bytes[0] & 0x0F) * 4;
  if (ihl < kIpv4HeaderBytes || bytes.size() < ihl + kUdpHeaderBytes) return std::nullopt;
  if (bytes[9] != 17) return std::nullopt;  // not UDP
  const std::uint16_t total_len = get_u16(&bytes[2]);
  if (total_len > bytes.size() || total_len < ihl + kUdpHeaderBytes) return std::nullopt;

  ParsedUdp p;
  p.header.ttl = bytes[8];
  p.header.src_ip = get_u32(&bytes[12]);
  p.header.dst_ip = get_u32(&bytes[16]);
  p.ip_checksum_ok = internet_checksum(bytes.data(), ihl) == 0;

  const std::uint8_t* udp = bytes.data() + ihl;
  p.header.src_port = get_u16(udp);
  p.header.dst_port = get_u16(udp + 2);
  const std::uint16_t udp_len = get_u16(udp + 4);
  if (udp_len < kUdpHeaderBytes || ihl + udp_len > total_len) return std::nullopt;
  p.payload.assign(udp + kUdpHeaderBytes, udp + udp_len);
  // Summed with its checksum field included, a correct segment checks to 0.
  p.udp_checksum_ok = udp_checksum(p.header, udp, udp_len) == 0;
  return p;
}

}  // namespace dtpsim::net
