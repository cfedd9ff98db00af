/// Byte-level wire-format conformance: IPv4/UDP, PTPv2, NTPv4 round trips,
/// checksum behaviour, and a full-stack encapsulation walk: NTP packet ->
/// UDP -> Ethernet frame -> 64b/66b PCS -> scrambler -> back up.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/ethernet.hpp"
#include "wire/ntp.hpp"
#include "wire/pcs.hpp"
#include "wire/ptp.hpp"
#include "wire/scrambler.hpp"
#include "wire/udp.hpp"

namespace dtpsim {
namespace {

TEST(InternetChecksum, Rfc1071Example) {
  // Classic example from RFC 1071 section 3.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(net::internet_checksum(data, 8), 0xFFFF - 0xddf2);
}

TEST(InternetChecksum, ValidPacketSumsToZero) {
  Rng rng(81);
  std::vector<std::uint8_t> data(20);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  data[10] = data[11] = 0;
  const std::uint16_t c = net::internet_checksum(data.data(), data.size());
  data[10] = static_cast<std::uint8_t>(c >> 8);
  data[11] = static_cast<std::uint8_t>(c & 0xFF);
  EXPECT_EQ(net::internet_checksum(data.data(), data.size()), 0);
}

TEST(UdpCodec, RoundTrip) {
  net::UdpHeader h;
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A000002;
  h.src_port = 319;
  h.dst_port = 320;
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = net::encode_udp(h, payload);
  EXPECT_EQ(bytes.size(), net::kIpv4HeaderBytes + net::kUdpHeaderBytes + payload.size());

  const auto parsed = net::parse_udp(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_TRUE(parsed->udp_checksum_ok);
  EXPECT_EQ(parsed->header.src_ip, h.src_ip);
  EXPECT_EQ(parsed->header.dst_ip, h.dst_ip);
  EXPECT_EQ(parsed->header.src_port, h.src_port);
  EXPECT_EQ(parsed->header.dst_port, h.dst_port);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(UdpCodec, OddLengthPayload) {
  net::UdpHeader h;
  h.src_ip = 1;
  h.dst_ip = 2;
  std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto parsed = net::parse_udp(net::encode_udp(h, payload));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->udp_checksum_ok);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(UdpCodec, CorruptionFlagsChecksums) {
  net::UdpHeader h;
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A000002;
  auto bytes = net::encode_udp(h, {1, 2, 3, 4});
  auto ip_bad = bytes;
  ip_bad[8] ^= 0xFF;  // TTL inside the IP header
  auto p1 = net::parse_udp(ip_bad);
  ASSERT_TRUE(p1);
  EXPECT_FALSE(p1->ip_checksum_ok);

  auto udp_bad = bytes;
  udp_bad.back() ^= 0x01;  // payload byte
  auto p2 = net::parse_udp(udp_bad);
  ASSERT_TRUE(p2);
  EXPECT_FALSE(p2->udp_checksum_ok);
}

TEST(UdpCodec, StructurallyInvalidRejected) {
  EXPECT_FALSE(net::parse_udp({1, 2, 3}).has_value());
  net::UdpHeader h;
  auto bytes = net::encode_udp(h, {1});
  bytes[0] = 0x65;  // IPv6 version nibble
  EXPECT_FALSE(net::parse_udp(bytes).has_value());
  bytes[0] = 0x45;
  bytes[9] = 6;  // TCP
  EXPECT_FALSE(net::parse_udp(bytes).has_value());
}

TEST(PtpWire, SyncRoundTrip) {
  ptp::PtpMessage m;
  m.type = ptp::PtpType::kSync;
  m.sequence = 0xBEEF;
  m.clock_identity = 0x0011223344556677ULL;
  m.timestamp_ns = 1.5e9 + 123456789.0;
  const auto bytes = ptp::encode_ptp(m, 42.5);
  EXPECT_EQ(bytes.size(), 44u);  // the standard Sync length

  const auto p = ptp::parse_ptp(bytes);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->msg.type, ptp::PtpType::kSync);
  EXPECT_EQ(p->msg.sequence, 0xBEEF);
  EXPECT_EQ(p->msg.clock_identity, 0x0011223344556677ULL);
  EXPECT_NEAR(p->msg.timestamp_ns, m.timestamp_ns, 1.0);
  EXPECT_NEAR(p->correction_ns, 42.5, 1e-4);
}

TEST(PtpWire, AllTypesRoundTrip) {
  Rng rng(82);
  for (auto type : {ptp::PtpType::kSync, ptp::PtpType::kDelayReq, ptp::PtpType::kFollowUp,
                    ptp::PtpType::kDelayResp, ptp::PtpType::kAnnounce}) {
    ptp::PtpMessage m;
    m.type = type;
    m.sequence = static_cast<std::uint16_t>(rng.uniform(65536));
    m.clock_identity = rng();
    m.timestamp_ns = static_cast<double>(rng.uniform(1'000'000'000));
    m.priority = static_cast<std::uint8_t>(rng.uniform(256));
    m.requester = net::MacAddr{rng() & 0xFFFF'FFFF'FFFFULL};
    const auto p = ptp::parse_ptp(ptp::encode_ptp(m));
    ASSERT_TRUE(p) << static_cast<int>(type);
    EXPECT_EQ(p->msg.type, type);
    EXPECT_EQ(p->msg.sequence, m.sequence);
    EXPECT_NEAR(p->msg.timestamp_ns, m.timestamp_ns, 1.0);
    if (type == ptp::PtpType::kDelayResp) {
      EXPECT_EQ(p->msg.requester, m.requester);
    }
    if (type == ptp::PtpType::kAnnounce) {
      EXPECT_EQ(p->msg.priority, m.priority);
    }
  }
}

TEST(PtpWire, NegativeCorrectionSurvives) {
  ptp::PtpMessage m;
  m.type = ptp::PtpType::kSync;
  const auto p = ptp::parse_ptp(ptp::encode_ptp(m, -17.25));
  ASSERT_TRUE(p);
  EXPECT_NEAR(p->correction_ns, -17.25, 1e-4);
}

TEST(PtpWire, MalformedRejected) {
  EXPECT_FALSE(ptp::parse_ptp({1, 2, 3}).has_value());
  ptp::PtpMessage m;
  m.type = ptp::PtpType::kSync;
  auto bytes = ptp::encode_ptp(m);
  bytes[1] = 0x01;  // PTPv1
  EXPECT_FALSE(ptp::parse_ptp(bytes).has_value());
  bytes[1] = 0x02;
  bytes[0] = 0x07;  // unknown message type
  EXPECT_FALSE(ptp::parse_ptp(bytes).has_value());
}

TEST(NtpWire, TimestampConversion) {
  // 1 s + 0.5 s in 32.32 fixed point.
  const std::uint64_t ts = ntp::ns_to_ntp_timestamp(1.5e9);
  EXPECT_EQ(ts >> 32, 1u);
  EXPECT_EQ(ts & 0xFFFFFFFF, 0x80000000u);
  EXPECT_NEAR(ntp::ntp_timestamp_to_ns(ts), 1.5e9, 1.0);
}

TEST(NtpWire, RoundTrip) {
  ntp::NtpMessage m;
  m.response = true;
  m.t1_ns = 1.25e9;
  m.t2_ns = 2.5e9;
  m.t3_ns = 2.500001e9;
  const auto bytes = ntp::encode_ntp(m, /*stratum=*/1);
  EXPECT_EQ(bytes.size(), ntp::kNtpPacketBytes);
  const auto p = ntp::parse_ntp(bytes);
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->msg.response);
  EXPECT_EQ(p->stratum, 1);
  EXPECT_EQ(p->version, 4);
  EXPECT_NEAR(p->msg.t1_ns, m.t1_ns, 1.0);
  EXPECT_NEAR(p->msg.t2_ns, m.t2_ns, 1.0);
  EXPECT_NEAR(p->msg.t3_ns, m.t3_ns, 1.0);
}

TEST(NtpWire, ClientModeAndRejects) {
  ntp::NtpMessage req;
  req.t1_ns = 7e9;
  const auto p = ntp::parse_ntp(ntp::encode_ntp(req));
  ASSERT_TRUE(p);
  EXPECT_FALSE(p->msg.response);
  EXPECT_EQ(p->stratum, 0);
  EXPECT_FALSE(ntp::parse_ntp(std::vector<std::uint8_t>(10)).has_value());
  auto bad = ntp::encode_ntp(req);
  bad[0] = (4 << 3) | 5;  // broadcast mode: unsupported here
  EXPECT_FALSE(ntp::parse_ntp(bad).has_value());
}

TEST(FullStack, NtpThroughUdpFramePcsScrambler) {
  // The whole encapsulation, byte-exact: NTP -> UDP/IP -> Ethernet frame
  // (real CRC) -> 64b/66b blocks -> scrambled wire -> back up.
  ntp::NtpMessage m;
  m.response = true;
  m.t1_ns = 1e9;
  m.t2_ns = 2e9;
  m.t3_ns = 3e9;
  net::UdpHeader uh;
  uh.src_ip = 0x0A000001;
  uh.dst_ip = 0x0A0000FE;
  uh.src_port = ntp::kNtpPort;
  uh.dst_port = 50000;
  const auto udp_bytes = net::encode_udp(uh, ntp::encode_ntp(m, 1));

  net::Frame f;
  f.dst = net::MacAddr{0x00AABBCCDDEEULL};
  f.src = net::MacAddr{0x001122334455ULL};
  f.ethertype = net::kEtherTypeIpv4;
  f.payload_bytes = static_cast<std::uint32_t>(udp_bytes.size());
  const auto frame_bytes = net::serialize_frame(f, udp_bytes);

  phy::Scrambler scr(0xD7);
  phy::Descrambler dscr(0xD7);
  phy::FrameDecoder dec;
  std::vector<std::uint8_t> rx_frame;
  for (const auto& b : phy::encode_frame(frame_bytes)) {
    if (dec.feed(dscr.descramble_block(scr.scramble_block(b))))
      rx_frame = dec.take_frame();
  }
  ASSERT_FALSE(rx_frame.empty());

  const auto parsed_frame = net::parse_frame(rx_frame);
  ASSERT_TRUE(parsed_frame.fcs_ok);
  EXPECT_EQ(parsed_frame.ethertype, net::kEtherTypeIpv4);
  const auto parsed_udp = net::parse_udp(parsed_frame.payload);
  ASSERT_TRUE(parsed_udp);
  EXPECT_TRUE(parsed_udp->udp_checksum_ok);
  const auto parsed_ntp = ntp::parse_ntp(parsed_udp->payload);
  ASSERT_TRUE(parsed_ntp);
  EXPECT_NEAR(parsed_ntp->msg.t2_ns, 2e9, 1.0);
}

}  // namespace
}  // namespace dtpsim
