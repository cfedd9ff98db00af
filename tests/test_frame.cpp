#include "net/frame.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/ethernet.hpp"

namespace dtpsim::net {
namespace {

TEST(MacAddr, Broadcast) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
  EXPECT_FALSE(MacAddr{0x1}.is_broadcast());
}

TEST(MacAddr, MulticastBit) {
  EXPECT_TRUE(MacAddr{0x0180'C200'000EULL}.is_multicast());  // LLDP-style
  EXPECT_FALSE(MacAddr{0x0280'C200'000EULL}.is_multicast());
}

TEST(MacAddr, ToString) {
  EXPECT_EQ(MacAddr{0x0011'2233'4455ULL}.to_string(), "00:11:22:33:44:55");
}

TEST(MacAddr, HashDistinguishes) {
  MacAddrHash h;
  EXPECT_NE(h(MacAddr{1}), h(MacAddr{2}));
}

TEST(Frame, SizeAccounting) {
  Frame f;
  f.payload_bytes = 1500;
  EXPECT_EQ(f.frame_bytes(), 1518u);
  EXPECT_EQ(f.wire_bytes(), 1526u);
}

TEST(Frame, MinimumSizeEnforced) {
  Frame f;
  f.payload_bytes = 1;
  EXPECT_EQ(f.frame_bytes(), kMinFrameBytes);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(1);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  std::uint32_t state = kCrc32Init;
  state = crc32_update(state, data.data(), 400);
  state = crc32_update(state, data.data() + 400, 600);
  EXPECT_EQ(crc32_finish(state), crc32(data.data(), data.size()));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Rng rng(2);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  const std::uint32_t good = crc32(data.data(), data.size());
  data[10] ^= 0x04;
  EXPECT_NE(crc32(data.data(), data.size()), good);
}

TEST(FrameCodec, RoundTrip) {
  Frame f;
  f.dst = MacAddr{0x00AA'BBCC'DDEEULL};
  f.src = MacAddr{0x0011'2233'4455ULL};
  f.ethertype = kEtherTypeTest;
  f.payload_bytes = 100;
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);

  const auto bytes = serialize_frame(f, payload);
  EXPECT_EQ(bytes.size(), f.frame_bytes());

  const auto parsed = parse_frame(bytes);
  EXPECT_TRUE(parsed.fcs_ok);
  EXPECT_EQ(parsed.dst, f.dst);
  EXPECT_EQ(parsed.src, f.src);
  EXPECT_EQ(parsed.ethertype, f.ethertype);
  EXPECT_EQ(parsed.payload, payload);
}

TEST(FrameCodec, PadsToMinimum) {
  Frame f;
  f.payload_bytes = 1;
  const auto bytes = serialize_frame(f, {0x42});
  EXPECT_EQ(bytes.size(), kMinFrameBytes);
  EXPECT_TRUE(parse_frame(bytes).fcs_ok);
}

TEST(FrameCodec, CorruptionFailsFcs) {
  Frame f;
  f.payload_bytes = 46;
  auto bytes = serialize_frame(f, std::vector<std::uint8_t>(46, 0x55));
  bytes[20] ^= 0x01;
  EXPECT_FALSE(parse_frame(bytes).fcs_ok);
}

TEST(FrameCodec, PayloadSizeMismatchThrows) {
  Frame f;
  f.payload_bytes = 10;
  EXPECT_THROW(serialize_frame(f, std::vector<std::uint8_t>(9)), std::invalid_argument);
}

TEST(FrameCodec, ShortFrameRejected) {
  EXPECT_THROW(parse_frame(std::vector<std::uint8_t>(10)), std::invalid_argument);
}

}  // namespace
}  // namespace dtpsim::net
