#include "dtp/messages.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/dtp.hpp"

namespace dtpsim::dtp {
namespace {

TEST(DtpMessages, EncodeDecodeAllTypes) {
  for (auto type : {MessageType::kInit, MessageType::kInitAck, MessageType::kBeacon,
                    MessageType::kBeaconJoin, MessageType::kBeaconMsb, MessageType::kLog}) {
    const Message m{type, 0x000F'1234'5678'9ABCULL & kDtpPayloadMask};
    const auto decoded = decode_bits(encode_bits(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, m);
  }
}

TEST(DtpMessages, ZeroBitsIsPlainIdle) {
  EXPECT_FALSE(decode_bits(0).has_value());
}

TEST(DtpMessages, KNoneCannotBeEncoded) {
  EXPECT_THROW(encode_bits({MessageType::kNone, 0}), std::invalid_argument);
}

TEST(DtpMessages, UnknownTypeBitsRejected) {
  EXPECT_FALSE(decode_bits(0x7).has_value());  // type 7 unused
}

TEST(DtpMessages, PayloadMaskedTo53Bits) {
  const Message m{MessageType::kBeacon, ~0ULL};
  const auto decoded = decode_bits(encode_bits(m));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->payload, kDtpPayloadMask);
}

TEST(DtpMessages, EncodingFitsIn56Bits) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Message m{MessageType::kBeacon, rng() & kDtpPayloadMask};
    EXPECT_EQ(encode_bits(m) >> 56, 0u);
  }
}

TEST(DtpMessages, RandomRoundTripProperty) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto type = static_cast<MessageType>(1 + rng.uniform(6));
    const Message m{type, rng() & kDtpPayloadMask};
    const auto decoded = decode_bits(encode_bits(m));
    ASSERT_TRUE(decoded);
    EXPECT_EQ(*decoded, m);
  }
}

TEST(DtpMessages, ParityRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Message m{MessageType::kBeacon, rng() & ((1ULL << kParityPayloadBits) - 1)};
    const auto decoded = decode_bits(encode_bits(m, true), true);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->payload, m.payload);
  }
}

TEST(DtpMessages, ParityDetectsLsbFlip) {
  const Message m{MessageType::kBeacon, 0x1234};
  std::uint64_t bits = encode_bits(m, true);
  // Flip one of the three LSBs of the payload (bit 3 of the field).
  bits ^= 1ULL << 3;
  EXPECT_FALSE(decode_bits(bits, true).has_value());
}

TEST(DtpMessages, ParityBitItselfProtected) {
  const Message m{MessageType::kBeacon, 0x1234};
  std::uint64_t bits = encode_bits(m, true);
  bits ^= 1ULL << (3 + kParityPayloadBits);  // flip the parity bit
  EXPECT_FALSE(decode_bits(bits, true).has_value());
}

TEST(DtpMessages, ParityMissesNonLsbFlips) {
  // Documented limitation: parity covers only the 3 LSBs; flips elsewhere
  // pass parity and must be caught by the +-8 range filter.
  const Message m{MessageType::kBeacon, 0x1234};
  std::uint64_t bits = encode_bits(m, true);
  bits ^= 1ULL << 20;
  const auto decoded = decode_bits(bits, true);
  ASSERT_TRUE(decoded);
  EXPECT_NE(decoded->payload, m.payload);
}

TEST(DtpMessages, BlockEmbeddingRoundTrip) {
  const Message m{MessageType::kInit, 42};
  const phy::Block b = encode_into_block(m);
  EXPECT_TRUE(b.is_idle_frame());
  const auto decoded = decode_from_block(b);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, m);
}

TEST(DtpMessages, DecodeFromNonIdleBlockIsNull) {
  std::uint8_t bytes[8] = {};
  EXPECT_FALSE(decode_from_block(phy::make_data_block(bytes)).has_value());
}

TEST(DtpMessages, StripRestoresPlainIdles) {
  // Section 4.2: the RX DTP sublayer replaces the message with idle
  // characters so higher layers never see DTP.
  const phy::Block stripped = strip_to_idle(encode_into_block({MessageType::kBeacon, 99}));
  EXPECT_EQ(stripped, phy::make_idle_block());
  EXPECT_EQ(stripped.idle_field(), 0u);
}

TEST(DtpMessages, StripLeavesDataBlocksAlone) {
  std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const phy::Block data = phy::make_data_block(bytes);
  EXPECT_EQ(strip_to_idle(data), data);
}

TEST(DtpMessages, TypeNames) {
  EXPECT_STREQ(to_string(MessageType::kBeacon), "BEACON");
  EXPECT_STREQ(to_string(MessageType::kBeaconJoin), "BEACON-JOIN");
  const Message init{MessageType::kInit, 5};
  EXPECT_EQ(init.to_string(), "INIT(5)");
}

}  // namespace
}  // namespace dtpsim::dtp
