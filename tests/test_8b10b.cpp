#include "wire/encoding_8b10b.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/dtp.hpp"

namespace dtpsim::phy {
namespace {

int ones10(Symbol10 s) { return __builtin_popcount(static_cast<unsigned>(s) & 0x3FF); }

TEST(Encoding8b10b, KnownK285Symbols) {
  // The most famous 10-bit codes in networking.
  Encoder8b10b enc_neg(Disparity::kNegative);
  EXPECT_EQ(enc_neg.encode_control(KCode::kK28_5), 0b0011111010);
  Encoder8b10b enc_pos(Disparity::kPositive);
  EXPECT_EQ(enc_pos.encode_control(KCode::kK28_5), 0b1100000101);
}

TEST(Encoding8b10b, RoundTripAllBytesBothDisparities) {
  for (auto rd : {Disparity::kNegative, Disparity::kPositive}) {
    for (int b = 0; b < 256; ++b) {
      Encoder8b10b enc(rd);
      Decoder8b10b dec(rd);
      const Symbol10 s = enc.encode_data(static_cast<std::uint8_t>(b));
      const auto d = dec.decode(s);
      ASSERT_TRUE(d.has_value()) << "byte " << b;
      EXPECT_EQ(d->byte, b);
      EXPECT_FALSE(d->is_control);
    }
  }
}

TEST(Encoding8b10b, RoundTripAllControlCodes) {
  for (auto rd : {Disparity::kNegative, Disparity::kPositive}) {
    for (KCode k : {KCode::kK28_0, KCode::kK28_1, KCode::kK28_2, KCode::kK28_3,
                    KCode::kK28_4, KCode::kK28_5, KCode::kK28_6, KCode::kK28_7,
                    KCode::kK23_7, KCode::kK27_7, KCode::kK29_7, KCode::kK30_7}) {
      Encoder8b10b enc(rd);
      Decoder8b10b dec(rd);
      const auto d = dec.decode(enc.encode_control(k));
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->byte, static_cast<std::uint8_t>(k));
      EXPECT_TRUE(d->is_control);
    }
  }
}

TEST(Encoding8b10b, IllegalKCodeThrows) {
  Encoder8b10b enc;
  EXPECT_THROW(enc.encode_control(static_cast<KCode>(0x42)), std::invalid_argument);
}

TEST(Encoding8b10b, EverySymbolDisparityBounded) {
  // Each 10-bit symbol carries 4, 5, or 6 ones (disparity -2, 0, +2).
  for (auto rd : {Disparity::kNegative, Disparity::kPositive}) {
    for (int b = 0; b < 256; ++b) {
      Encoder8b10b enc(rd);
      const int n = ones10(enc.encode_data(static_cast<std::uint8_t>(b)));
      EXPECT_GE(n, 4) << b;
      EXPECT_LE(n, 6) << b;
    }
  }
}

TEST(Encoding8b10b, RunningDisparityStaysBounded) {
  // A long random byte stream must keep cumulative ones-zeros within +-3
  // bits at every symbol boundary (|RD| <= 1 in half-bit units).
  Rng rng(71);
  Encoder8b10b enc;
  int cumulative = 0;
  for (int i = 0; i < 20'000; ++i) {
    const Symbol10 s = enc.encode_data(static_cast<std::uint8_t>(rng.uniform(256)));
    cumulative += 2 * ones10(s) - 10;
    ASSERT_GE(cumulative, -2);
    ASSERT_LE(cumulative, 2);
  }
}

TEST(Encoding8b10b, RunLengthAtMostFive) {
  // The code's whole purpose: no more than 5 identical bits in a row, even
  // across symbol boundaries. This exercises the D.x.A7 selection rule.
  Rng rng(72);
  Encoder8b10b enc;
  int run = 0;
  int last_bit = -1;
  for (int i = 0; i < 50'000; ++i) {
    const Symbol10 s = enc.encode_data(static_cast<std::uint8_t>(rng.uniform(256)));
    for (int bit = 9; bit >= 0; --bit) {  // wire order, a first
      const int v = (s >> bit) & 1;
      if (v == last_bit) {
        ++run;
        ASSERT_LE(run, 5) << "run of " << run << " at symbol " << i;
      } else {
        run = 1;
        last_bit = v;
      }
    }
  }
}

TEST(Encoding8b10b, StreamRoundTripWithControls) {
  Rng rng(73);
  Encoder8b10b enc;
  Decoder8b10b dec;
  for (int i = 0; i < 5'000; ++i) {
    if (rng.bernoulli(0.1)) {
      const auto d = dec.decode(enc.encode_control(KCode::kK28_5));
      ASSERT_TRUE(d && d->is_control);
    } else {
      const auto byte = static_cast<std::uint8_t>(rng.uniform(256));
      const auto d = dec.decode(enc.encode_data(byte));
      ASSERT_TRUE(d && !d->is_control);
      ASSERT_EQ(d->byte, byte);
    }
  }
}

TEST(Encoding8b10b, InvalidSymbolsRejected) {
  Decoder8b10b dec;
  EXPECT_FALSE(dec.decode(0b0000000000).has_value());
  EXPECT_FALSE(dec.decode(0b1111111111).has_value());
}

TEST(Encoding8b10b, MostBitFlipsDetected) {
  // Single-bit corruption usually produces a code violation or disparity
  // error; measure the detection rate (it is high but not 100% — that is
  // why Ethernet still carries a CRC).
  Rng rng(74);
  int detected = 0;
  const int trials = 2'000;
  for (int i = 0; i < trials; ++i) {
    Encoder8b10b enc;
    Decoder8b10b dec;
    const auto byte = static_cast<std::uint8_t>(rng.uniform(256));
    Symbol10 s = enc.encode_data(byte);
    s ^= static_cast<Symbol10>(1u << rng.uniform(10));
    const auto d = dec.decode(s);
    if (!d || d->byte != byte || d->is_control) ++detected;
  }
  EXPECT_GT(detected, trials * 7 / 10);
}

TEST(Encoding8b10b, CommaDetection) {
  Encoder8b10b enc;
  EXPECT_TRUE(is_comma(enc.encode_control(KCode::kK28_5)));
  Encoder8b10b enc2;
  EXPECT_FALSE(is_comma(enc2.encode_data(0x4A)));
}

// --- DTP over 1 GbE (Section 7) --------------------------------------------

TEST(Dtp1G, OrderedSetRoundTrip) {
  Encoder8b10b enc;
  dtp::Decoder1g dec;
  const dtp::Message m{dtp::MessageType::kBeacon, 0x000F'2345'6789'ABCDULL & kDtpPayloadMask};
  const auto symbols = dtp::encode_1g(m, enc);
  EXPECT_EQ(symbols.size(), dtp::kDtpOrderedSetSymbols);
  std::optional<dtp::Message> got;
  for (const auto s : symbols) {
    auto r = dec.feed(s);
    if (r) got = r;
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, m);
}

TEST(Dtp1G, StreamWithIdlesAndFramesBetween) {
  Rng rng(75);
  Encoder8b10b enc;
  dtp::Decoder1g dec;
  std::vector<dtp::Message> sent, received;
  for (int round = 0; round < 200; ++round) {
    // Idle ordered set /I1/: K28.5 D5.6.
    dec.feed(enc.encode_control(KCode::kK28_5));
    dec.feed(enc.encode_data(0xC5));
    // Random "frame" bytes bracketed by /S/ and /T/.
    dec.feed(enc.encode_control(KCode::kK27_7));
    for (int i = 0; i < 20; ++i)
      dec.feed(enc.encode_data(static_cast<std::uint8_t>(rng.uniform(256))));
    dec.feed(enc.encode_control(KCode::kK29_7));
    // A DTP set.
    const dtp::Message m{dtp::MessageType::kBeacon, rng() & kDtpPayloadMask};
    sent.push_back(m);
    for (const auto s : dtp::encode_1g(m, enc)) {
      if (auto r = dec.feed(s)) received.push_back(*r);
    }
  }
  EXPECT_EQ(received, sent);
}

TEST(Dtp1G, TruncatedSetDiscarded) {
  Encoder8b10b enc;
  dtp::Decoder1g dec;
  const dtp::Message m{dtp::MessageType::kBeacon, 777};
  auto symbols = dtp::encode_1g(m, enc);
  symbols.resize(4);  // interrupt the set
  for (const auto s : symbols) EXPECT_FALSE(dec.feed(s).has_value());
  // An idle comes next; the partial set must be dropped, not resumed.
  EXPECT_FALSE(dec.feed(enc.encode_control(KCode::kK28_5)).has_value());
  EXPECT_FALSE(dec.feed(enc.encode_data(0xC5)).has_value());
}

TEST(Dtp1G, CorruptionCountsViolation) {
  Encoder8b10b enc;
  dtp::Decoder1g dec;
  const dtp::Message m{dtp::MessageType::kBeacon, 12345};
  auto symbols = dtp::encode_1g(m, enc);
  symbols[3] = 0;  // illegal line code
  for (const auto s : symbols) dec.feed(s);
  EXPECT_GE(dec.violations(), 1u);
}

}  // namespace
}  // namespace dtpsim::phy
