#include "wire/pcs.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "phy/rates.hpp"
#include "wire/block.hpp"
#include "wire/scrambler.hpp"

namespace dtpsim::phy {
namespace {

std::vector<std::uint8_t> random_frame(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform(256));
  return v;
}

TEST(Block, IdleBlockShape) {
  const Block b = make_idle_block();
  EXPECT_TRUE(b.is_control());
  EXPECT_TRUE(b.is_idle_frame());
  EXPECT_EQ(b.block_type(), kBlockTypeIdle);
  EXPECT_EQ(b.idle_field(), 0u);
}

TEST(Block, IdleFieldRoundTrip) {
  Block b = make_idle_block();
  b.set_idle_field(0x00AB'CDEF'1234'56ULL);
  EXPECT_EQ(b.idle_field(), 0x00AB'CDEF'1234'56ULL);
  EXPECT_EQ(b.block_type(), kBlockTypeIdle) << "type byte must be preserved";
}

TEST(Block, IdleFieldMasksTo56Bits) {
  Block b = make_idle_block();
  b.set_idle_field(~0ULL);
  EXPECT_EQ(b.idle_field(), (1ULL << 56) - 1);
}

TEST(Block, IdleFieldOnDataBlockThrows) {
  std::uint8_t bytes[8] = {};
  Block b = make_data_block(bytes);
  EXPECT_THROW(b.set_idle_field(1), std::logic_error);
}

TEST(Block, TerminateVariants) {
  std::uint8_t bytes[7] = {1, 2, 3, 4, 5, 6, 7};
  for (int n = 0; n <= 7; ++n) {
    const Block b = make_terminate_block(bytes, n);
    EXPECT_TRUE(b.is_terminate());
    EXPECT_EQ(b.terminate_data_bytes(), n);
    for (int i = 0; i < n; ++i) EXPECT_EQ(b.byte(i + 1), bytes[i]);
  }
  EXPECT_THROW(make_terminate_block(bytes, 8), std::invalid_argument);
}

TEST(Block, ByteAccessors) {
  Block b;
  b.sync = kSyncData;
  for (int i = 0; i < 8; ++i) b.set_byte(i, static_cast<std::uint8_t>(0x10 + i));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.byte(i), 0x10 + i);
}

TEST(Pcs, EncodeProducesStartDataTerminate) {
  Rng rng(1);
  const auto frame = random_frame(rng, 64);
  const auto blocks = encode_frame(frame);
  ASSERT_GE(blocks.size(), 3u);
  EXPECT_TRUE(blocks.front().is_start());
  EXPECT_TRUE(blocks.back().is_terminate());
  for (std::size_t i = 1; i + 1 < blocks.size(); ++i) EXPECT_TRUE(blocks[i].is_data());
}

TEST(Pcs, RoundTripSmallFrame) {
  Rng rng(2);
  const auto frame = random_frame(rng, 72);
  FrameDecoder dec;
  bool done = false;
  for (const auto& b : encode_frame(frame)) done = dec.feed(b);
  ASSERT_TRUE(done);
  EXPECT_EQ(dec.take_frame(), frame);
}

TEST(Pcs, RoundTripAllResidues) {
  // Every frame length mod 8 exercises a different terminate variant.
  Rng rng(3);
  for (std::size_t n = 60; n < 76; ++n) {
    const auto frame = random_frame(rng, n);
    FrameDecoder dec;
    bool done = false;
    for (const auto& b : encode_frame(frame)) done = dec.feed(b);
    ASSERT_TRUE(done) << n;
    EXPECT_EQ(dec.take_frame(), frame) << n;
  }
}

class PcsRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PcsRoundTrip, RandomFrames) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 7 + rng.uniform(9200);
    const auto frame = random_frame(rng, n);
    FrameDecoder dec;
    bool done = false;
    for (const auto& b : encode_frame(frame)) {
      ASSERT_FALSE(done);
      done = dec.feed(b);
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(dec.take_frame(), frame);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcsRoundTrip, ::testing::Values(11, 22, 33, 44, 55));

TEST(Pcs, BlockCountMatchesRateModel) {
  Rng rng(4);
  for (std::size_t n : {64u, 1522u, 9018u}) {
    const auto frame = random_frame(rng, n);
    const auto blocks = encode_frame(frame);
    // The analytic model used by the event simulation must agree with the
    // real codec to within one block.
    EXPECT_NEAR(static_cast<double>(blocks.size()),
                static_cast<double>(blocks_for_frame(static_cast<std::int64_t>(n))), 1.0)
        << n;
  }
}

TEST(Pcs, IdleBetweenFramesIgnored) {
  Rng rng(5);
  const auto f1 = random_frame(rng, 64);
  const auto f2 = random_frame(rng, 65);
  FrameDecoder dec;
  for (const auto& b : encode_frame(f1)) dec.feed(b);
  EXPECT_EQ(dec.take_frame(), f1);
  dec.feed(make_idle_block());
  dec.feed(make_idle_block());
  bool done = false;
  for (const auto& b : encode_frame(f2)) done = dec.feed(b);
  ASSERT_TRUE(done);
  EXPECT_EQ(dec.take_frame(), f2);
}

TEST(Pcs, MalformedSequencesCountedNotThrown) {
  Rng rng(6);
  const auto frame = random_frame(rng, 64);
  const auto blocks = encode_frame(frame);

  FrameDecoder d1;  // data before start: counted, still hunting for /S/
  EXPECT_FALSE(d1.feed(blocks[1]));
  EXPECT_EQ(d1.errors().data_outside_frame, 1u);
  EXPECT_FALSE(d1.in_frame());

  FrameDecoder d2;  // idle inside a frame: partial frame dropped
  d2.feed(blocks[0]);
  EXPECT_FALSE(d2.feed(make_idle_block()));
  EXPECT_EQ(d2.errors().idle_in_frame, 1u);
  EXPECT_EQ(d2.errors().frames_dropped, 1u);
  EXPECT_FALSE(d2.in_frame());

  FrameDecoder d3;  // start inside a frame: old frame dropped, new one begins
  d3.feed(blocks[0]);
  EXPECT_FALSE(d3.feed(blocks[0]));
  EXPECT_EQ(d3.errors().start_in_frame, 1u);
  EXPECT_TRUE(d3.in_frame());

  FrameDecoder d4;  // terminate outside a frame: counted and ignored
  EXPECT_FALSE(d4.feed(blocks.back()));
  EXPECT_EQ(d4.errors().term_outside_frame, 1u);
}

TEST(Pcs, RecoversAfterEveryMalformedSequence) {
  // After any adversarial prefix, a clean frame must still decode intact —
  // the decoder counts the damage and resynchronizes, never desyncing
  // permanently (ISSUE 4 satellite: fuzzer-grade input hardening).
  Rng rng(7);
  const auto good = random_frame(rng, 64);
  const auto good_blocks = encode_frame(good);

  Block bad_sync;  // invalid 2-bit sync header (neither 0b01 nor 0b10)
  bad_sync.sync = 0b11;
  bad_sync.payload = 0xDEADBEEFCAFEF00DULL;

  Block bad_type;  // control block with a garbage type byte
  bad_type.sync = kSyncControl;
  bad_type.payload = 0x42;  // not idle/start/terminate/ordered-set

  Block ordered_set;  // legal clause-49 type the frame decoder does not use
  ordered_set.sync = kSyncControl;
  ordered_set.payload = kBlockTypeOrderedSet;

  const std::vector<std::vector<Block>> adversarial_prefixes = {
      {bad_sync},
      {bad_type},
      {ordered_set},
      {good_blocks[1]},                     // stray data
      {good_blocks.back()},                 // stray /T/
      {good_blocks[0], bad_sync},           // sync corruption mid-frame
      {good_blocks[0], bad_type},           // garbage type mid-frame
      {good_blocks[0], good_blocks[1], make_idle_block()},  // truncated frame
  };

  for (const auto& prefix : adversarial_prefixes) {
    FrameDecoder dec;
    for (const auto& b : prefix) dec.feed(b);
    EXPECT_GE(dec.errors().total(), 1u);
    bool done = false;
    for (const auto& b : good_blocks) done = dec.feed(b);
    ASSERT_TRUE(done);
    EXPECT_EQ(dec.take_frame(), good);
  }
}

TEST(Pcs, RandomBlockSoakNeverWedges) {
  // Property soak: a long stream of random 66-bit blocks with clean frames
  // interleaved. Every clean frame that follows an idle gap must decode.
  Rng rng(8);
  FrameDecoder dec;
  std::uint64_t decoded = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t garbage = rng.uniform(8);
    for (std::size_t i = 0; i < garbage; ++i) {
      Block b;
      b.sync = static_cast<std::uint8_t>(rng.uniform(4));
      b.payload = rng();
      dec.feed(b);
    }
    dec.feed(make_idle_block());  // inter-frame gap: guaranteed resync point
    const auto frame = random_frame(rng, 64 + rng.uniform(128));
    bool done = false;
    for (const auto& b : encode_frame(frame)) done = dec.feed(b);
    ASSERT_TRUE(done) << "round " << round;
    EXPECT_EQ(dec.take_frame(), frame);
    ++decoded;
  }
  EXPECT_EQ(decoded, 200u);
}

TEST(Pcs, ShortFrameRejected) {
  EXPECT_THROW(encode_frame(std::vector<std::uint8_t>(6)), std::invalid_argument);
}

TEST(Pcs, TakeFrameWithoutCompletionThrows) {
  FrameDecoder dec;
  EXPECT_THROW(dec.take_frame(), std::logic_error);
}

TEST(Scrambler, RoundTripWithMatchedSeeds) {
  Scrambler s(0x123);
  Descrambler d(0x123);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t payload = rng();
    EXPECT_EQ(d.descramble(s.scramble(payload)), payload);
  }
}

TEST(Scrambler, DescramblerSelfSynchronizes) {
  // Even with a wrong initial state, after one 64-bit block (> 58 bits of
  // state) the descrambler locks on.
  Scrambler s(0xABCDEF);
  Descrambler d(0);  // wrong seed
  Rng rng(8);
  d.descramble(s.scramble(rng()));  // sacrificial block
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t payload = rng();
    EXPECT_EQ(d.descramble(s.scramble(payload)), payload);
  }
}

TEST(Scrambler, OutputLooksScrambled) {
  // An all-zero payload stream must not stay all-zero on the wire (DC
  // balance is the whole point).
  Scrambler s(0x5A5A5A);
  int nonzero = 0;
  for (int i = 0; i < 20; ++i)
    if (s.scramble(0) != 0) ++nonzero;
  EXPECT_GE(nonzero, 19);
}

TEST(Scrambler, BlockHelperPreservesSyncHeader) {
  Scrambler s;
  Block b = make_idle_block();
  b.set_idle_field(0x1234);
  const Block scrambled = s.scramble_block(b);
  EXPECT_EQ(scrambled.sync, b.sync);
  EXPECT_NE(scrambled.payload, b.payload);
}

TEST(Scrambler, DtpMessageSurvivesScrambling) {
  // The full TX chain: DTP bits -> idle block -> scramble -> descramble.
  Scrambler s(0x77);
  Descrambler d(0x77);
  Block b = make_idle_block();
  b.set_idle_field(0x00DE'ADBE'EF12'34ULL);
  const Block rx = d.descramble_block(s.scramble_block(b));
  EXPECT_EQ(rx, b);
  EXPECT_EQ(rx.idle_field(), 0x00DE'ADBE'EF12'34ULL);
}

}  // namespace
}  // namespace dtpsim::phy
