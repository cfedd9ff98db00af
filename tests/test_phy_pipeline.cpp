/// Bit-level conformance: the full TX->wire->RX chain with DTP embedded.
///
/// Section 4 claims two invariants that the event-level simulation takes as
/// given; here they are checked against the real codec:
///   * DTP messages ride in idle blocks, survive scrambling, and are
///     stripped back to plain idles before the MAC — higher layers cannot
///     tell DTP was ever there;
///   * Ethernet frames pass through the DTP sublayer bit-identically.
/// FullChainRoundTrip runs the chain on random BEACONs and on every control
/// block a simulated run sent.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "chaos/campaign.hpp"
#include "common/rng.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "wire/dtp.hpp"
#include "wire/ethernet.hpp"
#include "wire/pcs.hpp"
#include "wire/scrambler.hpp"

namespace dtpsim {
namespace {

using dtp::Message;
using dtp::MessageType;

/// Build a realistic block stream: idles, a DTP message, a frame, more
/// idles, the next DTP message, another frame...
std::vector<phy::Block> make_tx_stream(Rng& rng, std::vector<std::vector<std::uint8_t>>& frames,
                                       const std::vector<Message>& messages) {
  std::vector<phy::Block> stream;
  for (const Message& m : messages) {
    // A few plain idles.
    for (int i = 0; i < 3; ++i) stream.push_back(phy::make_idle_block());
    // One DTP message in an idle block.
    stream.push_back(dtp::encode_into_block(m));
    // One frame.
    std::vector<std::uint8_t> payload(64 + rng.uniform(1400));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));
    frames.push_back(payload);
    const auto blocks = phy::encode_frame(payload);
    stream.insert(stream.end(), blocks.begin(), blocks.end());
  }
  stream.push_back(phy::make_idle_block());
  return stream;
}

/// The same stream around `n_frames` random BEACONs, appended to `messages`.
std::vector<phy::Block> make_tx_stream(Rng& rng, std::vector<std::vector<std::uint8_t>>& frames,
                                       std::vector<Message>& messages, int n_frames) {
  for (int f = 0; f < n_frames; ++f)
    messages.push_back({MessageType::kBeacon, rng() & kDtpPayloadMask});
  return make_tx_stream(rng, frames, std::as_const(messages));
}

/// Every control block a simulated run sent, as 56-bit idle fields in TX
/// order, one list per port: the Fig. 5 tree on the default (bridged)
/// engine under saturating MTU load for 1 ms.
std::vector<std::vector<std::uint64_t>> simulated_control_tx() {
  std::vector<std::vector<std::uint64_t>> sent;
  sim::Simulator sim(501);
  net::Network net(sim, chaos::CanonicalCampaign::net_params());
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  for (net::Device* dev : net.devices())
    for (std::size_t p = 0; p < dev->port_count(); ++p) {
      const std::size_t i = sent.size();
      sent.emplace_back();
      dev->port(p).set_probe_control_tx(
          [&sent, i](std::uint64_t bits56, fs_t) { sent[i].push_back(bits56); });
    }
  chaos::CanonicalCampaign::start_heavy_load(net, tree, net::kMtuFrameBytes);
  sim.run_until(from_ms(1));
  return sent;
}

TEST(PhyPipeline, FullChainRoundTrip) {
  Rng rng(501);
  // Ten random BEACONs, then each simulated port's messages in TX order.
  std::vector<std::vector<Message>> inputs(1);
  for (int i = 0; i < 10; ++i)
    inputs[0].push_back({MessageType::kBeacon, rng() & kDtpPayloadMask});
  std::size_t simulated_blocks = 0;
  std::set<MessageType> simulated_types;
  for (const auto& port : simulated_control_tx()) {
    std::vector<Message>& messages = inputs.emplace_back();
    for (const std::uint64_t bits56 : port) {
      const auto m = dtp::decode_bits(bits56);
      ASSERT_TRUE(m.has_value()) << "port sent a non-DTP idle field " << bits56;
      // Section 4.4: the message fills the /E/ block's idle field exactly.
      ASSERT_EQ(dtp::encode_into_block(*m).idle_field(), bits56);
      messages.push_back(*m);
      simulated_types.insert(m->type);
    }
    simulated_blocks += port.size();
  }
  EXPECT_GT(simulated_blocks, 10000u);
  for (const MessageType t : {MessageType::kInit, MessageType::kInitAck, MessageType::kBeacon})
    EXPECT_EQ(simulated_types.count(t), 1u) << "no " << dtp::to_string(t) << " sent";

  for (const std::vector<Message>& tx_messages : inputs) {
    std::vector<std::vector<std::uint8_t>> tx_frames;
    const auto stream = make_tx_stream(rng, tx_frames, tx_messages);

    // TX: scramble everything (payloads only, as the hardware does).
    phy::Scrambler scrambler(0xACE1);
    std::vector<phy::Block> wire;
    for (const auto& b : stream) wire.push_back(scrambler.scramble_block(b));

    // RX: descramble, extract DTP, strip to idles, decode frames.
    phy::Descrambler descrambler(0xACE1);
    phy::FrameDecoder decoder;
    std::vector<Message> rx_messages;
    std::vector<std::vector<std::uint8_t>> rx_frames;
    for (const auto& w : wire) {
      phy::Block b = descrambler.descramble_block(w);
      if (b.is_idle_frame()) {
        if (auto msg = dtp::decode_from_block(b)) rx_messages.push_back(*msg);
        b = dtp::strip_to_idle(b);
        ASSERT_EQ(b, phy::make_idle_block()) << "MAC must see plain idles only";
        continue;
      }
      if (decoder.feed(b)) rx_frames.push_back(decoder.take_frame());
    }

    EXPECT_EQ(rx_messages, tx_messages);
    EXPECT_EQ(rx_frames, tx_frames);
  }
}

TEST(PhyPipeline, DtpPresenceIsInvisibleToFrames) {
  // The same frame bytes, sent once through a DTP-bearing stream and once
  // through a plain stream, must arrive identical.
  Rng rng(502);
  std::vector<std::uint8_t> payload(777);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));

  auto run_through = [&](bool with_dtp) {
    phy::Scrambler s(42);
    phy::Descrambler d(42);
    phy::FrameDecoder dec;
    std::vector<phy::Block> stream;
    if (with_dtp)
      stream.push_back(dtp::encode_into_block({MessageType::kBeacon, 123456}));
    else
      stream.push_back(phy::make_idle_block());
    const auto fb = phy::encode_frame(payload);
    stream.insert(stream.end(), fb.begin(), fb.end());
    std::vector<std::uint8_t> out;
    for (const auto& blk : stream) {
      phy::Block b = d.descramble_block(s.scramble_block(blk));
      if (b.is_idle_frame()) continue;
      if (dec.feed(b)) out = dec.take_frame();
    }
    return out;
  };

  EXPECT_EQ(run_through(true), run_through(false));
}

TEST(PhyPipeline, ScrambledWireLooksBalanced) {
  // DC balance sanity: the scrambled idle stream has roughly half ones.
  phy::Scrambler s(0x1357);
  std::uint64_t ones = 0;
  const int blocks = 2000;
  for (int i = 0; i < blocks; ++i)
    ones += static_cast<std::uint64_t>(
        __builtin_popcountll(s.scramble_block(phy::make_idle_block()).payload));
  const double fraction = static_cast<double>(ones) / (64.0 * blocks);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

TEST(PhyPipeline, DtpBitsDoNotChangeBalance) {
  // Section 4.4: modifying idle bits does not affect the line's physics
  // because scrambling happens afterwards.
  phy::Scrambler s1(0x99), s2(0x99);
  Rng rng(503);
  std::uint64_t ones_plain = 0, ones_dtp = 0;
  const int blocks = 2000;
  for (int i = 0; i < blocks; ++i) {
    ones_plain += static_cast<std::uint64_t>(
        __builtin_popcountll(s1.scramble_block(phy::make_idle_block()).payload));
    const Message m{MessageType::kBeacon, rng() & kDtpPayloadMask};
    ones_dtp += static_cast<std::uint64_t>(
        __builtin_popcountll(s2.scramble_block(dtp::encode_into_block(m)).payload));
  }
  EXPECT_NEAR(static_cast<double>(ones_dtp) / static_cast<double>(ones_plain), 1.0, 0.03);
}

TEST(PhyPipeline, CorruptedFrameCaughtByCrc) {
  Rng rng(504);
  net::Frame f;
  f.payload_bytes = 200;
  std::vector<std::uint8_t> payload(200);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));
  auto bytes = net::serialize_frame(f, payload);

  phy::Scrambler s(7);
  phy::Descrambler d(7);
  auto blocks = phy::encode_frame(bytes);
  // Flip one wire bit mid-frame.
  std::vector<phy::Block> wire;
  for (const auto& b : blocks) wire.push_back(s.scramble_block(b));
  wire[wire.size() / 2].payload ^= 1ULL << 17;

  phy::FrameDecoder dec;
  std::vector<std::uint8_t> out;
  for (const auto& w : wire) {
    phy::Block b = d.descramble_block(w);
    if (b.is_idle_frame()) continue;
    if (dec.feed(b)) out = dec.take_frame();
  }
  ASSERT_FALSE(out.empty());
  EXPECT_FALSE(net::parse_frame(out).fcs_ok)
      << "a single wire bit flip must fail the FCS";
}

class PipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeeds, RandomStreamsRoundTrip) {
  Rng rng(GetParam());
  std::vector<std::vector<std::uint8_t>> tx_frames;
  std::vector<Message> tx_messages;
  const auto stream = make_tx_stream(rng, tx_frames, tx_messages, 5);
  phy::Scrambler s(GetParam());
  phy::Descrambler d(GetParam());
  phy::FrameDecoder dec;
  std::size_t frames_seen = 0, messages_seen = 0;
  for (const auto& blk : stream) {
    phy::Block b = d.descramble_block(s.scramble_block(blk));
    if (b.is_idle_frame()) {
      messages_seen += dtp::decode_from_block(b).has_value();
      continue;
    }
    if (dec.feed(b)) {
      EXPECT_EQ(dec.take_frame(), tx_frames[frames_seen]);
      ++frames_seen;
    }
  }
  EXPECT_EQ(frames_seen, tx_frames.size());
  EXPECT_EQ(messages_seen, tx_messages.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeeds, ::testing::Range<std::uint64_t>(600, 610));

}  // namespace
}  // namespace dtpsim
