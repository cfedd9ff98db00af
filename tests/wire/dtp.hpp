#pragma once

/// \file dtp.hpp
/// DTP messages on the wire: in /E/ idle blocks at 10 GbE (Section 4.4)
/// and in ordered sets at 1 GbE (Section 7).
///
/// The simulated port carries the 56-bit idle field itself
/// (`phy::ControlRx::bits56`, `dtp::encode_bits`); these helpers put that
/// field into real line code so tests can run it through the PCS and the
/// scrambler.
///
/// The 1 GbE PHY uses 8b/10b, so there are no /E/ blocks with idle bit
/// fields to hijack. Instead, DTP defines its own ordered set, exactly like
/// the standard's /I1/ (K28.5 D5.6) and configuration sets: a K28.1 comma
/// followed by seven data bytes carrying the 3-bit type + 53-bit payload.
/// The set occupies eight symbol times (64 ns at 125 MHz) inside the
/// inter-packet gap, preserving the zero-packet-overhead property.

#include <cstdint>
#include <optional>
#include <vector>

#include "dtp/messages.hpp"
#include "wire/block.hpp"
#include "wire/encoding_8b10b.hpp"

namespace dtpsim::dtp {

/// Stamp a message into an idle block / read it back.
phy::Block encode_into_block(const Message& m, bool parity = false);
std::optional<Message> decode_from_block(const phy::Block& b, bool parity = false);

/// Restore a DTP-bearing idle block to plain idles (what the RX DTP sublayer
/// does before handing the block to the MAC — Section 4.2).
phy::Block strip_to_idle(phy::Block b);

/// Number of 10-bit symbols in a DTP ordered set at 1 GbE.
inline constexpr std::size_t kDtpOrderedSetSymbols = 8;

/// Encode a message as a 1 GbE ordered set, advancing the encoder's running
/// disparity exactly as the wire would.
std::vector<phy::Symbol10> encode_1g(const Message& m, phy::Encoder8b10b& encoder);

/// Streaming decoder: feed received symbols one at a time; a Message is
/// returned when a complete, valid DTP ordered set has been seen. Code
/// violations or foreign control codes reset the collector.
class Decoder1g {
 public:
  explicit Decoder1g(phy::Disparity initial = phy::Disparity::kNegative)
      : decoder_(initial) {}

  std::optional<Message> feed(phy::Symbol10 symbol);

  /// Symbols rejected due to 8b/10b code violations.
  std::uint64_t violations() const { return violations_; }

 private:
  phy::Decoder8b10b decoder_;
  std::vector<std::uint8_t> pending_;
  bool collecting_ = false;
  std::uint64_t violations_ = 0;
};

}  // namespace dtpsim::dtp
