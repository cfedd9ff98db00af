#pragma once

/// \file encoding_8b10b.hpp
/// IEEE 802.3 clause 36 8b/10b line coding — the 1 GbE PHY of Table 2.
///
/// Gigabit Ethernet does not use 64b/66b blocks: each byte becomes a
/// 10-bit symbol chosen (by running disparity) from two complementary
/// encodings, and control meanings ride on special K-codes (K28.5 commas
/// for idle/ordered sets). DTP at 1 GbE therefore embeds its messages in
/// the /I/ ordered sets between frames rather than in /E/ blocks; the codec
/// here is the real 5b/6b + 3b/4b construction with running-disparity
/// tracking, used by the conformance tests and the 1G DTP framing in
/// wire/dtp.hpp.

#include <cstdint>
#include <optional>
#include <vector>

namespace dtpsim::phy {

/// A 10-bit line symbol (low 10 bits used, abcdei_fghj order, a = LSB).
using Symbol10 = std::uint16_t;

/// Encoder state: running disparity is -1 or +1.
enum class Disparity : std::int8_t { kNegative = -1, kPositive = +1 };

/// The control (K) codes defined by 8b/10b that clause 36 uses.
enum class KCode : std::uint8_t {
  kK28_0 = 0x1C,
  kK28_1 = 0x3C,
  kK28_2 = 0x5C,
  kK28_3 = 0x7C,
  kK28_4 = 0x9C,
  kK28_5 = 0xBC,  ///< the comma: start of every ordered set
  kK28_6 = 0xDC,
  kK28_7 = 0xFC,
  kK23_7 = 0xF7,  ///< /R/ carrier extend
  kK27_7 = 0xFB,  ///< /S/ start of packet
  kK29_7 = 0xFD,  ///< /T/ end of packet
  kK30_7 = 0xFE,  ///< /V/ error propagation
};

/// Stateful 8b/10b encoder.
class Encoder8b10b {
 public:
  explicit Encoder8b10b(Disparity initial = Disparity::kNegative) : rd_(initial) {}

  /// Encode one data byte (Dxx.y).
  Symbol10 encode_data(std::uint8_t byte);
  /// Encode one control code (Kxx.y). Only the clause-36 K-codes are legal.
  Symbol10 encode_control(KCode k);

  Disparity running_disparity() const { return rd_; }

 private:
  Symbol10 encode(std::uint8_t byte, bool control);
  Disparity rd_;
};

/// Decoded symbol: a data byte or a control code.
struct Decoded8b10b {
  std::uint8_t byte = 0;
  bool is_control = false;
};

/// Stateful 8b/10b decoder; returns nullopt for invalid symbols (code
/// violations — how the receiver detects line errors).
class Decoder8b10b {
 public:
  explicit Decoder8b10b(Disparity initial = Disparity::kNegative) : rd_(initial) {}

  std::optional<Decoded8b10b> decode(Symbol10 symbol);

  Disparity running_disparity() const { return rd_; }

 private:
  Disparity rd_;
};

/// True if the symbol contains a comma pattern (signal alignment point).
bool is_comma(Symbol10 symbol);

}  // namespace dtpsim::phy
