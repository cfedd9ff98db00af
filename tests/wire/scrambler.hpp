#pragma once

/// \file scrambler.hpp
/// Self-synchronizing scrambler/descrambler, polynomial 1 + x^39 + x^58
/// (IEEE 802.3 clause 49.2.6).
///
/// The 64-bit payload of every block is scrambled before serialization to
/// maintain DC balance on the wire; the 2-bit sync header is not. Section
/// 4.4 notes that DTP's rewriting of idle bits does not disturb the line's
/// physics precisely because the scrambler runs *after* DTP insertion — the
/// test suite checks that scramble/descramble round-trips DTP-bearing
/// blocks exactly and that the descrambler self-synchronizes after seeding
/// with arbitrary state.

#include <cstdint>

#include "wire/block.hpp"

namespace dtpsim::phy {

/// TX-side scrambler. Stateful across blocks, like the hardware LFSR.
class Scrambler {
 public:
  /// \param seed initial 58-bit LFSR state (any value is legal).
  explicit Scrambler(std::uint64_t seed = 0x3FF'FFFF'FFFF'FFFFULL & 0x3FFFFFFFFFFFFFFULL);

  /// Scramble a 64-bit payload (bit 0 first on the wire).
  std::uint64_t scramble(std::uint64_t payload);

  /// Scramble a block in place (payload only; sync header untouched).
  Block scramble_block(Block b);

  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;  // 58-bit LFSR
};

/// RX-side descrambler; self-synchronizes within 58 bits regardless of its
/// initial state.
class Descrambler {
 public:
  explicit Descrambler(std::uint64_t seed = 0);

  /// Descramble a 64-bit payload.
  std::uint64_t descramble(std::uint64_t payload);

  /// Descramble a block (payload only).
  Block descramble_block(Block b);

  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;  // 58-bit shift register of received scrambled bits
};

}  // namespace dtpsim::phy
