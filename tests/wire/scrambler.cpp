#include "wire/scrambler.hpp"

namespace dtpsim::phy {

namespace {

constexpr std::uint64_t kStateMask = (1ULL << 58) - 1;

/// Runs a 64-bit payload (bit 0 first) through the 58-bit shift register:
/// out = in ^ s38 ^ s57 (taps at x^39 and x^58). The register takes in the
/// scrambled bit, which is the output when scrambling and the input when
/// descrambling; so the descrambler self-synchronizes: any seed converges
/// after 58 bits.
std::uint64_t run_lfsr(std::uint64_t& state, std::uint64_t payload, bool descramble) {
  std::uint64_t out = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t in_bit = (payload >> i) & 1;
    const std::uint64_t out_bit = in_bit ^ ((state >> 38) & 1) ^ ((state >> 57) & 1);
    out |= out_bit << i;
    state = ((state << 1) | (descramble ? in_bit : out_bit)) & kStateMask;
  }
  return out;
}

}  // namespace

Scrambler::Scrambler(std::uint64_t seed) : state_(seed & kStateMask) {}

std::uint64_t Scrambler::scramble(std::uint64_t payload) {
  return run_lfsr(state_, payload, /*descramble=*/false);
}

Block Scrambler::scramble_block(Block b) {
  b.payload = scramble(b.payload);
  return b;
}

Descrambler::Descrambler(std::uint64_t seed) : state_(seed & kStateMask) {}

std::uint64_t Descrambler::descramble(std::uint64_t payload) {
  return run_lfsr(state_, payload, /*descramble=*/true);
}

Block Descrambler::descramble_block(Block b) {
  b.payload = descramble(b.payload);
  return b;
}

}  // namespace dtpsim::phy
