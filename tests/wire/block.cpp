#include "wire/block.hpp"

#include <cstdio>
#include <stdexcept>

namespace dtpsim::phy {

bool Block::is_terminate() const {
  if (!is_control()) return false;
  const std::uint8_t bt = block_type();
  for (std::uint8_t t : kBlockTypeTerm)
    if (bt == t) return true;
  return false;
}

int Block::terminate_data_bytes() const {
  const std::uint8_t bt = block_type();
  for (int i = 0; i < 8; ++i)
    if (bt == kBlockTypeTerm[i]) return i;
  throw std::logic_error("Block: not a terminate block");
}

void Block::set_idle_field(std::uint64_t bits56) {
  if (!is_idle_frame()) throw std::logic_error("Block: idle field on non-idle block");
  payload = (payload & 0xFFULL) | ((bits56 & ((1ULL << 56) - 1)) << 8);
}

void Block::set_byte(int i, std::uint8_t v) {
  const int shift = 8 * i;
  payload = (payload & ~(0xFFULL << shift)) | (static_cast<std::uint64_t>(v) << shift);
}

std::string Block::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:%016llx", is_data() ? "D" : "C",
                static_cast<unsigned long long>(payload));
  return buf;
}

Block make_idle_block() {
  Block b;
  b.sync = kSyncControl;
  b.payload = kBlockTypeIdle;  // eight 7-bit idle codes are all-zero
  return b;
}

Block make_start_block(const std::uint8_t bytes7[7]) {
  Block b;
  b.sync = kSyncControl;
  b.payload = kBlockTypeStart;
  for (int i = 0; i < 7; ++i) b.set_byte(i + 1, bytes7[i]);
  return b;
}

Block make_data_block(const std::uint8_t bytes8[8]) {
  Block b;
  b.sync = kSyncData;
  b.payload = 0;
  for (int i = 0; i < 8; ++i) b.set_byte(i, bytes8[i]);
  return b;
}

Block make_terminate_block(const std::uint8_t* bytes, int n) {
  if (n < 0 || n > 7) throw std::invalid_argument("make_terminate_block: n out of range");
  Block b;
  b.sync = kSyncControl;
  b.payload = kBlockTypeTerm[n];
  for (int i = 0; i < n; ++i) b.set_byte(i + 1, bytes[i]);
  return b;
}

}  // namespace dtpsim::phy
