#include "wire/ethernet.hpp"

#include <array>
#include <stdexcept>

#include "wire/bytes.hpp"

namespace dtpsim::net {

namespace {
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB8'8320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}
const std::array<std::uint32_t, 256> kTable = make_table();
}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i)
    state = kTable[(state ^ data[i]) & 0xFF] ^ (state >> 8);
  return state;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  return crc32_finish(crc32_update(kCrc32Init, data, len));
}

std::vector<std::uint8_t> serialize_frame(const Frame& f, const std::vector<std::uint8_t>& payload) {
  if (payload.size() != f.payload_bytes)
    throw std::invalid_argument("serialize_frame: payload size mismatch");
  std::vector<std::uint8_t> out;
  out.reserve(f.frame_bytes());
  wire::put_mac(out, f.dst);
  wire::put_mac(out, f.src);
  wire::put_u16(out, f.ethertype);
  out.insert(out.end(), payload.begin(), payload.end());
  // Pad to the 64-byte minimum (before FCS: 60 bytes).
  while (out.size() < kMinFrameBytes - kFcsBytes) out.push_back(0);
  const std::uint32_t fcs = crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(fcs >> (8 * i)));
  return out;
}

ParsedFrame parse_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kMinFrameBytes)
    throw std::invalid_argument("parse_frame: short frame");
  ParsedFrame p;
  p.dst = wire::get_mac(bytes.data());
  p.src = wire::get_mac(bytes.data() + 6);
  p.ethertype = wire::get_u16(bytes.data() + 12);
  p.payload.assign(bytes.begin() + kMacHeaderBytes, bytes.end() - kFcsBytes);
  std::uint32_t fcs = 0;
  for (int i = 3; i >= 0; --i) fcs = (fcs << 8) | bytes[bytes.size() - 4 + i];
  p.fcs_ok = (fcs == crc32(bytes.data(), bytes.size() - kFcsBytes));
  return p;
}

}  // namespace dtpsim::net
