#pragma once

/// \file bytes.hpp
/// Network-order (big-endian) field access shared by the byte codecs:
/// IPv4/UDP, PTPv2, NTPv4 and the Ethernet header.

#include <cstdint>
#include <vector>

#include "net/frame.hpp"

namespace dtpsim::wire {

/// Append the low `bytes` bytes of `v`, most significant first.
inline void put_be(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Read `bytes` bytes at `p`, most significant first.
inline std::uint64_t get_be(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | p[i];
  return v;
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) { put_be(out, v, 2); }
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { put_be(out, v, 4); }
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { put_be(out, v, 8); }
inline void put_mac(std::vector<std::uint8_t>& out, net::MacAddr m) { put_be(out, m.value, 6); }

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(get_be(p, 2));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(get_be(p, 4));
}
inline std::uint64_t get_u64(const std::uint8_t* p) { return get_be(p, 8); }
inline net::MacAddr get_mac(const std::uint8_t* p) { return net::MacAddr{get_be(p, 6)}; }

}  // namespace dtpsim::wire
