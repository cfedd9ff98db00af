#include "net/frame.hpp"

#include <algorithm>
#include <cstdio>

namespace dtpsim::net {

std::string MacAddr::to_string() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>((value >> 40) & 0xFF), static_cast<unsigned>((value >> 32) & 0xFF),
                static_cast<unsigned>((value >> 24) & 0xFF), static_cast<unsigned>((value >> 16) & 0xFF),
                static_cast<unsigned>((value >> 8) & 0xFF), static_cast<unsigned>(value & 0xFF));
  return buf;
}

std::uint32_t Frame::frame_bytes() const {
  return std::max(kMacHeaderBytes + payload_bytes + kFcsBytes, kMinFrameBytes);
}

}  // namespace dtpsim::net
