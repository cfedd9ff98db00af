#include "wire/pcs.hpp"

#include <stdexcept>

namespace dtpsim::phy {

std::vector<Block> encode_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 7) throw std::invalid_argument("encode_frame: frame shorter than 7 bytes");
  std::vector<Block> out;
  out.reserve(bytes.size() / 8 + 2);

  out.push_back(make_start_block(bytes.data()));
  std::size_t pos = 7;
  while (bytes.size() - pos >= 8) {
    out.push_back(make_data_block(bytes.data() + pos));
    pos += 8;
  }
  out.push_back(make_terminate_block(bytes.data() + pos, static_cast<int>(bytes.size() - pos)));
  return out;
}

void FrameDecoder::drop_partial() {
  if (!in_frame_) return;
  in_frame_ = false;
  current_.clear();
  ++errors_.frames_dropped;
}

bool FrameDecoder::feed(const Block& b) {
  if (b.sync != kSyncData && b.sync != kSyncControl) {
    // A corrupted sync header means block framing itself is suspect: drop
    // any partial frame and hunt for the next clean /S/.
    ++errors_.bad_sync;
    drop_partial();
    return false;
  }
  if (b.is_idle_frame()) {
    if (in_frame_) {
      // The frame's /T/ was lost; the idle itself is a clean resync point.
      ++errors_.idle_in_frame;
      drop_partial();
    }
    return false;
  }
  if (b.is_start()) {
    if (in_frame_) {
      ++errors_.start_in_frame;
      drop_partial();
      // Fall through: this /S/ legitimately starts the next frame.
    }
    in_frame_ = true;
    current_.clear();
    for (int i = 0; i < 7; ++i) current_.push_back(b.byte(i + 1));
    return false;
  }
  if (b.is_data()) {
    if (!in_frame_) {
      ++errors_.data_outside_frame;
      return false;
    }
    for (int i = 0; i < 8; ++i) current_.push_back(b.byte(i));
    return false;
  }
  if (b.is_terminate()) {
    if (!in_frame_) {
      ++errors_.term_outside_frame;
      return false;
    }
    const int n = b.terminate_data_bytes();
    for (int i = 0; i < n; ++i) current_.push_back(b.byte(i + 1));
    in_frame_ = false;
    completed_ = std::move(current_);
    current_.clear();
    has_completed_ = true;
    return true;
  }
  // Unrecognized control block type (ordered sets, garbage type bytes): a
  // mid-frame one corrupts the frame; between frames it is just counted.
  ++errors_.bad_block_type;
  drop_partial();
  return false;
}

std::vector<std::uint8_t> FrameDecoder::take_frame() {
  if (!has_completed_) throw std::logic_error("FrameDecoder: no completed frame");
  has_completed_ = false;
  return std::move(completed_);
}

}  // namespace dtpsim::phy
