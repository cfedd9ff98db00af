#pragma once

/// \file pcs.hpp
/// 64b/66b Physical Coding Sublayer: frame <-> block encode/decode.
///
/// The encoder maps a byte stream (one Ethernet frame, preamble included)
/// onto /S/ + data + /T/ blocks exactly as clause 49 lays frames onto the
/// 66-bit lattice; the decoder reverses it. Idle blocks fill the gaps
/// between frames; DTP rides in those (see wire/dtp.hpp). Round-trip is
/// exact and tested property-style over random frame sizes.

#include <cstdint>
#include <vector>

#include "wire/block.hpp"

namespace dtpsim::phy {

/// Encode one frame (wire bytes including preamble/SFD) into PCS blocks:
/// one /S/ block, interior data blocks, one /T/ block.
/// Requires at least 7 bytes (preamble alone is 8).
std::vector<Block> encode_frame(const std::vector<std::uint8_t>& bytes);

/// Decoder state machine for a block stream. Feed blocks in order; complete
/// frames are appended to `frames`. Idle blocks between frames are ignored
/// (their DTP content is handled a layer below).
///
/// Hardened against adversarial input (clause 49.2.13.2.2 behaviour): a
/// malformed sequence — invalid sync header, /S/ or /E/ mid-frame, data or
/// /T/ outside a frame, an unrecognized control block type — never throws
/// and never wedges the decoder. The error is counted, any partial frame is
/// dropped, and the state machine resynchronizes on the next clean boundary
/// (an /S/ after idles; a mid-frame /S/ itself starts the next frame).
class FrameDecoder {
 public:
  /// Per-kind error tallies; `total()` is the sentinel/fuzzer headline.
  struct ErrorStats {
    std::uint64_t bad_sync = 0;           ///< sync header not 0b01/0b10
    std::uint64_t idle_in_frame = 0;      ///< /E/ before the frame's /T/
    std::uint64_t start_in_frame = 0;     ///< /S/ before the frame's /T/
    std::uint64_t data_outside_frame = 0; ///< data block while hunting /S/
    std::uint64_t term_outside_frame = 0; ///< /T/ while hunting /S/
    std::uint64_t bad_block_type = 0;     ///< unrecognized control type byte
    std::uint64_t frames_dropped = 0;     ///< partial frames discarded

    std::uint64_t total() const {
      return bad_sync + idle_in_frame + start_in_frame + data_outside_frame +
             term_outside_frame + bad_block_type;
    }
  };

  /// Feed one block. Returns true when this block completed a frame; the
  /// frame is then available via `take_frame()`. Never throws on malformed
  /// input — see the class comment.
  bool feed(const Block& b);

  /// Retrieve the most recently completed frame (moves it out).
  std::vector<std::uint8_t> take_frame();

  /// True while mid-frame (between /S/ and /T/).
  bool in_frame() const { return in_frame_; }

  const ErrorStats& errors() const { return errors_; }

 private:
  /// Abandon any partial frame (malformed sequence observed mid-frame).
  void drop_partial();

  bool in_frame_ = false;
  std::vector<std::uint8_t> current_;
  std::vector<std::uint8_t> completed_;
  bool has_completed_ = false;
  ErrorStats errors_;
};

}  // namespace dtpsim::phy
