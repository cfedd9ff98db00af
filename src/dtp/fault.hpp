#pragma once

/// \file fault.hpp
/// Faulty-peer detection (Section 3.2, "Handling failures").
///
/// Bit errors are filtered per message (range check + optional parity; see
/// PortLogic). A *faulty device* — e.g. an oscillator outside the 802.3
/// envelope, or a peer reporting bogus counters that survive the range
/// filter — shows up as a stream of suspicious jumps. The detector counts
/// jumps above a threshold inside a sliding window and trips when there are
/// too many.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/time_units.hpp"

namespace dtpsim::dtp {

/// Sliding-window counter of suspicious clock jumps.
class JumpDetector {
 public:
  /// \param threshold_units  adjustments strictly larger than this count
  /// \param max_jumps        trip after more than this many in the window
  /// \param window           sliding window length
  JumpDetector(std::int64_t threshold_units, int max_jumps, fs_t window)
      : threshold_(threshold_units), window_(window), max_jumps_(max_jumps) {}

  /// Record an adjustment of `jump` counter units applied at time `now`.
  /// Returns true if the peer should now be considered faulty.
  bool record(fs_t now, unsigned __int128 jump) {
    if (tripped_) return true;
    if (jump <= static_cast<unsigned __int128>(threshold_)) return false;
    events_.push_back(now);
    // Drop the jumps that left the window (times are recorded in order). The
    // window holds at most max_jumps + 1 entries before it trips, so the
    // erase moves at most that many.
    events_.erase(events_.begin(),
                  std::find_if(events_.begin(), events_.end(),
                               [&](fs_t t) { return t + window_ >= now; }));
    if (static_cast<int>(events_.size()) > max_jumps_) tripped_ = true;
    return tripped_;
  }

  bool tripped() const { return tripped_; }
  std::size_t suspicious_in_window() const { return events_.size(); }

  /// Clear state (e.g. after operator intervention re-enables a port).
  void reset() {
    tripped_ = false;
    events_.clear();
  }

 private:
  std::int64_t threshold_;
  fs_t window_;
  int max_jumps_;
  bool tripped_ = false;
  // A vector, not a deque: a default deque allocates a 576-byte map and block
  // per detector at construction, and every DTP port owns one.
  std::vector<fs_t> events_;
};

}  // namespace dtpsim::dtp
