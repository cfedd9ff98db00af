#pragma once

/// \file transparent.hpp
/// Transparent clock (IEEE 1588 end-to-end TC) adapter for a switch.
///
/// A transparent clock measures how long each PTP event message spends
/// inside the switch (residence time) with the switch's own free-running
/// clock, and adds it to the message's correction field at egress, so
/// clients can subtract queueing delay. The paper's IBM G8264 was
/// configured as a transparent clock (Section 6.1); the paper also cites
/// reports of TCs misbehaving under congestion [52] — here the TC is
/// faithful, and PTP still degrades because *asymmetry between the Sync and
/// Delay_Req paths* survives correction only as well as the switch clock
/// and timestamp granularity allow.

#include <cstdint>
#include <unordered_map>

#include "net/switch.hpp"
#include "ptp/clock.hpp"
#include "ptp/messages.hpp"

namespace dtpsim::ptp {

/// Transparent-clock behaviour knobs.
struct TransparentClockParams {
  /// Residence times above this are NOT corrected. This models the
  /// congestion misbehaviour reported for enterprise TC switches ([52],
  /// which the paper cites to explain its own Fig. 6e/f measurements): the
  /// correction engine keeps up with short in-and-out residences but fails
  /// once frames sit in deep queues. Set to a huge value for an ideal,
  /// standard-conforming TC (which, as the paper notes, *should not*
  /// degrade under congestion).
  double max_correctable_residence_ns = 10'000.0;
};

/// Attaches residence-time correction to an existing net::Switch. Create it
/// after the switch's ports are all added and cabled.
class TransparentClockAdapter {
 public:
  /// \param sw  the switch to augment (must outlive the adapter)
  explicit TransparentClockAdapter(net::Switch& sw, TransparentClockParams params = {});

  const TransparentClockParams& params() const { return params_; }

  TransparentClockAdapter(const TransparentClockAdapter&) = delete;
  TransparentClockAdapter& operator=(const TransparentClockAdapter&) = delete;

  const HardwareClock& clock() const { return clock_; }
  std::uint64_t corrections_applied() const { return corrections_; }

 private:
  void note_ingress(const net::Frame& f, fs_t rx_time);
  void apply_egress(net::Frame& f, fs_t tx_start);
  void prune(fs_t now);

  net::Switch& sw_;
  TransparentClockParams params_;
  HardwareClock clock_;  ///< free-running switch clock (never servoed)
  /// Ingress hardware timestamps keyed by packet identity (flooded copies
  /// share one ingress record, each egress copy corrected independently).
  std::unordered_map<const void*, double> ingress_ts_ns_;
  std::unordered_map<const void*, fs_t> ingress_when_;
  std::uint64_t corrections_ = 0;
};

}  // namespace dtpsim::ptp
