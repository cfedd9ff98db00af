#pragma once

/// \file campaign.hpp
/// The canonical chaos campaign: the fixed fault schedule that
/// `bench_fault_recovery`, the campaign test, and `dtpsim --chaos=canonical`
/// all run, on the paper's Fig. 5 tree under MTU-saturated load. Its
/// parameters are also the baseline of every other row of the campaign
/// table (stress/campaign.hpp), including the source and gray campaigns.
///
/// One instance of every fault class, spaced so detector windows do not
/// overlap:
///
///   t0+0      link_flap    leaf0--S1 unplugged 50 us
///   t0+1ms    flap_storm   leaf1--S1, 6 flaps, one per 150 us, 60 us dark
///   t0+2.5ms  port_fail    S0--S2 trunk dark 250 us (partitions S2's subtree)
///   t0+4ms    ber_burst    leaf3--S2 at BER 1e-5 for 1.5 ms
///   t0+7ms    beacon_loss  leaf5--S3 drops half its control blocks for 1 ms
///   t0+9ms    node_crash   leaf4 powered off 400 us, then rejoins from zero
///   t0+15ms   rogue        leaf7's oscillator steps to +500 ppm; must be
///                          quarantined within 6 ms; collateral cleared 2 ms
///                          after detection, the rest must reconverge
///
/// DTP parameters differ from the library defaults in two ways, both
/// documented here because the acceptance numbers depend on them:
///
///   * `beacon_interval_ticks = 800` (5.12 us): under MTU-saturated load a
///     control slot opens about once per frame (~1.25 us), so the rejoin
///     chain INIT -> INIT-ACK -> BEACON-JOIN costs 2-4 slot waits; a 200-tick
///     interval would make "2 beacon intervals" shorter than two slot waits
///     and no protocol could pass. 800 ticks keeps the ±2T claim honest.
///   * The jump detector runs in *rate* mode: threshold 0 (every positive
///     fast-forward counts) with `max_jumps = 225` per 5 ms window. An honest
///     peer pair diverges at most 200 ppm (±100 ppm envelope), i.e. at most
///     ~156 one-unit jumps per window; a +500 ppm rogue forces >= 312 and
///     trips the detector within ~3.6 ms. The margin between 156 and 225 is
///     what separates "never fires in healthy operation" from "always fires
///     on an out-of-envelope part".

#include <cstdint>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "dtp/config.hpp"
#include "net/topology.hpp"

namespace dtpsim::chaos {

struct CanonicalCampaign {
  /// Network parameters: oscillator drift on, and a 20 us post-link-up data
  /// hold-off (MacParams::data_holdoff). The hold-off stands in for link
  /// training: INIT must measure d on a quiet link, because an INIT-ACK
  /// queued behind an in-flight MTU frame inflates d by up to half a frame
  /// time (~95 ticks) and no amount of beaconing repairs a wrong d.
  static net::NetworkParams net_params();

  /// Protocol parameters the campaign's agents must be built with.
  static dtp::DtpParams dtp_params();

  /// Time to let the cold-started tree settle before the first injection.
  static constexpr fs_t settle_time() { return from_ms(3); }

  /// The fault schedule starting at `t0` (>= settle_time()).
  static FaultPlan plan(const net::PaperTreeTopology& tree, fs_t t0);

  /// Run the simulation until at least this time so every probe reports.
  static fs_t end_time(fs_t t0) { return t0 + from_ms(25); }

  /// The Fig. 6a/6b heavy-load condition: cross-aggregation saturating
  /// flows loading every link (same pattern as the Fig. 6 benchmarks).
  static void start_heavy_load(net::Network& net, const net::PaperTreeTopology& tree,
                               std::uint32_t frame_bytes);
};

}  // namespace dtpsim::chaos
