#pragma once

/// \file rates.hpp
/// Ethernet PHY rate descriptors — the paper's Table 2.
///
/// DTP generalizes across link speeds by making one counter tick represent
/// 0.32 ns and incrementing the counter by a per-rate delta at every PCS
/// clock edge (Section 7):
///
///   rate   encoding  width  frequency    period   delta
///   1G     8b/10b    8 bit  125    MHz   8    ns  25
///   10G    64b/66b   32bit  156.25 MHz   6.4  ns  20
///   40G    64b/66b   64bit  625    MHz   1.6  ns  5
///   100G   64b/66b   64bit  1562.5 MHz   0.64 ns  2

#include <array>
#include <cstdint>
#include <string_view>

#include "common/time_units.hpp"

namespace dtpsim::phy {

/// Link speed of a PHY.
enum class LinkRate : std::uint8_t { k1G, k10G, k40G, k100G };

/// Line-coding scheme used at a given rate.
enum class Encoding : std::uint8_t { k8b10b, k64b66b };

/// Static parameters of one row of Table 2.
struct RateSpec {
  LinkRate rate;
  std::string_view name;
  Encoding encoding;
  int data_width_bits;       ///< PCS datapath width
  double frequency_hz;       ///< PCS clock frequency
  fs_t period_fs;            ///< PCS clock period (exact in femtoseconds)
  std::uint32_t counter_delta;  ///< DTP counter increment per tick (0.32 ns units)
  double bits_per_second;    ///< MAC-layer data rate
};

/// One DTP counter unit at any rate: 0.32 ns.
inline constexpr fs_t kCounterUnitFs = 320'000;

/// The Table 2 rows, exact integer periods.
inline constexpr std::array<RateSpec, 4> kRateTable{{
    {LinkRate::k1G, "1G", Encoding::k8b10b, 8, 125e6, 8'000'000, 25, 1e9},
    {LinkRate::k10G, "10G", Encoding::k64b66b, 32, 156.25e6, 6'400'000, 20, 10e9},
    {LinkRate::k40G, "40G", Encoding::k64b66b, 64, 625e6, 1'600'000, 5, 40e9},
    {LinkRate::k100G, "100G", Encoding::k64b66b, 64, 1562.5e6, 640'000, 2, 100e9},
}};

/// Lookup a rate row.
constexpr const RateSpec& rate_spec(LinkRate r) {
  return kRateTable[static_cast<std::size_t>(r)];
}

/// Nominal PCS clock period at a rate.
constexpr fs_t nominal_period(LinkRate r) { return rate_spec(r).period_fs; }

/// Number of 66-bit blocks needed to carry `bytes` of MAC frame data
/// (including preamble/SFD) through the 64b/66b PCS: 8 bytes per block lane
/// plus one block for the terminate control character. This matches the
/// paper's accounting (MTU 1522 B ~= 191 blocks + IPG ~= 200 clock cycles at
/// 10G; jumbo ~9 kB ~= 1129 blocks).
constexpr std::int64_t blocks_for_frame(std::int64_t bytes) {
  return (bytes + 7) / 8 + 1;
}

/// IEEE 802.3 oscillator frequency tolerance: +-100 ppm.
inline constexpr double kMaxPpm = 100.0;

}  // namespace dtpsim::phy
