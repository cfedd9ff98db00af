#pragma once

/// \file messages.hpp
/// IEEE 1588 (PTPv2) message model.
///
/// Two-step flow: the grandmaster multicasts Sync, captures its hardware TX
/// timestamp, and multicasts a Follow_Up carrying it; clients send
/// Delay_Req and the master answers Delay_Resp with its hardware RX
/// timestamp. Transparent clocks accumulate per-hop residence time in the
/// correction field — modelled as a shared mutable accumulator attached to
/// each event message, updated by switches at egress serialization time
/// (exactly the on-the-fly correction-field rewrite real TCs perform).

#include <cstdint>
#include <memory>

#include "net/frame.hpp"

namespace dtpsim::ptp {

/// The PTP primary multicast address 01-1B-19-00-00-00.
inline constexpr net::MacAddr kPtpMulticast{0x011B'1900'0000ULL};

/// PTPv2 message types used here.
enum class PtpType : std::uint8_t {
  kSync,
  kFollowUp,
  kDelayReq,
  kDelayResp,
  kAnnounce,
};

const char* to_string(PtpType t);

/// One PTP message (carried as a Frame payload; per-hop residence time
/// accumulates in the carrying Frame's `correction_ns`).
struct PtpMessage : net::Packet {
  PtpType type = PtpType::kSync;
  std::uint16_t sequence = 0;
  /// kFollowUp: master's hardware TX timestamp of the matching Sync (t1).
  /// kDelayResp: master's hardware RX timestamp of the Delay_Req (t4).
  double timestamp_ns = 0.0;
  /// kDelayResp: the correction the matching Delay_Req accumulated on its
  /// way to the master (echoed back so the client can subtract it).
  double echoed_correction_ns = 0.0;
  /// kDelayResp: which client's request this answers.
  net::MacAddr requester{};
  /// kAnnounce: master priority (lower wins) and identity.
  std::uint8_t priority = 128;
  std::uint64_t clock_identity = 0;
};

/// On-the-wire sizes (bytes of MAC client data) for realistic serialization
/// delay; from the PTPv2 message formats.
std::uint32_t ptp_payload_bytes(PtpType t);

/// Convenience: build a Frame carrying a PTP message.
net::Frame make_ptp_frame(net::MacAddr src, net::MacAddr dst,
                          std::shared_ptr<const PtpMessage> msg);

}  // namespace dtpsim::ptp
