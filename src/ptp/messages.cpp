#include "ptp/messages.hpp"

namespace dtpsim::ptp {

const char* to_string(PtpType t) {
  switch (t) {
    case PtpType::kSync: return "Sync";
    case PtpType::kFollowUp: return "Follow_Up";
    case PtpType::kDelayReq: return "Delay_Req";
    case PtpType::kDelayResp: return "Delay_Resp";
    case PtpType::kAnnounce: return "Announce";
  }
  return "?";
}

std::uint32_t ptp_payload_bytes(PtpType t) {
  // PTPv2 header is 34 bytes; body sizes per message type (IEEE 1588-2008).
  switch (t) {
    case PtpType::kSync: return 44;
    case PtpType::kFollowUp: return 44;
    case PtpType::kDelayReq: return 44;
    case PtpType::kDelayResp: return 54;
    case PtpType::kAnnounce: return 64;
  }
  return 44;
}

net::Frame make_ptp_frame(net::MacAddr src, net::MacAddr dst,
                          std::shared_ptr<const PtpMessage> msg) {
  net::Frame f;
  f.src = src;
  f.dst = dst;
  f.ethertype = net::kEtherTypePtp;
  f.payload_bytes = ptp_payload_bytes(msg->type);
  f.packet = msg;
  return f;
}

}  // namespace dtpsim::ptp
