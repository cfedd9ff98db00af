#include "wire/dtp.hpp"

namespace dtpsim::dtp {

phy::Block encode_into_block(const Message& m, bool parity) {
  phy::Block b = phy::make_idle_block();
  b.set_idle_field(encode_bits(m, parity));
  return b;
}

std::optional<Message> decode_from_block(const phy::Block& b, bool parity) {
  if (!b.is_idle_frame()) return std::nullopt;
  return decode_bits(b.idle_field(), parity);
}

phy::Block strip_to_idle(phy::Block b) {
  if (b.is_idle_frame()) b.set_idle_field(0);
  return b;
}

std::vector<phy::Symbol10> encode_1g(const Message& m, phy::Encoder8b10b& encoder) {
  const std::uint64_t bits56 = encode_bits(m);
  std::vector<phy::Symbol10> out;
  out.reserve(kDtpOrderedSetSymbols);
  out.push_back(encoder.encode_control(phy::KCode::kK28_1));
  for (std::size_t i = 0; i < 7; ++i)
    out.push_back(encoder.encode_data(static_cast<std::uint8_t>(bits56 >> (8 * i))));
  return out;
}

std::optional<Message> Decoder1g::feed(phy::Symbol10 symbol) {
  const auto decoded = decoder_.decode(symbol);
  if (!decoded) {
    ++violations_;
    collecting_ = false;
    pending_.clear();
    return std::nullopt;
  }
  if (decoded->is_control) {
    // K28.1 opens a DTP set; any other control code (idle /I/, /S/, /T/...)
    // ends whatever we were collecting.
    collecting_ = decoded->byte == static_cast<std::uint8_t>(phy::KCode::kK28_1);
    pending_.clear();
    return std::nullopt;
  }
  if (!collecting_) return std::nullopt;  // payload of some other ordered set
  pending_.push_back(decoded->byte);
  if (pending_.size() < 7) return std::nullopt;

  std::uint64_t bits56 = 0;
  for (std::size_t i = 0; i < 7; ++i)
    bits56 |= static_cast<std::uint64_t>(pending_[i]) << (8 * i);
  collecting_ = false;
  pending_.clear();
  return decode_bits(bits56);
}

}  // namespace dtpsim::dtp
