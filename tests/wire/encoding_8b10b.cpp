#include "wire/encoding_8b10b.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

namespace dtpsim::phy {

namespace {

// --- 5b/6b sub-block (abcdei, bit 5 = 'a', first on the wire) -------------
// Primary column (current running disparity negative), per clause 36 /
// Widmer-Franaszek. Alternate = bitwise complement where marked.
struct Code6 {
  std::uint8_t primary;  // 6 bits
  bool has_alternate;    // alternate = ~primary
};

constexpr std::array<Code6, 32> kData6 = {{
    {0b100111, true},   // D0
    {0b011101, true},   // D1
    {0b101101, true},   // D2
    {0b110001, false},  // D3
    {0b110101, true},   // D4
    {0b101001, false},  // D5
    {0b011001, false},  // D6
    {0b111000, true},   // D7 (both neutral; alternate avoids long runs)
    {0b111001, true},   // D8
    {0b100101, false},  // D9
    {0b010101, false},  // D10
    {0b110100, false},  // D11
    {0b001101, false},  // D12
    {0b101100, false},  // D13
    {0b011100, false},  // D14
    {0b010111, true},   // D15
    {0b011011, true},   // D16
    {0b100011, false},  // D17
    {0b010011, false},  // D18
    {0b110010, false},  // D19
    {0b001011, false},  // D20
    {0b101010, false},  // D21
    {0b011010, false},  // D22
    {0b111010, true},   // D23
    {0b110011, true},   // D24
    {0b100110, false},  // D25
    {0b010110, false},  // D26
    {0b110110, true},   // D27
    {0b001110, false},  // D28
    {0b101110, true},   // D29
    {0b011110, true},   // D30
    {0b101011, true},   // D31
}};

constexpr Code6 kK28_6b{0b001111, true};

// --- 3b/4b sub-block (fghj, bit 3 = 'f') -----------------------------------
constexpr std::array<Code6, 8> kData4 = {{
    {0b1011, true},   // x.0
    {0b1001, false},  // x.1
    {0b0101, false},  // x.2
    {0b1100, true},   // x.3 (both neutral; alternate by RD)
    {0b1101, true},   // x.4
    {0b1010, false},  // x.5
    {0b0110, false},  // x.6
    {0b1110, true},   // x.7 primary (D.x.7)
}};
constexpr Code6 kAlt7_4b{0b0111, true};  // A.x.7

// K-code 3b/4b: .1/.2/.5/.6 use the complements of the data forms so the
// comma alternates properly.
constexpr std::array<Code6, 8> kCtrl4 = {{
    {0b1011, true},   // K.x.0
    {0b0110, true},   // K.x.1
    {0b1010, true},   // K.x.2
    {0b1100, true},   // K.x.3
    {0b1101, true},   // K.x.4
    {0b0101, true},   // K.x.5
    {0b1001, true},   // K.x.6
    {0b0111, true},   // K.x.7
}};

int ones(std::uint32_t v) { return __builtin_popcount(v); }

/// Disparity contribution of an n-bit sub-block: ones - zeros.
int block_disparity(std::uint32_t bits, int n) { return 2 * ones(bits) - n; }

/// Choose the column for the current RD and update RD.
std::uint32_t pick(const Code6& code, int n, Disparity& rd) {
  std::uint32_t chosen = code.primary;
  if (code.has_alternate && rd == Disparity::kPositive)
    chosen = ~code.primary & ((1u << n) - 1);
  const int d = block_disparity(chosen, n);
  if (d != 0)
    rd = (d > 0) ? Disparity::kPositive : Disparity::kNegative;
  return chosen;
}

/// The clause-36 K-codes, the only control codes the encoder accepts.
constexpr KCode kKCodes[] = {KCode::kK28_0, KCode::kK28_1, KCode::kK28_2, KCode::kK28_3,
                             KCode::kK28_4, KCode::kK28_5, KCode::kK28_6, KCode::kK28_7,
                             KCode::kK23_7, KCode::kK27_7, KCode::kK29_7, KCode::kK30_7};

bool is_legal_kcode(std::uint8_t byte) {
  return std::find(std::begin(kKCodes), std::end(kKCodes), static_cast<KCode>(byte)) !=
         std::end(kKCodes);
}

}  // namespace

Symbol10 Encoder8b10b::encode(std::uint8_t byte, bool control) {
  const std::uint8_t low5 = byte & 0x1F;       // EDCBA
  const std::uint8_t high3 = (byte >> 5) & 7;  // HGF

  Code6 six;
  if (control) {
    if (!is_legal_kcode(byte)) throw std::invalid_argument("8b10b: illegal K code");
    if (low5 == 28) {
      six = kK28_6b;
    } else {
      six = kData6[low5];  // K23/K27/K29/K30 reuse the data 6b encodings
    }
  } else {
    six = kData6[low5];
  }
  const std::uint32_t abcdei = pick(six, 6, rd_);

  Code6 four;
  if (control) {
    four = kCtrl4[high3];
  } else if (high3 == 7) {
    // D.x.A7 replaces D.x.7 to break up runs of five identical bits.
    const bool use_a7 =
        (rd_ == Disparity::kNegative && (low5 == 17 || low5 == 18 || low5 == 20)) ||
        (rd_ == Disparity::kPositive && (low5 == 11 || low5 == 13 || low5 == 14));
    four = use_a7 ? kAlt7_4b : kData4[7];
  } else {
    four = kData4[high3];
  }
  const std::uint32_t fghj = pick(four, 4, rd_);

  return static_cast<Symbol10>((abcdei << 4) | fghj);
}

Symbol10 Encoder8b10b::encode_data(std::uint8_t byte) { return encode(byte, false); }

Symbol10 Encoder8b10b::encode_control(KCode k) {
  return encode(static_cast<std::uint8_t>(k), true);
}

namespace {

/// Reverse map built once by exhaustively encoding everything in both
/// starting disparities.
struct ReverseMap {
  std::unordered_map<Symbol10, Decoded8b10b> map;

  ReverseMap() {
    auto add = [&](Symbol10 s, std::uint8_t byte, bool control) {
      auto [it, inserted] = map.emplace(s, Decoded8b10b{byte, control});
      if (!inserted && (it->second.byte != byte || it->second.is_control != control))
        throw std::logic_error("8b10b: symbol collision in code tables");
    };
    for (auto rd : {Disparity::kNegative, Disparity::kPositive}) {
      for (int b = 0; b < 256; ++b) {
        Encoder8b10b enc(rd);
        add(enc.encode_data(static_cast<std::uint8_t>(b)), static_cast<std::uint8_t>(b),
            false);
      }
      for (KCode k : kKCodes) {
        Encoder8b10b enc(rd);
        add(enc.encode_control(k), static_cast<std::uint8_t>(k), true);
      }
    }
  }
};

const ReverseMap& reverse_map() {
  static const ReverseMap instance;
  return instance;
}

}  // namespace

std::optional<Decoded8b10b> Decoder8b10b::decode(Symbol10 symbol) {
  symbol &= 0x3FF;
  const auto& map = reverse_map().map;
  const auto it = map.find(symbol);
  if (it == map.end()) return std::nullopt;  // code violation

  const int d = block_disparity(symbol, 10);
  if (d != 0 && d != 2 && d != -2) return std::nullopt;
  if (d != 0) {
    // A disparate symbol must flip the running disparity; receiving one
    // that pushes RD out of {-1,+1} is a disparity error.
    const auto next = (d > 0) ? Disparity::kPositive : Disparity::kNegative;
    if (next == rd_) return std::nullopt;
    rd_ = next;
  }
  return it->second;
}

bool is_comma(Symbol10 symbol) {
  // Comma = 0011111 or 1100000 in the first seven wire bits (a..g).
  const std::uint32_t first7 = (symbol >> 3) & 0x7F;
  return first7 == 0b0011111 || first7 == 0b1100000;
}

}  // namespace dtpsim::phy
