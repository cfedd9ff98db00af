#pragma once

/// \file parse.hpp
/// Strict number parsing for the text formats a run is replayed from
/// (stress repro files, chaos plans). A value must be one whole number that
/// fits its field, or std::invalid_argument names the field and the text,
/// so a hand-edited file can never run a different experiment.

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>

namespace dtpsim {

/// Parse all of `text` as a base-10 integer in [lo, hi]. A sign on an
/// unsigned type, a leading '+', whitespace, trailing characters and values
/// outside the range all throw; `what` names the field in the message.
template <typename T>
T parse_int(const std::string& what, const std::string& text, T lo,
            T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi)
    throw std::invalid_argument(what + ": expected an integer in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "], got '" + text + "'");
  return v;
}

/// Parse all of `text` as a finite number (strtod syntax).
double parse_real(const std::string& what, const std::string& text);

/// `v` as text that `parse_real` reads back bit for bit ("%.17g").
std::string format_real(double v);

}  // namespace dtpsim
