#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dtpsim {

namespace {
std::string bar(std::uint64_t count, std::uint64_t max_count, std::size_t width) {
  if (max_count == 0) return "";
  const auto len = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) / static_cast<double>(max_count) *
                   static_cast<double>(width)));
  return std::string(len, '#');
}
}  // namespace

IntHistogram::IntHistogram(std::int64_t lo, std::int64_t hi) : lo_(lo), hi_(hi) {
  if (hi < lo) throw std::invalid_argument("IntHistogram: hi < lo");
  counts_.assign(static_cast<std::size_t>(hi - lo + 1), 0);
}

void IntHistogram::add(std::int64_t v) {
  min_seen_ = min_seen_ ? std::min(*min_seen_, v) : v;
  max_seen_ = max_seen_ ? std::max(*max_seen_, v) : v;
  ++total_;
  const std::int64_t clamped = std::clamp(v, lo_, hi_);
  ++counts_[static_cast<std::size_t>(clamped - lo_)];
}

std::uint64_t IntHistogram::count(std::int64_t v) const {
  if (v < lo_ || v > hi_) return 0;
  return counts_[static_cast<std::size_t>(v - lo_)];
}

double IntHistogram::pdf(std::int64_t v) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(v)) / static_cast<double>(total_);
}

std::string IntHistogram::render(std::size_t width, bool show_empty) const {
  const std::uint64_t max_count = counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  std::string out;
  char line[192];
  for (std::int64_t v = lo_; v <= hi_; ++v) {
    const std::uint64_t c = count(v);
    if (!show_empty && c == 0) continue;
    std::snprintf(line, sizeof(line), "%8lld | %.4f %-10llu %s\n", static_cast<long long>(v),
                  pdf(v), static_cast<unsigned long long>(c),
                  bar(c, max_count, width).c_str());
    out += line;
  }
  return out;
}

}  // namespace dtpsim
