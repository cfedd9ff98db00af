#pragma once

/// \file histogram.hpp
/// Integer histogram with ASCII rendering. The evaluation harness uses it
/// to print distribution figures (e.g. Fig. 6c, the PDF of DTP offsets).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dtpsim {

/// Histogram over integer values in [lo, hi] with one bin per integer —
/// natural for tick-valued offsets.
class IntHistogram {
 public:
  IntHistogram(std::int64_t lo, std::int64_t hi);

  void add(std::int64_t v);

  std::int64_t lo() const { return lo_; }
  std::int64_t hi() const { return hi_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t count(std::int64_t v) const;
  double pdf(std::int64_t v) const;
  /// Smallest / largest raw value observed (values outside [lo, hi] are
  /// clamped into the edge bins but reported here unclamped). Empty on an
  /// empty histogram — a reader must not mistake "no samples" for an
  /// observed 0.
  std::optional<std::int64_t> min_seen() const { return min_seen_; }
  std::optional<std::int64_t> max_seen() const { return max_seen_; }

  std::string render(std::size_t width = 50, bool show_empty = true) const;

 private:
  std::int64_t lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::optional<std::int64_t> min_seen_;
  std::optional<std::int64_t> max_seen_;
};

}  // namespace dtpsim
