#include "common/time_units.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace dtpsim {
namespace {

using namespace dtpsim::literals;

TEST(TimeUnits, ConversionConstantsChain) {
  EXPECT_EQ(kFsPerPs, 1'000);
  EXPECT_EQ(kFsPerNs, kFsPerPs * 1'000);
  EXPECT_EQ(kFsPerUs, kFsPerNs * 1'000);
  EXPECT_EQ(kFsPerMs, kFsPerUs * 1'000);
  EXPECT_EQ(kFsPerSec, kFsPerMs * 1'000);
}

TEST(TimeUnits, FromHelpers) {
  EXPECT_EQ(from_ps(7), 7'000);
  EXPECT_EQ(from_ns(3), 3'000'000);
  EXPECT_EQ(from_us(2), 2'000'000'000);
  EXPECT_EQ(from_ms(1), 1'000'000'000'000);
  EXPECT_EQ(from_sec(1), 1'000'000'000'000'000);
}

TEST(TimeUnits, ToHelpers) {
  EXPECT_EQ(to_ns(6'400'000), 6);
  EXPECT_DOUBLE_EQ(to_ns_f(6'400'000), 6.4);
  EXPECT_DOUBLE_EQ(to_us_f(from_us(25)), 25.0);
  EXPECT_DOUBLE_EQ(to_sec_f(from_sec(2)), 2.0);
}

TEST(TimeUnits, IntegerLiterals) {
  EXPECT_EQ(640_fs, 640);
  EXPECT_EQ(5_ps, 5'000);
  EXPECT_EQ(50_ns, from_ns(50));
  EXPECT_EQ(32_us, from_us(32));
  EXPECT_EQ(10_ms, from_ms(10));
  EXPECT_EQ(1_sec, from_sec(1));
}

TEST(TimeUnits, FractionalLiterals) {
  EXPECT_EQ(6.4_ns, 6'400'000);
  EXPECT_EQ(25.6_ns, 25'600'000);
  EXPECT_EQ(0.5_us, from_ns(500));
  EXPECT_EQ(1.5_sec, from_ms(1500));
}

TEST(TimeUnits, TenGigTickIsExact) {
  // The whole repo hinges on 6.4 ns being exactly representable.
  EXPECT_EQ(6.4_ns * 10, 64_ns);
  EXPECT_EQ(from_sec(1) % 6'400'000, 0) << "a second is a whole number of 10G ticks";
}

TEST(TimeUnits, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration(640), "640fs");
  EXPECT_EQ(format_duration(from_ns(26)), "26ns");
  EXPECT_EQ(format_duration(from_us(13)), "13us");
  EXPECT_EQ(format_duration(from_ms(7)), "7ms");
  EXPECT_EQ(format_duration(from_sec(3)), "3s");
}

TEST(TimeUnits, FormatDurationNegative) {
  EXPECT_EQ(format_duration(-from_ns(50)), "-50ns");
}

TEST(TimeUnits, FormatDurationFractional) {
  EXPECT_EQ(format_duration(6'400'000), "6.4ns");
  EXPECT_EQ(format_duration(25'600'000), "25.6ns");
}

TEST(TimeUnits, CheckedConversionMatchesTheCast) {
  EXPECT_EQ(to_fs_checked(0.5, kFsPerSec), from_ms(500));
  EXPECT_EQ(to_fs_checked(50, kFsPerUs), from_us(50));
  EXPECT_EQ(to_fs_checked(0.01, kFsPerSec, from_ms(4)), from_ms(14));
  EXPECT_EQ(to_fs_checked(0, kFsPerSec), 0);
  // The top of the range still converts: 9223 s is < 2^63 fs.
  EXPECT_EQ(to_fs_checked(9223, kFsPerSec), from_sec(9223));
}

TEST(TimeUnits, CheckedConversionRejectsWhatTheCastCannotHold) {
  // Past 2^63 fs the double -> int64 cast is undefined behaviour.
  EXPECT_THROW(to_fs_checked(10000, kFsPerSec), std::invalid_argument);
  EXPECT_THROW(to_fs_checked(1e30, kFsPerSec), std::invalid_argument);
  EXPECT_THROW(to_fs_checked(std::numeric_limits<double>::infinity(), kFsPerSec),
               std::invalid_argument);
  EXPECT_THROW(to_fs_checked(std::numeric_limits<double>::quiet_NaN(), kFsPerSec),
               std::invalid_argument);
  EXPECT_THROW(to_fs_checked(-1, kFsPerSec), std::invalid_argument);
  // In range on its own, out of range once the settle phase is added.
  EXPECT_EQ(to_fs_checked(9215, kFsPerSec, from_sec(8)), from_sec(9223));
  EXPECT_THROW(to_fs_checked(9223.37, kFsPerSec, from_sec(8)), std::invalid_argument);
}

TEST(TimeUnits, ParseDurationRejectsWhatRoundsToZero) {
  // Positive, but below one femtosecond: the conversion truncates to 0, and
  // a zero period or horizon would silently become the consumer's default
  // (or an empty window that still prints a verdict).
  EXPECT_THROW(parse_duration("1e-9ns"), std::invalid_argument);
  EXPECT_THROW(parse_duration("1e-20s"), std::invalid_argument);
  // One femtosecond is the smallest duration there is.
  EXPECT_EQ(parse_duration("1e-6ns"), 1);
  EXPECT_EQ(parse_duration("0.000001ns"), 1);
}

}  // namespace
}  // namespace dtpsim
