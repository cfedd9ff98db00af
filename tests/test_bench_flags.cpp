// The bench flag reader must never silently substitute a default for a
// malformed value: `--seconds=2,5` running the 0.5 s experiment and labeling
// the numbers "2.5 s" is exactly the kind of quiet data corruption the
// observability PR hunts. Malformed numerics are a hard exit(2).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.hpp"

using dtpsim::benchutil::Flags;

namespace {

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;  // keeps c_str()s alive
  storage = std::move(args);
  storage.insert(storage.begin(), "bench_test");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(BenchFlags, StrictDoubleParserAcceptsFullMatches) {
  double v = 0;
  EXPECT_TRUE(Flags::parse_double_strict("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(Flags::parse_double_strict("-0.125", &v));
  EXPECT_DOUBLE_EQ(v, -0.125);
  EXPECT_TRUE(Flags::parse_double_strict("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
}

TEST(BenchFlags, StrictDoubleParserRejectsPartialMatches) {
  double v = 0;
  EXPECT_FALSE(Flags::parse_double_strict("2,5", &v));  // locale-style comma
  EXPECT_FALSE(Flags::parse_double_strict("2.5s", &v));  // trailing unit
  EXPECT_FALSE(Flags::parse_double_strict("abc", &v));
  EXPECT_FALSE(Flags::parse_double_strict("", &v));
}

TEST(BenchFlags, StrictIntParserAcceptsAndRejects) {
  long long v = 0;
  EXPECT_TRUE(Flags::parse_int_strict("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(Flags::parse_int_strict("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(Flags::parse_int_strict("1e3", &v));   // not integer syntax
  EXPECT_FALSE(Flags::parse_int_strict("12x", &v));
  EXPECT_FALSE(Flags::parse_int_strict("", &v));
  // Past the long long range: strtoll would saturate and report success.
  EXPECT_TRUE(Flags::parse_int_strict("9223372036854775807", &v));
  EXPECT_EQ(v, 9223372036854775807LL);
  EXPECT_FALSE(Flags::parse_int_strict("9223372036854775808", &v));
  EXPECT_FALSE(Flags::parse_int_strict("-9223372036854775809", &v));
}

TEST(BenchFlags, WellFormedValuesParseAndMissingFallsBack) {
  const Flags f = make_flags({"--seconds=2.5", "--events=1000"});
  EXPECT_DOUBLE_EQ(f.get_double("seconds", 9.0), 2.5);
  EXPECT_EQ(f.get_int("events", 5), 1000);
  // Absent flags still take the caller's default.
  EXPECT_DOUBLE_EQ(f.get_double("missing", 9.0), 9.0);
  EXPECT_EQ(f.get_int("missing", 5), 5);
}

TEST(BenchFlags, ParseDurationAcceptsEveryUnitSuffix) {
  using dtpsim::parse_duration;
  EXPECT_EQ(parse_duration("50ns"), dtpsim::from_ns(50));
  EXPECT_EQ(parse_duration("1.5us"), dtpsim::from_ns(1500));
  EXPECT_EQ(parse_duration("2ms"), dtpsim::from_ms(2));
  EXPECT_EQ(parse_duration("0.25s"), dtpsim::from_ms(250));
  EXPECT_EQ(parse_duration("9000s"), dtpsim::from_sec(9000));
}

TEST(BenchFlags, ParseDurationIsStrict) {
  using dtpsim::parse_duration;
  // A bare number is ambiguous — seconds? ticks? — so the suffix is
  // mandatory, and the whole string must be consumed.
  EXPECT_THROW(parse_duration(""), std::invalid_argument);
  EXPECT_THROW(parse_duration("50"), std::invalid_argument);
  EXPECT_THROW(parse_duration("ms"), std::invalid_argument);
  EXPECT_THROW(parse_duration("50 ms"), std::invalid_argument);  // inner space
  EXPECT_THROW(parse_duration("50msx"), std::invalid_argument);
  EXPECT_THROW(parse_duration("50m"), std::invalid_argument);  // minutes? milli?
  // Durations configure timers and windows: zero and negative are nonsense.
  EXPECT_THROW(parse_duration("0ms"), std::invalid_argument);
  EXPECT_THROW(parse_duration("-3us"), std::invalid_argument);
  // Past the fs_t range (~9223 s) the double -> int64 cast is undefined.
  EXPECT_THROW(parse_duration("10000s"), std::invalid_argument);
  EXPECT_THROW(parse_duration("1e30s"), std::invalid_argument);
  EXPECT_THROW(parse_duration("infms"), std::invalid_argument);
  EXPECT_THROW(parse_duration("nanus"), std::invalid_argument);
}

TEST(BenchFlags, GetDurationParsesAndFallsBack) {
  const Flags f = make_flags({"--wd-check-period=50us"});
  EXPECT_EQ(f.get_duration("wd-check-period", dtpsim::from_ms(1)),
            dtpsim::from_us(50));
  EXPECT_EQ(f.get_duration("missing", dtpsim::from_ms(1)), dtpsim::from_ms(1));
}

TEST(BenchFlagsDeathTest, MalformedDurationExitsWithDiagnostic) {
  // "--wd-backoff=200" (no unit) silently meaning 200 fs — or falling back
  // to the default while the JSON row claims 200 — is the exact corruption
  // mode the strict parser exists to kill.
  const Flags f = make_flags({"--wd-backoff=200"});
  EXPECT_EXIT(f.get_duration("wd-backoff", dtpsim::from_us(200)),
              testing::ExitedWithCode(2),
              "--wd-backoff=200 is not a duration with a unit suffix");
}

TEST(BenchFlagsDeathTest, DurationThatRoundsToZeroExitsWithDiagnostic) {
  // 1e-9 ns is positive but below one femtosecond: accepting it would make
  // a zero check period, which the watchdog replaces with its 50 us default.
  const Flags f = make_flags({"--wd-check-period=1e-9ns"});
  EXPECT_EXIT(f.get_duration("wd-check-period", dtpsim::from_us(50)),
              testing::ExitedWithCode(2),
              "--wd-check-period=1e-9ns is not a duration .*rounds to 0 fs");
}

TEST(BenchFlagsDeathTest, MalformedDoubleExitsWithDiagnostic) {
  const Flags f = make_flags({"--seconds=2,5"});
  EXPECT_EXIT(f.get_double("seconds", 9.0), testing::ExitedWithCode(2),
              "--seconds=2,5 is not a number");
}

TEST(BenchFlagsDeathTest, MalformedIntExitsWithDiagnostic) {
  const Flags f = make_flags({"--events=12x"});
  EXPECT_EXIT(f.get_int("events", 5), testing::ExitedWithCode(2),
              "--events=12x is not an integer");
  const Flags big = make_flags({"--seed=99999999999999999999"});
  EXPECT_EXIT(big.get_int("seed", 5), testing::ExitedWithCode(2),
              "--seed=99999999999999999999 is not an integer");
}
