// Tier-1 coverage for the stress fuzzer: spec round-trips, a small
// fixed-seed campaign batch that must run violation-free, campaign
// determinism, and the full bug-to-repro pipeline exercised end to end
// against a surrogate bug (a deliberately impossible offset bound).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "stress/runner.hpp"
#include "stress/shrink.hpp"
#include "stress/spec.hpp"

using namespace dtpsim;

namespace {

constexpr std::uint64_t kBatchSeed = 20260806;

/// Small, known-converging campaign used by the targeted tests.
stress::StressSpec base_spec() {
  stress::StressSpec s;
  s.sim_seed = 4242;
  s.topo = stress::TopoKind::kPaperTree;
  s.beacon_interval_ticks = 200;
  s.ppm_spread = 50.0;
  s.enable_drift = false;
  s.propagation_delay = from_us(1);
  s.n_flows = 2;
  s.frame_bytes = 1522;
  s.saturate = false;
  s.rate_gbps = 2.0;
  s.threads = 1;
  s.settle = from_ms(3);
  s.horizon = from_ms(4);
  return s;
}

std::string violations_to_string(const stress::CampaignResult& r) {
  std::string out = "spec:\n" + stress::to_text(r.spec) + "violations:\n";
  for (const auto& v : r.violations) out += "  " + v.to_string() + "\n";
  return out;
}

}  // namespace

TEST(StressSpec, GeneratedSpecsRoundTripThroughText) {
  for (std::uint32_t i = 0; i < 12; ++i) {
    const stress::StressSpec s = stress::generate(kBatchSeed, i);
    SCOPED_TRACE("campaign " + std::to_string(i));
    EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  }
}

TEST(StressSpec, GenerationIsDeterministicAndDiverse) {
  bool saw_faults = false, saw_parallel = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(stress::generate(kBatchSeed, i), stress::generate(kBatchSeed, i));
    const stress::StressSpec s = stress::generate(kBatchSeed, i);
    saw_faults |= !s.faults.empty();
    saw_parallel |= s.threads > 1;
    EXPECT_GT(s.horizon, s.settle);
  }
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_parallel);
}

TEST(StressSpec, HierarchySectionRoundTripsAndValidates) {
  stress::StressSpec s = base_spec();
  s.hier = true;
  s.hier_holdover_ceiling = from_us(3);
  EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  // Hierarchy-free specs keep the pre-hierarchy byte format.
  EXPECT_EQ(stress::to_text(base_spec()).find("hier "), std::string::npos);
  // A chain has only two hosts — no room for a client between the sources.
  stress::StressSpec chain = base_spec();
  chain.topo = stress::TopoKind::kChain;
  chain.hier = true;
  EXPECT_THROW(stress::spec_from_text(stress::to_text(chain)),
               std::invalid_argument);
}

TEST(StressSpec, GraySectionRoundTripsAndStaysOptional) {
  stress::StressSpec s = base_spec();
  s.gray = true;
  EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  EXPECT_NE(stress::to_text(s).find("gray "), std::string::npos);
  // Gray-free specs keep the pre-gray byte format: old repro files replay
  // byte-identically through a round trip.
  EXPECT_EQ(stress::to_text(base_spec()).find("gray "), std::string::npos);
}

TEST(StressSpec, MalformedReproTextRejected) {
  const stress::StressSpec s = base_spec();
  const std::string good = stress::to_text(s);

  EXPECT_THROW(stress::spec_from_text("dtpsim-stress-repro v2\nend\n"),
               std::invalid_argument);
  // Missing the 'end' footer.
  EXPECT_THROW(stress::spec_from_text(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Unknown section.
  EXPECT_THROW(stress::spec_from_text("dtpsim-stress-repro v1\nwibble a=1\nend\n"),
               std::invalid_argument);
  // A required section missing entirely.
  std::string no_run;
  for (std::size_t at = 0, nl; at < good.size(); at = nl + 1) {
    nl = good.find('\n', at);
    const std::string line = good.substr(at, nl - at);
    if (line.rfind("run ", 0) != 0) no_run += line + "\n";
  }
  EXPECT_THROW(stress::spec_from_text(no_run), std::invalid_argument);
  // Values that do not fit their field: each replacement alone must throw.
  const std::pair<const char*, const char*> unfit[] = {
      {"threads=1 ", "threads=4294967297 "},  // wraps to 1 in 32 bits
      {"shape=0", "shape=-1"},                // unsigned
      {"sample=0", "sample=-1"},              // a duration
      {"drift=0", "drift=2"},                 // a flag
      {"gbps=2\n", "gbps=inf\n"},             // a finite real
  };
  for (const auto& [from, to] : unfit) {
    std::string text = good;
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::string(from).size(), to);
    EXPECT_THROW(stress::spec_from_text(text), std::invalid_argument) << to;
  }
}

TEST(StressRunner, FixedSeedBatchRunsClean) {
  stress::StressLimits limits;
  limits.max_faults = 2;
  const stress::BatchOutcome out = stress::run_batch(kBatchSeed, 4, limits);
  EXPECT_EQ(out.campaigns, 4u);
  EXPECT_GT(out.events_executed, 0u);
  for (const auto& f : out.failures) ADD_FAILURE() << violations_to_string(f);
}

TEST(StressRunner, CampaignIsDeterministic) {
  const stress::StressSpec s = base_spec();
  const stress::CampaignResult a = stress::run_campaign(s);
  const stress::CampaignResult b = stress::run_campaign(s);
  EXPECT_TRUE(a.clean()) << violations_to_string(a);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(StressRunner, SentinelMonitorsAreAllAlive) {
  const stress::CampaignResult r = stress::run_campaign(base_spec());
  EXPECT_TRUE(r.clean()) << violations_to_string(r);
  // Every monitor must have actually run — a silent no-op sentinel would
  // make the whole fuzzer vacuous.
  EXPECT_GT(r.sentinel_stats.samples, 0u);
  EXPECT_GT(r.sentinel_stats.monotonic_checks, 0u);
  EXPECT_GT(r.sentinel_stats.offset_checks, 0u);
  EXPECT_GT(r.sentinel_stats.overhead_checks, 0u);
  EXPECT_GT(r.sentinel_stats.wrap_checks, 0u);
  EXPECT_GT(r.sentinel_stats.tx_probe_checks, 0u);
  EXPECT_GT(r.sentinel_stats.fifo_probe_checks, 0u);
  // Paper tree: diameter 4 hops, default bound 4*D + 1.
  EXPECT_EQ(r.diameter_hops, 4u);
  EXPECT_DOUBLE_EQ(r.offset_bound_ticks, 17.0);
}

// The acceptance-path test: plant a surrogate bug (an offset bound no real
// network can hold), catch it, write a repro, replay it bit-exactly through
// the same code path `dtpsim --repro` uses, then shrink it and verify the
// minimized campaign still fails and is strictly smaller.
TEST(StressRepro, CaptureReplayShrinkEndToEnd) {
  stress::StressSpec s = base_spec();
  s.offset_bound_ticks = 1e-3;  // surrogate bug: impossible bound

  const stress::CampaignResult caught = stress::run_campaign(s);
  ASSERT_FALSE(caught.clean());
  ASSERT_EQ(caught.violations.front().kind, check::InvariantKind::kOffsetBound);

  const std::string path = testing::TempDir() + "dtpsim-repro-e2e.txt";
  stress::write_repro(caught.spec, path);
  EXPECT_EQ(stress::load_repro(path), s);

  // Replay goes through the identical load+run path as `dtpsim --repro`.
  const stress::CampaignResult replayed = stress::replay(path);
  ASSERT_EQ(replayed.violations.size(), caught.violations.size());
  for (std::size_t i = 0; i < caught.violations.size(); ++i) {
    EXPECT_EQ(replayed.violations[i].kind, caught.violations[i].kind);
    EXPECT_EQ(replayed.violations[i].at, caught.violations[i].at);
    EXPECT_EQ(replayed.violations[i].device, caught.violations[i].device);
    EXPECT_EQ(replayed.violations[i].observed, caught.violations[i].observed);
  }
  EXPECT_EQ(replayed.digest, caught.digest);

  const stress::ShrinkResult shrunk = stress::shrink(s, caught, /*max_runs=*/12);
  EXPECT_GE(shrunk.reductions, 1);
  EXPECT_LT(shrunk.minimal_size, shrunk.original_size);
  EXPECT_FALSE(shrunk.last_failure.clean());
  EXPECT_EQ(shrunk.last_failure.violations.front().kind,
            check::InvariantKind::kOffsetBound);
  // The minimal spec still round-trips, so the shrunken repro is writable.
  EXPECT_EQ(shrunk.minimal, stress::spec_from_text(stress::to_text(shrunk.minimal)));

  std::remove(path.c_str());
}

TEST(StressRepro, FaultScheduleSurvivesTheRoundTrip) {
  stress::StressLimits limits;
  limits.max_faults = 3;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const stress::StressSpec s = stress::generate(kBatchSeed + 1, i, limits);
    if (s.faults.empty()) continue;
    const stress::StressSpec back = stress::spec_from_text(stress::to_text(s));
    ASSERT_EQ(back.faults.size(), s.faults.size());
    for (std::size_t f = 0; f < s.faults.size(); ++f) EXPECT_EQ(back.faults[f], s.faults[f]);
    return;  // one spec with faults is enough
  }
  FAIL() << "no generated spec had faults in 24 draws";
}
