// Engine differential harness: the same campaign run with 2/4 worker
// threads, with the tick-bridging engine, or both, must produce sentinel
// digests bit-identical to the serial cycle-exact run (offset samples, event
// counts, frame counts, FIFO crossings, agent adjustments). Carries the
// "parallel" label so the tsan test preset runs it under TSan.

#include <gtest/gtest.h>

#include "stress/runner.hpp"

using namespace dtpsim;

namespace {

stress::StressSpec differential_spec(std::uint32_t threads) {
  stress::StressSpec s;
  s.sim_seed = 777;
  s.topo = stress::TopoKind::kPaperTree;
  s.beacon_interval_ticks = 200;
  s.ppm_spread = 100.0;
  // >= 1 us of propagation gives the conservative partitioner lookahead.
  s.propagation_delay = from_us(1);
  s.n_flows = 3;
  s.frame_bytes = 512;
  s.rate_gbps = 2.0;
  s.threads = threads;
  s.settle = from_ms(3);
  s.horizon = from_ms(4);
  return s;
}

stress::StressSpec hier_flap_spec(std::uint32_t threads) {
  // Competing sources (stratum-1 GPS on S4, stratum-2 island on S11) with a
  // mid-run stratum flap on the GPS: selection churn, falseticker screens,
  // and the sentinel's served-timeline digest all have to stay bit-identical
  // across thread counts.
  stress::StressSpec s = differential_spec(threads);
  s.hier = true;
  chaos::FaultSpec flap;
  flap.kind = chaos::FaultKind::kStratumFlap;
  flap.a = "S4";  // the paper tree's first host
  flap.at = from_ms(3) + from_us(200);
  flap.count = 3;
  flap.period = from_us(150);
  flap.magnitude = 5;  // alternate (worse) advertised stratum
  s.faults.push_back(flap);
  s.horizon = stress::blackout_end(flap) + from_us(300);
  return s;
}

}  // namespace

TEST(StressDifferential, TwoThreadDigestMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(differential_spec(2));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
}

TEST(StressDifferential, FourThreadDigestMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(differential_spec(4));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
}

TEST(StressDifferential, FourThreadWithFaultsMatchesSerial) {
  stress::StressSpec s = differential_spec(4);
  // A mid-run link flap plus a BER burst: fault handling itself must stay
  // deterministic across thread counts.
  chaos::FaultSpec flap;
  flap.kind = chaos::FaultKind::kLinkFlap;
  flap.a = "S0";
  flap.b = "S2";
  flap.at = from_ms(3) + from_us(300);
  flap.duration = from_us(80);
  s.faults.push_back(flap);

  chaos::FaultSpec ber;
  ber.kind = chaos::FaultKind::kBerBurst;
  ber.a = "S1";
  ber.b = "S4";
  ber.at = from_ms(3) + from_us(500);
  ber.duration = from_us(120);
  ber.magnitude = 1e-5;
  s.faults.push_back(ber);

  s.horizon = stress::blackout_end(ber) + from_us(300);

  const stress::CampaignResult r = stress::run_differential(s);
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
}

TEST(StressDifferential, BridgedSerialDigestMatchesExact) {
  stress::StressSpec s = differential_spec(1);
  s.bridged = true;
  const stress::CampaignResult r = stress::run_differential(s);
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
}

TEST(StressDifferential, BridgedTwoThreadDigestMatchesExactSerial) {
  stress::StressSpec s = differential_spec(2);
  s.bridged = true;
  const stress::CampaignResult r = stress::run_differential(s);
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
}

TEST(StressDifferential, BridgedFourThreadWithFaultsMatchesExactSerial) {
  stress::StressSpec s = differential_spec(4);
  s.bridged = true;
  // Faults land inside bridged quiet spans: the flap exercises the purge /
  // bridge_cancel paths, the BER burst corrupts blocks riding as bridged
  // arrival steps.
  chaos::FaultSpec flap;
  flap.kind = chaos::FaultKind::kLinkFlap;
  flap.a = "S0";
  flap.b = "S2";
  flap.at = from_ms(3) + from_us(300);
  flap.duration = from_us(80);
  s.faults.push_back(flap);

  chaos::FaultSpec ber;
  ber.kind = chaos::FaultKind::kBerBurst;
  ber.a = "S1";
  ber.b = "S4";
  ber.at = from_ms(3) + from_us(500);
  ber.duration = from_us(120);
  ber.magnitude = 1e-5;
  s.faults.push_back(ber);

  s.horizon = stress::blackout_end(ber) + from_us(300);

  const stress::CampaignResult r = stress::run_differential(s);
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
}

TEST(StressDifferential, HierarchyStratumFlapTwoThreadMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(hier_flap_spec(2));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
  EXPECT_GT(r.sentinel_stats.utc_checks, 0u)
      << "the UTC monitors must actually be in the digest";
}

TEST(StressDifferential, HierarchyStratumFlapFourThreadMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(hier_flap_spec(4));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
}

namespace {

stress::StressSpec gray_spec(std::uint32_t threads) {
  // Gray tier armed: a frozen counter mid-run drives the watchdog through
  // quarantine -> backoff -> re-INIT -> probation. Every ladder decision
  // (including the per-slot jitter draws) folds into the digest, so the
  // serial and threaded runs must agree bit for bit.
  stress::StressSpec s = differential_spec(threads);
  s.gray = true;
  chaos::FaultSpec frozen;
  frozen.kind = chaos::FaultKind::kFrozenCounter;
  frozen.a = "S4";
  frozen.b = "S1";
  frozen.at = from_ms(3) + from_us(200);
  frozen.duration = from_us(400);
  s.faults.push_back(frozen);
  s.horizon = stress::blackout_end(frozen) + from_us(300);
  return s;
}

}  // namespace

TEST(StressDifferential, GrayWatchdogTwoThreadMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(gray_spec(2));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
  EXPECT_GT(r.sentinel_stats.watchdog_checks, 0u)
      << "the watchdog invariants must actually be in the digest";
}

TEST(StressDifferential, GrayWatchdogFourThreadMatchesSerial) {
  const stress::CampaignResult r = stress::run_differential(gray_spec(4));
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(r.shards, 1);
}

TEST(StressDifferential, GeneratedParallelCampaignsMatchSerial) {
  int checked = 0;
  for (std::uint32_t i = 0; i < 32 && checked < 2; ++i) {
    const stress::StressSpec s = stress::generate(/*seed=*/97, i);
    if (s.threads <= 1) continue;
    ++checked;
    const stress::CampaignResult r = stress::run_differential(s);
    for (const auto& v : r.violations)
      ADD_FAILURE() << "campaign " << i << ": " << v.to_string() << "\nrepro:\n"
                    << stress::to_text(s);
  }
  EXPECT_EQ(checked, 2);
}

TEST(StressDifferential, GeneratedBridgedCampaignsMatchExactSerial) {
  int checked = 0;
  for (std::uint32_t i = 0; i < 64 && checked < 2; ++i) {
    const stress::StressSpec s = stress::generate(/*seed=*/97, i);
    if (!s.bridged) continue;
    ++checked;
    const stress::CampaignResult r = stress::run_differential(s);
    for (const auto& v : r.violations)
      ADD_FAILURE() << "campaign " << i << ": " << v.to_string() << "\nrepro:\n"
                    << stress::to_text(s);
  }
  EXPECT_EQ(checked, 2);
}
