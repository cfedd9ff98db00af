// The fuzzer batch gate: a fixed-seed campaign sweep that must finish with
// zero invariant violations. The campaign count is environment-tunable so
// the `stress-smoke` CTest preset can run the full 64-campaign acceptance
// batch (under ASan+UBSan) while a bare tier-1 run stays quick.
//
//   DTPSIM_STRESS_CAMPAIGNS=64 ./test_stress_smoke

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "stress/runner.hpp"

using namespace dtpsim;

namespace {

std::uint32_t campaigns_from_env(std::uint32_t fallback) {
  const char* env = std::getenv("DTPSIM_STRESS_CAMPAIGNS");
  if (env == nullptr || *env == '\0') return fallback;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::uint32_t>(v) : fallback;
}

}  // namespace

TEST(StressSmoke, FixedSeedCampaignBatchIsViolationFree) {
  const std::uint32_t n = campaigns_from_env(16);
  // differential=true: every multi-threaded or bridged campaign is also
  // replayed on the serial exact engine and digest-compared, so the batch
  // sweeps serial, 2- and 4-thread and bridged execution of the same specs.
  const stress::BatchOutcome out =
      stress::run_batch(/*seed=*/20260806, n, stress::StressLimits{},
                        /*differential=*/true);

  EXPECT_EQ(out.campaigns, n);
  EXPECT_GT(out.events_executed, 0u);
  for (const auto& f : out.failures) {
    std::string msg = "failing campaign repro:\n" + stress::to_text(f.spec);
    for (const auto& v : f.violations) msg += v.to_string() + "\n";
    ADD_FAILURE() << msg;
  }
}
