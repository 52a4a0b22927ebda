// Fast tier-1 churn smoke: a small seeded scenario (a few hundred
// requests, one flash crowd, one maintenance window, one storm) through
// the full admission stack, with the SLO spot-checks and the determinism
// contract the big `-L churn` soak enforces at scale.
#include "service/churn_driver.h"

#include <gtest/gtest.h>

#include "support/seed_env.h"

namespace unify::service {
namespace {

infra::churn::ScenarioSpec smoke_spec() {
  infra::churn::ScenarioSpec spec;
  spec.horizon_us = 60'000'000;  // 60 sim-seconds
  spec.arrival_rate_hz = 5;
  spec.flash_crowds.push_back({20'000'000, 5'000'000, 4.0});
  spec.maintenance.push_back({35'000'000, 5'000'000, 1});
  spec.storms.push_back({50'000'000, 0.3});
  // Longer-lived services than the default mix, so the storm finds a
  // meaningful live population (~25) to re-embed at t=50s.
  spec.lifetime_min_s = 2.0;
  spec.lifetime_cap_s = 30.0;
  return spec;
}

AdmissionPolicy smoke_policy() {
  AdmissionPolicy policy;
  policy.queue_capacity = 64;
  policy.max_wave = 8;
  return policy;
}

ChurnRunReport run_once(std::uint64_t seed) {
  ChurnStack stack(3, smoke_policy());
  return run_churn(stack, smoke_spec(), seed);
}

TEST(ChurnSmoke, SmallScenarioMeetsSlos) {
  for (const std::uint64_t seed :
       unify::test::soak_seeds("CHURN_SEED", {5})) {
    UNIFY_SEED_TRACE("CHURN_SEED", seed);
    ChurnStack stack(3, smoke_policy());
    const ChurnRunReport report = run_churn(stack, smoke_spec(), seed);
    EXPECT_GT(report.arrivals, 200u);
    EXPECT_GT(report.deployed, report.arrivals / 2);
    EXPECT_GT(report.removed, 0u);
    EXPECT_GT(report.migrations, 0u);
    // Bounded queue: admission control sheds, the queue never outgrows
    // its bound.
    EXPECT_LE(report.max_queue_depth, 64u);
    // Occupancy conservation: no domain ever saw an overcommitted slice.
    EXPECT_FALSE(report.overcommit);
    // Make-before-break: maintenance healing never shrank placements.
    EXPECT_FALSE(report.heal_shrank);
    // Deadlines were honoured for everything that deployed (arrivals get
    // at most 5s): late requests are shed, never deployed late.
    EXPECT_LE(report.adm_latency_p99_ms, 5000.0);
    EXPECT_GE(report.adm_latency_p50_ms, 0.0);
    // Every withdrawn book edit was restored below: no service's
    // requirement wedged a component that every later push re-failed on.
    EXPECT_EQ(stack.layer->metrics().counter("service.rollback_failures"),
              0u);
  }
}

TEST(ChurnSmoke, RunIsDeterministicPerSeed) {
  const std::uint64_t seed =
      unify::test::soak_seeds("CHURN_SEED", {5}).front();
  UNIFY_SEED_TRACE("CHURN_SEED", seed);
  const ChurnRunReport first = run_once(seed);
  const ChurnRunReport second = run_once(seed);
  EXPECT_EQ(first.signature, second.signature);
  EXPECT_EQ(first.arrivals, second.arrivals);
  EXPECT_EQ(first.deployed, second.deployed);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_DOUBLE_EQ(first.adm_latency_p99_ms, second.adm_latency_p99_ms);
}

}  // namespace
}  // namespace unify::service
