// Property tests for the HealthManager circuit breaker: seeded random
// observation/probe sequences across ~1k seeds, with the state-machine
// invariants checked after every single operation (DESIGN.md §10):
//
//   1. monotone trip — a transient-failure streak reaching the threshold
//      always leaves the circuit open;
//   2. no healthy→down without passing degraded, unless the open was
//      forced (open_circuit);
//   3. the per-domain generation counter never regresses;
//   4. penalty() == 0 exactly when the domain is healthy;
//   5. admits() is consistent with health() (open = down or probing).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/health_manager.h"
#include "util/rng.h"

namespace {

using namespace unify;
using core::DomainHealth;
using core::HealthManager;

/// The breaker's fixed trip streak (TransientFailuresOpenCircuitAtThreshold
/// pins it against the manager).
constexpr int kFailureThreshold = 3;
constexpr std::size_t kSeeds = 1000;
constexpr std::size_t kStepsPerSeed = 120;
constexpr std::size_t kDomains = 3;

Error transient_error() {
  return Error{ErrorCode::kUnavailable, "connection refused"};
}

Error rejection_error() {
  return Error{ErrorCode::kRejected, "policy rejected the slice"};
}

/// One random op against domain `idx`. Returns true when this op forced
/// the circuit open regardless of the streak (exempt from invariant 2).
bool apply_random_op(HealthManager& manager, Rng& rng, std::size_t idx) {
  switch (rng.next_below(8)) {
    case 0:
    case 1:
    case 2:
      manager.record_failure(idx, transient_error());
      return false;
    case 3:
      manager.record_failure(idx, rejection_error());
      return false;
    case 4:
    case 5:
      manager.record_success(idx);
      return false;
    case 6:
      manager.begin_probe(idx);
      return false;
    default:
      // Rarer active transitions: forced open, probe failure, readmission.
      switch (rng.next_below(3)) {
        case 0:
          return manager.open_circuit(idx, "forced by property test");
        case 1:
          manager.probe_failed(idx, transient_error());
          return false;
        default:
          manager.close_circuit(idx);
          return false;
      }
  }
}

TEST(HealthProperty, InvariantsHoldAcrossRandomSequences) {
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0x9e3779b97f4a7c15ULL + seed);
    HealthManager manager;
    manager.reset({"d0", "d1", "d2"});

    std::vector<std::uint64_t> last_generation(kDomains, 0);
    for (std::size_t step = 0; step < kStepsPerSeed; ++step) {
      const std::size_t idx = rng.next_below(kDomains);
      const DomainHealth before = manager.health(idx);
      const bool forced = apply_random_op(manager, rng, idx);
      const DomainHealth after = manager.health(idx);
      const auto& rec = manager.record(idx);

      // 2. healthy never jumps straight to down passively: the passive path
      // degrades on the first transient failure, strictly before the
      // threshold trip, so a direct jump means a forced open.
      if (before == DomainHealth::kHealthy && after == DomainHealth::kDown) {
        EXPECT_TRUE(forced)
            << "seed " << seed << " step " << step
            << ": healthy -> down without a forced open_circuit";
      }

      for (std::size_t d = 0; d < kDomains; ++d) {
        const auto& record = manager.record(d);
        // 3. generation counters never regress.
        EXPECT_GE(record.generation, last_generation[d])
            << "seed " << seed << " step " << step << " domain " << d;
        last_generation[d] = record.generation;
        // 4. penalty is zero exactly on healthy domains.
        EXPECT_EQ(manager.penalty(d) == 0.0,
                  manager.health(d) == DomainHealth::kHealthy)
            << "seed " << seed << " step " << step << " domain " << d
            << ": penalty " << manager.penalty(d) << " vs health "
            << core::to_string(manager.health(d));
        // 5. admits() is the open-circuit gate.
        EXPECT_EQ(manager.admits(d),
                  manager.health(d) != DomainHealth::kDown &&
                      manager.health(d) != DomainHealth::kProbing)
            << "seed " << seed << " step " << step << " domain " << d;
      }

      // 1. monotone trip: a streak at or past the threshold can only be
      // observed with the circuit already open.
      if (rec.consecutive_failures >= kFailureThreshold) {
        EXPECT_FALSE(manager.admits(idx))
            << "seed " << seed << " step " << step << ": streak "
            << rec.consecutive_failures << " >= threshold "
            << kFailureThreshold << " but circuit still closed";
      }
    }
  }
}

TEST(HealthProperty, DefaultPenaltiesAreOrderedByBadness) {
  // degraded (even at the worst pre-trip streak) < probing < down, so a
  // mapper never prefers a half-open or dead domain over a merely flaky one.
  HealthManager manager;
  manager.reset({"d0"});
  for (int i = 0; i + 1 < kFailureThreshold; ++i) {
    EXPECT_FALSE(manager.record_failure(0, transient_error()));
  }
  ASSERT_EQ(manager.health(0), DomainHealth::kDegraded);
  const double worst_degraded = manager.penalty(0);
  ASSERT_TRUE(manager.record_failure(0, transient_error()));
  const double down = manager.penalty(0);
  manager.begin_probe(0);
  ASSERT_EQ(manager.health(0), DomainHealth::kProbing);
  const double probing = manager.penalty(0);
  EXPECT_GT(worst_degraded, 0.0);
  EXPECT_LT(worst_degraded, probing);
  EXPECT_LT(probing, down);
}

TEST(HealthProperty, PenaltyTracksStreakWhileDegraded) {
  HealthManager manager;
  manager.reset({"d0"});

  EXPECT_EQ(manager.penalty(0), 0.0);
  manager.record_failure(0, transient_error());
  const double unit = manager.penalty(0);
  EXPECT_GT(unit, 0.0);
  manager.record_failure(0, transient_error());
  EXPECT_EQ(manager.penalty(0), 2 * unit);
  // A rejection proves liveness and resets the streak, but the domain stays
  // degraded until a clean success: the penalty floors at one unit.
  manager.record_failure(0, rejection_error());
  EXPECT_EQ(manager.health(0), DomainHealth::kDegraded);
  EXPECT_EQ(manager.penalty(0), unit);
  manager.record_success(0);
  EXPECT_EQ(manager.health(0), DomainHealth::kHealthy);
  EXPECT_EQ(manager.penalty(0), 0.0);
}

TEST(HealthProperty, UnknownIndexHasNoPenalty) {
  HealthManager manager;
  EXPECT_EQ(manager.penalty(7), 0.0);
  manager.reset({"d0"});
  EXPECT_EQ(manager.penalty(1), 0.0);
}

}  // namespace
