#include <gtest/gtest.h>

#include "sync_spec.h"

namespace stclock {
namespace {

experiment::ScenarioSpec join_spec(Variant variant) {
  SyncConfig cfg;
  cfg.f = 1;
  cfg.n = variant == Variant::kAuthenticated ? 5 : 7;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.variant = variant;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 3;
  spec.horizon = 25.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.joiners = 1;
  spec.join_time = 10.3;  // mid-round, no alignment with pulses
  return spec;
}

TEST(Joiner, IntegratesWithinOnePeriodAuth) {
  const experiment::ScenarioResult r = run_scenario(join_spec(Variant::kAuthenticated));
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.joiners_integrated);
  // The joiner adopts the first round accepted after boot; rounds recur at
  // most max_period apart, so integration completes within one max period.
  EXPECT_GE(r.join_latency, 0.0);
  EXPECT_LE(r.join_latency, r.bounds.max_period + 1e-9);
}

TEST(Joiner, IntegratesWithinOnePeriodEcho) {
  const experiment::ScenarioResult r = run_scenario(join_spec(Variant::kEcho));
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.joiners_integrated);
  EXPECT_LE(r.join_latency, r.bounds.max_period + 1e-9);
}

TEST(Joiner, PostIntegrationSkewWithinBound) {
  // Once integrated, the joiner counts toward the skew metric; the run-wide
  // steady skew (which includes the joiner from its first pulse) must still
  // meet the precision bound.
  const experiment::ScenarioResult r = run_scenario(join_spec(Variant::kAuthenticated));
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

TEST(Joiner, IntegrationWorksUnderByzantineInterference) {
  experiment::ScenarioSpec spec = join_spec(Variant::kAuthenticated);
  spec.attack = AttackKind::kSpamEarly;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.joiners_integrated);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

TEST(Joiner, MultipleJoinersIntegrate) {
  experiment::ScenarioSpec spec = join_spec(Variant::kAuthenticated);
  spec.joiners = 2;  // leaves 2 regular honest nodes + f crashed... still > f+1 ready
  spec.attack = AttackKind::kNone;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.joiners_integrated);
  EXPECT_TRUE(r.live);
}

TEST(Joiner, LateJoinDeepIntoRun) {
  experiment::ScenarioSpec spec = join_spec(Variant::kAuthenticated);
  spec.horizon = 40.0;
  spec.join_time = 31.7;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.joiners_integrated);
  EXPECT_LE(r.join_latency, r.bounds.max_period + 1e-9);
}

TEST(Joiner, JoinerDoesNotDisruptRunningSystem) {
  // Compare pulse behaviour with and without a joiner: the running nodes'
  // bounds must hold in both cases.
  experiment::ScenarioSpec with = join_spec(Variant::kAuthenticated);
  experiment::ScenarioSpec without = with;
  without.joiners = 0;
  const experiment::ScenarioResult a = run_scenario(with);
  const experiment::ScenarioResult b = run_scenario(without);
  EXPECT_TRUE(a.live);
  EXPECT_TRUE(b.live);
  EXPECT_LE(a.steady_skew, a.bounds.precision);
  EXPECT_LE(b.steady_skew, b.bounds.precision);
}

}  // namespace
}  // namespace stclock
