#include <gtest/gtest.h>

#include "sync_spec.h"

namespace stclock {
namespace {

SyncConfig small_auth() {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.variant = Variant::kAuthenticated;
  return cfg;
}

SyncConfig small_echo() {
  SyncConfig cfg = small_auth();
  cfg.variant = Variant::kEcho;
  cfg.n = 7;
  cfg.f = 2;
  return cfg;
}

experiment::ScenarioSpec spec_for(const SyncConfig& cfg) {
  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 7;
  spec.horizon = 20.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  return spec;
}

void expect_correct(const experiment::ScenarioResult& r) {
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision) << "precision bound violated";
  EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + 1e-9) << "relay bound violated";
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9) << "minimum period violated";
  EXPECT_LE(r.max_period, r.bounds.max_period + 1e-9) << "maximum period violated";
  EXPECT_GE(r.envelope.min_rate, r.bounds.rate_lo - r.rate_fit_tolerance) << "rate too slow";
  EXPECT_LE(r.envelope.max_rate, r.bounds.rate_hi + r.rate_fit_tolerance) << "rate too fast";
}

TEST(SyncProtocol, AuthFaultFreeMeetsAllBounds) {
  const experiment::ScenarioResult r = run_scenario(spec_for(small_auth()));
  expect_correct(r);
  EXPECT_GE(r.min_pulses, 15u);  // ~1 pulse per second over 20s
}

TEST(SyncProtocol, EchoFaultFreeMeetsAllBounds) {
  const experiment::ScenarioResult r = run_scenario(spec_for(small_echo()));
  expect_correct(r);
}

TEST(SyncProtocol, AuthToleratesCrashedNodes) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kCrash;  // f = 2 of 5 silent
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, EchoToleratesCrashedNodes) {
  experiment::ScenarioSpec spec = spec_for(small_echo());
  spec.attack = AttackKind::kCrash;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, AuthToleratesSpamEarly) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kSpamEarly;
  const experiment::ScenarioResult r = run_scenario(spec);
  expect_correct(r);
}

TEST(SyncProtocol, EchoToleratesSpamEarly) {
  experiment::ScenarioSpec spec = spec_for(small_echo());
  spec.attack = AttackKind::kSpamEarly;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, AuthToleratesEquivocation) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kEquivocate;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, EchoToleratesEquivocation) {
  experiment::ScenarioSpec spec = spec_for(small_echo());
  spec.attack = AttackKind::kEquivocate;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, AuthToleratesReplay) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kReplay;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, AuthToleratesForgeryAttempts) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kForge;
  expect_correct(run_scenario(spec));
}

TEST(SyncProtocol, SpamEarlyCannotBeatUnforgeabilityFloor) {
  // Even with every corrupt signature delivered at time 0, per-node periods
  // can never drop below (P - alpha)/(1+rho) - D: acceptance is anchored to
  // some honest node having been ready.
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.attack = AttackKind::kSpamEarly;
  spec.delay = DelayKind::kZero;  // fastest possible acceptance
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9);
}

TEST(SyncProtocol, WorksAtMinimumSystemSizes) {
  {
    SyncConfig cfg = small_auth();
    cfg.n = 3;
    cfg.f = 1;  // minimal authenticated system
    experiment::ScenarioSpec spec = spec_for(cfg);
    spec.attack = AttackKind::kSpamEarly;
    expect_correct(run_scenario(spec));
  }
  {
    SyncConfig cfg = small_echo();
    cfg.n = 4;
    cfg.f = 1;  // minimal echo system
    experiment::ScenarioSpec spec = spec_for(cfg);
    spec.attack = AttackKind::kSpamEarly;
    expect_correct(run_scenario(spec));
  }
}

TEST(SyncProtocol, SingleNodeDegenerateCase) {
  SyncConfig cfg = small_auth();
  cfg.n = 1;
  cfg.f = 0;
  cfg.initial_sync = 0;
  experiment::ScenarioSpec spec = spec_for(cfg);
  spec.delay = DelayKind::kZero;
  spec.drift = DriftKind::kNone;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_NEAR(r.max_skew, 0.0, 1e-12);
}

TEST(SyncProtocol, AmortizedModeKeepsClocksMonotoneAndSynchronized) {
  SyncConfig cfg = small_auth();
  cfg.adjust = AdjustMode::kAmortized;
  experiment::ScenarioSpec spec = spec_for(cfg);
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  // Smoothing never violates monotonicity, so the fitted rate is positive
  // and the skew stays within a slightly relaxed bound (corrections lag by
  // up to one amortization window).
  EXPECT_GT(r.envelope.min_rate, 0.5);
  EXPECT_LE(r.steady_skew, 2 * r.bounds.precision);
}

TEST(SyncProtocol, SkewBoundedUnderEveryDelayPolicy) {
  for (DelayKind delay : {DelayKind::kZero, DelayKind::kHalf, DelayKind::kMax,
                          DelayKind::kUniform, DelayKind::kSplit, DelayKind::kAlternating}) {
    experiment::ScenarioSpec spec = spec_for(small_auth());
    spec.delay = delay;
    const experiment::ScenarioResult r = run_scenario(spec);
    EXPECT_TRUE(r.live) << delay_name(delay);
    EXPECT_LE(r.steady_skew, r.bounds.precision) << delay_name(delay);
  }
}

TEST(SyncProtocol, DeterministicGivenSeed) {
  const experiment::ScenarioSpec spec = spec_for(small_auth());
  const experiment::ScenarioResult a = run_scenario(spec);
  const experiment::ScenarioResult b = run_scenario(spec);
  EXPECT_DOUBLE_EQ(a.max_skew, b.max_skew);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_DOUBLE_EQ(a.min_period, b.min_period);
}

TEST(SyncProtocol, SeedsChangeOutcomesUnderRandomness) {
  experiment::ScenarioSpec a = spec_for(small_auth());
  a.drift = DriftKind::kRandomWalk;
  a.delay = DelayKind::kUniform;
  experiment::ScenarioSpec b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(run_scenario(a).max_skew, run_scenario(b).max_skew);
}

TEST(SyncProtocol, ResilienceBreakdownBeyondBoundAuth) {
  // The adversary controls ceil(n/2) nodes — one more than the protocol's
  // threshold assumes. With spam-early it can then assemble full quorums by
  // itself, destroying the unforgeability anchor: pulses fire arbitrarily
  // fast (min period collapses far below the theoretical floor).
  SyncConfig cfg = small_auth();  // n = 5, f = 2 -> quorum 3
  experiment::ScenarioSpec spec = spec_for(cfg);
  spec.attack = AttackKind::kSpamEarly;
  spec.corrupt_override = 3;  // > f
  spec.delay = DelayKind::kZero;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_LT(r.min_period, r.bounds.min_period / 2) << "breakdown did not materialize";
}

TEST(SyncProtocol, MessageComplexityQuadraticPerRound) {
  experiment::ScenarioSpec spec = spec_for(small_auth());
  spec.delay = DelayKind::kHalf;
  spec.drift = DriftKind::kNone;
  const experiment::ScenarioResult r = run_scenario(spec);
  // Per round: n ready broadcasts + n acceptance relays = 2n messages of n
  // recipients each -> ~2n^2 sends per round.
  const double rounds = static_cast<double>(r.rounds_completed);
  const double per_round = static_cast<double>(r.messages_sent) / rounds;
  const double expected = 2.0 * spec.cfg.n * spec.cfg.n;
  EXPECT_GT(per_round, 0.5 * expected);
  EXPECT_LT(per_round, 2.0 * expected);
}

TEST(SyncProtocol, LargerSystemStillMeetsBounds) {
  SyncConfig cfg = small_auth();
  cfg.n = 15;
  cfg.f = 7;
  experiment::ScenarioSpec spec = spec_for(cfg);
  spec.attack = AttackKind::kSpamEarly;
  spec.horizon = 12.0;
  expect_correct(run_scenario(spec));
}

}  // namespace
}  // namespace stclock
