#include <gtest/gtest.h>

#include "baselines/lundelius_welch.h"
#include "experiment/scenario.h"

namespace stclock::baselines {
namespace {

experiment::ScenarioSpec base_spec(const std::string& protocol) {
  experiment::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.cfg.n = 7;
  spec.cfg.f = 2;
  spec.cfg.rho = 1e-3;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.delta = 0.05;
  spec.seed = 5;
  spec.horizon = 30.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kHalf;
  return spec;
}

TEST(Unsynchronized, SkewGrowsLinearlyWithDrift) {
  const experiment::ScenarioSpec spec = base_spec("unsynchronized");
  const experiment::ScenarioResult r = run_scenario(spec);
  const double gamma = (1 + spec.cfg.rho) - 1 / (1 + spec.cfg.rho);
  // Extremal drift: fastest and slowest clocks diverge at rate gamma.
  EXPECT_GE(r.max_skew, 0.8 * gamma * spec.horizon);
  EXPECT_LE(r.max_skew, gamma * spec.horizon + spec.cfg.initial_sync + 1e-9);
}

TEST(Unsynchronized, NoMessagesSent) {
  const experiment::ScenarioResult r = run_scenario(base_spec("unsynchronized"));
  EXPECT_EQ(r.messages_sent, 0u);
}

TEST(Cnv, ConvergesUnderBenignConditions) {
  const experiment::ScenarioResult r = run_scenario(base_spec("interactive_convergence"));
  // Steady-state skew bounded by roughly the reading error (tdel) plus
  // drift per round — far below the unsynchronized linear growth.
  EXPECT_LE(r.steady_skew, 3 * base_spec("interactive_convergence").cfg.tdel + 0.01);
}

TEST(Cnv, ToleratesCrashFaults) {
  experiment::ScenarioSpec spec = base_spec("interactive_convergence");
  spec.attack = AttackKind::kCrash;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_LE(r.steady_skew, 3 * spec.cfg.tdel + 0.01);
}

TEST(Cnv, PullAttackAmplifiesDrift) {
  // The paper's motivation: averaging lets f colluding nodes drag the
  // *rate* of every correct clock. Expected bias ~ f * 0.9*delta / n per
  // period.
  experiment::ScenarioSpec spec = base_spec("interactive_convergence");
  spec.attack = AttackKind::kCnvPull;
  const experiment::ScenarioResult r = run_scenario(spec);

  const double bias_per_period =
      static_cast<double>(spec.cfg.f) * 0.9 * spec.delta / spec.cfg.n;
  const double expected_rate = 1.0 + bias_per_period / spec.cfg.period;
  // The fleet runs measurably faster than any hardware clock is allowed to.
  EXPECT_GT(r.envelope.max_rate,
            1 + spec.cfg.rho + 0.5 * bias_per_period / spec.cfg.period);
  EXPECT_LT(r.envelope.max_rate, expected_rate + 0.01);
}

TEST(Cnv, AgreementSurvivesPullAttackEvenThoughAccuracyDoesNot) {
  experiment::ScenarioSpec spec = base_spec("interactive_convergence");
  spec.attack = AttackKind::kCnvPull;
  const experiment::ScenarioResult r = run_scenario(spec);
  // The attack drags everyone together: mutual skew stays bounded...
  EXPECT_LE(r.steady_skew, 3 * spec.delta);
  // ...while real-time accuracy is destroyed (checked above).
}

TEST(Lw, ConvergesUnderBenignConditions) {
  const experiment::ScenarioResult r = run_scenario(base_spec("lundelius_welch"));
  EXPECT_LE(r.steady_skew, 3 * base_spec("lundelius_welch").cfg.tdel + 0.01);
}

TEST(Lw, FaultTolerantMidpointResistsPullAttack) {
  // The f-trim discards the adversary's extreme estimates: rate stays within
  // (a hair of) the hardware envelope — the contrast case to CNV.
  experiment::ScenarioSpec spec = base_spec("lundelius_welch");
  spec.attack = AttackKind::kLwPull;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_LT(r.envelope.max_rate,
            1 + spec.cfg.rho + 5 * spec.cfg.tdel / spec.cfg.period);
  EXPECT_LE(r.steady_skew, 5 * spec.cfg.tdel + 0.01);
}

TEST(Lw, RequiresNGreaterThan3f) {
  LwParams params;
  params.n = 6;
  params.f = 2;
  EXPECT_THROW(LwProtocol{params}, std::logic_error);
}

TEST(Leader, HonestLeaderGivesTightSkew) {
  const experiment::ScenarioSpec spec = base_spec("leader");
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_LE(r.steady_skew, 3 * spec.cfg.tdel + 0.01);
}

TEST(Leader, CorruptLeaderDestroysAccuracy) {
  const experiment::ScenarioResult r = run_scenario(base_spec("leader_corrupt"));
  // Followers slave to a clock running 10% fast: rate blows far past any
  // drift bound — a single fault defeats the scheme entirely.
  EXPECT_GT(r.envelope.max_rate, 1.05);
}

TEST(Leader, HonestLeaderMessageCostIsLinear) {
  const experiment::ScenarioSpec spec = base_spec("leader");
  const experiment::ScenarioResult r = run_scenario(spec);
  // ~n messages per period, ~horizon/period periods.
  const double periods = spec.horizon / spec.cfg.period;
  EXPECT_LT(static_cast<double>(r.messages_sent), 2.0 * spec.cfg.n * periods);
}

TEST(Baselines, DeterministicGivenSeed) {
  const experiment::ScenarioSpec spec = base_spec("interactive_convergence");
  EXPECT_DOUBLE_EQ(run_scenario(spec).max_skew, run_scenario(spec).max_skew);
  EXPECT_DOUBLE_EQ(run_scenario(base_spec("lundelius_welch")).max_skew,
                   run_scenario(base_spec("lundelius_welch")).max_skew);
}

}  // namespace
}  // namespace stclock::baselines
