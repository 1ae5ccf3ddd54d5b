#include <gtest/gtest.h>

#include "experiment/scenario.h"

namespace stclock {
namespace {

experiment::ScenarioSpec basic_spec(Variant variant) {
  SyncConfig cfg;
  cfg.variant = variant;
  cfg.n = 7;
  cfg.f = variant == Variant::kAuthenticated ? 3 : 2;
  cfg.rho = 1e-4;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec;
  spec.protocol = variant == Variant::kAuthenticated ? "auth" : "echo";
  spec.cfg = cfg;
  spec.seed = 1;
  spec.horizon = 15.0;
  spec.drift = DriftKind::kRandomWalk;
  spec.delay = DelayKind::kUniform;
  return spec;
}

TEST(Runner, SkewSeriesIsTimeMonotone) {
  const experiment::ScenarioResult r = run_scenario(basic_spec(Variant::kAuthenticated));
  ASSERT_GE(r.skew_series.size(), 10u);
  for (std::size_t i = 1; i < r.skew_series.size(); ++i) {
    EXPECT_GT(r.skew_series[i].first, r.skew_series[i - 1].first);
  }
  // Series values never exceed the reported maximum.
  for (const auto& [t, skew] : r.skew_series) {
    EXPECT_LE(skew, r.max_skew + 1e-15);
  }
}

TEST(Runner, PulseCountsConsistentWithHorizonAndPeriods) {
  const experiment::ScenarioResult r = run_scenario(basic_spec(Variant::kAuthenticated));
  EXPECT_LE(r.min_pulses, r.max_pulses);
  // Pulses per node ~ horizon / period; generous brackets either side.
  EXPECT_GE(r.min_pulses, 10u);
  EXPECT_LE(r.max_pulses, 20u);
  // Observed periods bracket the configured period loosely.
  EXPECT_GT(r.min_period, 0.5);
  EXPECT_LT(r.max_period, 2.0);
}

TEST(Runner, BoundsMatchTheoryModule) {
  const experiment::ScenarioSpec spec = basic_spec(Variant::kEcho);
  const experiment::ScenarioResult r = run_scenario(spec);
  const theory::Bounds direct = theory::derive_bounds(spec.cfg);
  EXPECT_DOUBLE_EQ(r.bounds.precision, direct.precision);
  EXPECT_DOUBLE_EQ(r.bounds.min_period, direct.min_period);
  EXPECT_DOUBLE_EQ(r.bounds.rate_hi, direct.rate_hi);
}

TEST(Runner, AuthRunsProduceOnlyRoundTraffic) {
  // Message-kind accounting: the authenticated protocol must emit nothing
  // but (round k) messages; a stray init/echo would mean the primitives
  // leaked into each other.
  const experiment::ScenarioResult r = run_scenario(basic_spec(Variant::kAuthenticated));
  EXPECT_GT(r.messages_sent, 0u);
  // Bytes per message for round msgs: header + at least one signature.
  EXPECT_GE(r.bytes_sent, r.messages_sent * (9 + 36));
}

TEST(Runner, EchoRunsAreCheaperPerMessage) {
  const experiment::ScenarioResult auth = run_scenario(basic_spec(Variant::kAuthenticated));
  const experiment::ScenarioResult echo = run_scenario(basic_spec(Variant::kEcho));
  const double auth_avg =
      static_cast<double>(auth.bytes_sent) / static_cast<double>(auth.messages_sent);
  const double echo_avg =
      static_cast<double>(echo.bytes_sent) / static_cast<double>(echo.messages_sent);
  EXPECT_LT(echo_avg, auth_avg);  // init/echo messages carry no signatures
}

TEST(Runner, RejectsInvalidSpecs) {
  {
    experiment::ScenarioSpec spec = basic_spec(Variant::kAuthenticated);
    spec.horizon = 0;
    EXPECT_THROW((void)run_scenario(spec), std::logic_error);
  }
  {
    experiment::ScenarioSpec spec = basic_spec(Variant::kAuthenticated);
    spec.cfg.f = 5;  // > ceil(7/2)-1
    EXPECT_THROW((void)run_scenario(spec), std::logic_error);
  }
  {
    experiment::ScenarioSpec spec = basic_spec(Variant::kAuthenticated);
    spec.joiners = 4;  // 7 - 3 corrupt - 4 joiners = 0 regular nodes
    spec.attack = AttackKind::kCrash;
    EXPECT_THROW((void)run_scenario(spec), std::logic_error);
  }
}

TEST(Runner, NameHelpersCoverAllKinds) {
  EXPECT_STREQ(drift_name(DriftKind::kNone), "none");
  EXPECT_STREQ(drift_name(DriftKind::kRandomConstant), "rand-const");
  EXPECT_STREQ(drift_name(DriftKind::kRandomWalk), "rand-walk");
  EXPECT_STREQ(drift_name(DriftKind::kExtremal), "extremal");
  EXPECT_STREQ(delay_name(DelayKind::kZero), "zero");
  EXPECT_STREQ(delay_name(DelayKind::kAlternating), "alternating");
}

TEST(Runner, SleeperWakeupVisibleInSkewSeries) {
  // The sleeper attack wakes at t = 10; pulses accelerate afterwards but
  // the run must stay within bounds — and the series must actually cover
  // both phases.
  experiment::ScenarioSpec spec = basic_spec(Variant::kAuthenticated);
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSleeper;
  spec.horizon = 20.0;
  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_GT(r.skew_series.back().first, 15.0);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

}  // namespace
}  // namespace stclock
