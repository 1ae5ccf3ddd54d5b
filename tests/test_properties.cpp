#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sync_spec.h"

/// Property sweeps: the paper's theorems, checked across the parameter grid.
/// Every combination must satisfy, simultaneously:
///   - Liveness (every correct node keeps pulsing),
///   - Agreement (skew <= Dmax),
///   - Relay (pulse spread <= D),
///   - Bounded periods,
///   - Accuracy (fitted rate within [rate_lo, rate_hi]).
namespace stclock {
namespace {

struct GridPoint {
  std::uint32_t n;
  std::uint32_t f;
  Variant variant;
  DriftKind drift;
  DelayKind delay;
  AttackKind attack;
  std::uint64_t seed;
};

std::string point_name(const ::testing::TestParamInfo<GridPoint>& info) {
  const GridPoint& p = info.param;
  std::string name = "n" + std::to_string(p.n) + "f" + std::to_string(p.f);
  name += p.variant == Variant::kAuthenticated ? "_auth" : "_echo";
  name += std::string("_") + drift_name(p.drift);
  name += std::string("_") + delay_name(p.delay);
  name += std::string("_") + attack_name(p.attack);
  name += "_s" + std::to_string(p.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class TheoremSweep : public ::testing::TestWithParam<GridPoint> {};

TEST_P(TheoremSweep, AllBoundsHold) {
  const GridPoint& p = GetParam();

  SyncConfig cfg;
  cfg.n = p.n;
  cfg.f = p.f;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.variant = p.variant;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = p.seed;
  spec.horizon = 12.0;
  spec.drift = p.drift;
  spec.delay = p.delay;
  spec.attack = p.attack;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
  EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + 1e-9);
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9);
  EXPECT_LE(r.max_period, r.bounds.max_period + 1e-9);
  EXPECT_GE(r.envelope.min_rate, r.bounds.rate_lo - r.rate_fit_tolerance);
  EXPECT_LE(r.envelope.max_rate, r.bounds.rate_hi + r.rate_fit_tolerance);
}

std::vector<GridPoint> auth_grid() {
  std::vector<GridPoint> grid;
  for (std::uint32_t n : {3u, 5u, 9u}) {
    const std::uint32_t f = max_faults_authenticated(n);
    for (DriftKind drift : {DriftKind::kRandomWalk, DriftKind::kExtremal}) {
      for (DelayKind delay : {DelayKind::kUniform, DelayKind::kSplit}) {
        for (AttackKind attack :
             {AttackKind::kCrash, AttackKind::kSpamEarly, AttackKind::kEquivocate}) {
          for (std::uint64_t seed : {1ull, 2ull}) {
            grid.push_back({n, f, Variant::kAuthenticated, drift, delay, attack, seed});
          }
        }
      }
    }
  }
  return grid;
}

std::vector<GridPoint> echo_grid() {
  std::vector<GridPoint> grid;
  for (std::uint32_t n : {4u, 7u, 10u}) {
    const std::uint32_t f = max_faults_echo(n);
    for (DriftKind drift : {DriftKind::kRandomWalk, DriftKind::kExtremal}) {
      for (DelayKind delay : {DelayKind::kUniform, DelayKind::kSplit}) {
        for (AttackKind attack : {AttackKind::kCrash, AttackKind::kSpamEarly}) {
          grid.push_back({n, f, Variant::kEcho, drift, delay, attack, 1});
        }
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Auth, TheoremSweep, ::testing::ValuesIn(auth_grid()), point_name);
INSTANTIATE_TEST_SUITE_P(Echo, TheoremSweep, ::testing::ValuesIn(echo_grid()), point_name);

/// Sweep over drift magnitudes: the precision bound must hold as rho grows,
/// and the measured skew must actually grow with rho (the bound is not
/// vacuous).
class DriftMagnitudeSweep : public ::testing::TestWithParam<double> {};

TEST_P(DriftMagnitudeSweep, PrecisionHoldsAndScales) {
  const double rho = GetParam();
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = rho;
  cfg.tdel = 0.005;
  cfg.period = 1.0;
  cfg.initial_sync = 0.002;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 9;
  spec.horizon = 12.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kCrash;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

INSTANTIATE_TEST_SUITE_P(Rho, DriftMagnitudeSweep,
                         ::testing::Values(0.0, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2));

/// Sweep over delay bounds: precision tracks tdel.
class DelayMagnitudeSweep : public ::testing::TestWithParam<double> {};

TEST_P(DelayMagnitudeSweep, PrecisionHolds) {
  const double tdel = GetParam();
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-4;
  cfg.tdel = tdel;
  cfg.period = 1.0;
  cfg.initial_sync = tdel / 2;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 13;
  spec.horizon = 12.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
  // Non-vacuous: the adversarial delay policy realizes a decent fraction of
  // the budget.
  EXPECT_GE(r.steady_skew, tdel / 2);
}

INSTANTIATE_TEST_SUITE_P(Tdel, DelayMagnitudeSweep,
                         ::testing::Values(0.001, 0.005, 0.01, 0.02, 0.05));

/// Alpha ablation: any alpha in (0, P) keeps the algorithm correct; the
/// default (1+rho)*D is just the paper's choice.
class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, CorrectForAnyReasonableAlpha) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.alpha = GetParam();

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 21;
  spec.horizon = 12.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

INSTANTIATE_TEST_SUITE_P(Alpha, AlphaSweep,
                         ::testing::Values(0.005, 0.01, 0.02, 0.05, 0.2));

/// Joiner sweep: integration must succeed for any join phase, both
/// variants, with and without an active attack.
struct JoinPoint {
  Variant variant;
  double join_time;
  AttackKind attack;
};

class JoinerSweep : public ::testing::TestWithParam<JoinPoint> {};

TEST_P(JoinerSweep, IntegrationAlwaysSucceeds) {
  const JoinPoint& p = GetParam();
  SyncConfig cfg;
  cfg.variant = p.variant;
  // Liveness while the joiner is down needs n - f(actual) - joiners >= f+1:
  // the down joiner effectively counts toward the fault budget.
  cfg.n = 7;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 17;
  spec.horizon = 20.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = p.attack;
  spec.joiners = 1;
  spec.join_time = p.join_time;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.joiners_integrated);
  EXPECT_LE(r.join_latency, r.bounds.max_period + 1e-9);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

std::vector<JoinPoint> join_grid() {
  std::vector<JoinPoint> grid;
  for (Variant variant : {Variant::kAuthenticated, Variant::kEcho}) {
    for (double join_time : {5.1, 7.53, 9.999, 12.25}) {
      for (AttackKind attack : {AttackKind::kCrash, AttackKind::kSpamEarly}) {
        grid.push_back({variant, join_time, attack});
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Join, JoinerSweep, ::testing::ValuesIn(join_grid()));

/// Amortized (smooth) adjustment sweep: monotone clocks, bounded skew, for
/// a range of amortization windows.
class AmortizedSweep : public ::testing::TestWithParam<double> {};

TEST_P(AmortizedSweep, SmoothModeStaysCorrect) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.adjust = AdjustMode::kAmortized;
  cfg.amortize_window = GetParam();

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 23;
  spec.horizon = 15.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_GT(r.envelope.min_rate, 0.5);  // clocks never stall or run backwards
  // Corrections lag by up to one window; allow that slack on top of Dmax.
  EXPECT_LE(r.steady_skew, r.bounds.precision + 2 * r.bounds.accept_spread);
}

INSTANTIATE_TEST_SUITE_P(Window, AmortizedSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.45));

/// Sleeper sweep: the attack may begin at any time without breaking bounds.
class SleeperSweep : public ::testing::TestWithParam<double> {};

TEST_P(SleeperSweep, MidRunWakeupIsHarmless) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 29;
  spec.horizon = 18.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSleeper;  // wake time fixed at 10 s in AttackParams

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Wake, SleeperSweep, ::testing::Values(1.0));

/// Unsynchronized-start sweep: convergence from any initial spread.
class InitSpreadSweep : public ::testing::TestWithParam<double> {};

TEST_P(InitSpreadSweep, ConvergesFromAnySpread) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = GetParam();
  cfg.allow_unsynchronized_start = true;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 31;
  spec.horizon = 20.0;
  spec.drift = DriftKind::kRandomConstant;
  spec.delay = DelayKind::kUniform;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

INSTANTIATE_TEST_SUITE_P(Spread, InitSpreadSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 1.5, 3.0));

}  // namespace
}  // namespace stclock
