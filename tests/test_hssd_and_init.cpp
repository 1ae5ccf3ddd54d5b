#include <gtest/gtest.h>

#include "baselines/hssd_sync.h"
#include "sync_spec.h"

namespace stclock {
namespace {

// ---------------------------------------------------------------------------
// HSSD-style single-signature synchronization (the authenticated competitor).
// ---------------------------------------------------------------------------

experiment::ScenarioSpec hssd_spec() {
  experiment::ScenarioSpec spec;
  spec.protocol = "hssd";
  spec.cfg.n = 7;
  spec.cfg.f = 3;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.delta = 0.05;  // HSSD plausibility window
  spec.cfg.initial_sync = 0.005;
  spec.seed = 5;
  spec.horizon = 40.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kHalf;
  return spec;
}

TEST(Hssd, ConvergesUnderBenignConditions) {
  const auto r = run_scenario(hssd_spec());
  // First-signature acceptance keeps everyone within ~one delay + drift.
  EXPECT_LE(r.steady_skew, 3 * hssd_spec().cfg.tdel + 0.01);
}

TEST(Hssd, ToleratesCrashes) {
  auto spec = hssd_spec();
  spec.attack = AttackKind::kCrash;
  const auto r = run_scenario(spec);
  EXPECT_LE(r.steady_skew, 3 * spec.cfg.tdel + 0.01);
}

TEST(Hssd, EarlyTriggerAmplifiesDrift) {
  // The contrast the Srikanth–Toueg quorum rule exists for: ONE corrupted
  // node triggers every round the moment the plausibility window opens,
  // advancing all correct clocks by ~window per period. Expected rate
  // excess ~ window / P, far beyond the hardware envelope.
  auto spec = hssd_spec();
  spec.cfg.f = 1;  // a single corrupted node suffices
  spec.attack = AttackKind::kHssdEarly;
  const auto r = run_scenario(spec);
  EXPECT_GT(r.envelope.max_rate, 1 + spec.cfg.rho + 0.3 * spec.delta / spec.cfg.period);
  // Agreement survives (the relay drags everyone together)...
  EXPECT_LE(r.steady_skew, 3 * spec.delta);
}

TEST(Hssd, SrikanthTouegResistsTheSameAttackPattern) {
  // Under ST, acceptance needs f+1 signatures, so the identical early-
  // signature pressure cannot move acceptance before an honest ready: the
  // rate ceiling stays the protocol constant.
  SyncConfig cfg;
  cfg.n = 7;
  cfg.f = 3;
  cfg.rho = 1e-4;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 5;
  spec.horizon = 40.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kHalf;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_LE(r.envelope.max_rate, r.bounds.rate_hi + r.rate_fit_tolerance);
}

TEST(Hssd, ParameterValidation) {
  baselines::HssdParams params;
  params.period = 1.0;
  params.window = 0.6;  // > P/2
  EXPECT_THROW(baselines::HssdProtocol{params}, std::logic_error);
  params.window = 0.05;
  params.beta = 1.5;  // >= P
  EXPECT_THROW(baselines::HssdProtocol{params}, std::logic_error);
}

// ---------------------------------------------------------------------------
// Initialization: convergence from an unsynchronized start.
// ---------------------------------------------------------------------------

TEST(Initialization, ConvergesFromLargeInitialOffsets) {
  // Clocks start spread across half a period — far beyond the steady-state
  // bound. The first accepted round anchors everyone; skew afterwards obeys
  // the ordinary precision bound.
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.5;  // huge: half a period
  cfg.allow_unsynchronized_start = true;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 4;
  spec.horizon = 25.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  // steady window starts after 2 * max_period: convergence is complete.
  EXPECT_LE(r.steady_skew, r.bounds.precision);
  // The initial spread really was visible before convergence.
  EXPECT_GE(r.max_skew, 0.2);
}

TEST(Initialization, ValidateRejectsLargeSpreadWithoutOptIn) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.5;
  EXPECT_THROW(cfg.validate(), std::logic_error);
  cfg.allow_unsynchronized_start = true;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Initialization, FastStartersSkipRoundsInsteadOfStalling) {
  // A node whose hardware clock starts several periods ahead broadcasts
  // readiness for early rounds nobody else is at; when the group's first
  // quorum forms it must adopt that round and continue (round skipping).
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 2.5;  // some nodes start 2.5 periods ahead
  cfg.allow_unsynchronized_start = true;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 6;
  spec.horizon = 25.0;
  spec.drift = DriftKind::kRandomConstant;
  spec.delay = DelayKind::kUniform;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
}

// ---------------------------------------------------------------------------
// Sleeper adversary: attacks that begin mid-run.
// ---------------------------------------------------------------------------

TEST(Sleeper, MidRunAttackStaysWithinBounds) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 8;
  spec.horizon = 25.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSleeper;  // wakes at t = 10 by default

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.live);
  EXPECT_LE(r.steady_skew, r.bounds.precision);
  EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + 1e-9);
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9);
}

}  // namespace
}  // namespace stclock
