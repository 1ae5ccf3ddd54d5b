#include <gtest/gtest.h>

#include <map>

#include "core/joiner.h"
#include "sync_spec.h"
#include "sim/simulator.h"

/// Executable sketches of the paper's optimality (lower bound) results.
///
/// The accuracy lower bound rests on an indistinguishability/scaling
/// argument: if every hardware clock runs at rate r and every delay scales
/// by 1/r, no process can tell the difference from the nominal execution —
/// its local observations are identical — so its logical clock readings are
/// the same function of local time, and real-time accuracy degrades by
/// exactly r. Hence no algorithm's logical clocks can have drift better than
/// the hardware envelope. These tests *execute* both worlds and verify the
/// scaling exactly.
namespace stclock {
namespace {

/// Runs the authenticated protocol with all hardware clocks at `rate` and
/// tdel scaled by 1/rate; returns each node's round -> pulse real time.
std::map<Round, RealTime> pulses_under_rate(double rate) {
  SyncConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.rho = 0.2;  // generous bound so both scaled worlds are legal
  cfg.tdel = 0.01 / rate;
  cfg.period = 1.0;
  // The *algorithm* (its local constants) must be identical in both worlds;
  // only the environment scales. Pin alpha rather than deriving it from the
  // scaled tdel.
  cfg.alpha = 0.011;
  cfg.initial_sync = 0;

  const crypto::KeyRegistry registry(cfg.n, 1);
  SimParams params;
  params.n = cfg.n;
  params.tdel = cfg.tdel;
  params.seed = 1;

  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < cfg.n; ++i) clocks.emplace_back(0.0, rate);

  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(1.0), &registry);

  std::map<Round, RealTime> pulses;  // node 0's pulses
  for (NodeId id = 0; id < cfg.n; ++id) {
    auto proc = make_sync_process(cfg);
    if (id == 0) {
      proc->set_pulse_observer([&pulses, &sim](NodeId, Round k) { pulses[k] = sim.now(); });
    }
    sim.set_process(id, std::move(proc));
  }
  // Generous margin past the last compared round so a pulse landing exactly
  // on the horizon cannot be included in one world and excluded in the other.
  sim.run_until(10.5 / rate);
  return pulses;
}

TEST(LowerBound, ScaledExecutionsAreIndistinguishable) {
  // World A: nominal. World B: clocks 10% fast, delays 10% shorter. The
  // pulse *pattern* is identical; only real time is compressed by 1.1.
  const auto nominal = pulses_under_rate(1.0);
  const auto fast = pulses_under_rate(1.1);

  // Compare rounds comfortably inside both horizons.
  for (Round round = 1; round <= 8; ++round) {
    ASSERT_TRUE(nominal.contains(round));
    ASSERT_TRUE(fast.contains(round));
    EXPECT_NEAR(fast.at(round), nominal.at(round) / 1.1, 1e-9)
        << "pulse " << round << " does not scale: the worlds were distinguishable";
  }
}

TEST(LowerBound, LogicalClocksInheritHardwareDrift) {
  // Consequence of indistinguishability: between the two worlds, the same
  // logical clock value is reached at real times differing by factor 1.1 —
  // i.e. no algorithm can guarantee logical drift below hardware drift.
  const auto nominal = pulses_under_rate(1.0);
  const auto fast = pulses_under_rate(1.1);
  const Round last = 8;
  ASSERT_TRUE(nominal.contains(last) && fast.contains(last));
  const double rate_nominal = static_cast<double>(last) / nominal.at(last);
  const double rate_fast = static_cast<double>(last) / fast.at(last);
  EXPECT_NEAR(rate_fast / rate_nominal, 1.1, 1e-6);
}

TEST(LowerBound, SynchronizationIsNecessaryAtAll) {
  // Without resynchronization, skew grows linearly in time — the baseline
  // motivating the whole problem. (gamma * horizon vs. the synchronized
  // protocol's constant bound.)
  SyncConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.0;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 1;
  spec.horizon = 30.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kHalf;

  const experiment::ScenarioResult synced = run_scenario(spec);
  const double gamma = (1 + cfg.rho) - 1 / (1 + cfg.rho);
  const double unsynced_skew = gamma * spec.horizon;  // exact for extremal drift
  EXPECT_LT(synced.steady_skew, unsynced_skew / 4)
      << "synchronization should beat free-running clocks by a wide margin";
}

TEST(LowerBound, SkewCannotBeZeroUnderDelayUncertainty) {
  // With adversarial delays in [0, tdel], measured skew is bounded away
  // from zero (Theta(tdel) is inherent when u = tdel): the split-delay
  // policy forces a spread of order tdel on every round.
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 0;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 2;
  spec.horizon = 15.0;
  spec.drift = DriftKind::kNone;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;

  const experiment::ScenarioResult r = run_scenario(spec);
  EXPECT_GE(r.steady_skew, cfg.tdel / 2);
}

}  // namespace
}  // namespace stclock
