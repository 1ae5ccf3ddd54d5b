#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "sync_spec.h"

namespace stclock {
namespace {

TEST(Adversaries, NamesAreStable) {
  EXPECT_STREQ(attack_name(AttackKind::kNone), "none");
  EXPECT_STREQ(attack_name(AttackKind::kCrash), "crash");
  EXPECT_STREQ(attack_name(AttackKind::kSpamEarly), "spam-early");
  EXPECT_STREQ(attack_name(AttackKind::kEquivocate), "equivocate");
  EXPECT_STREQ(attack_name(AttackKind::kReplay), "replay");
  EXPECT_STREQ(attack_name(AttackKind::kForge), "forge");
  EXPECT_STREQ(attack_name(AttackKind::kCnvPull), "cnv-pull");
  EXPECT_STREQ(attack_name(AttackKind::kLwPull), "lw-pull");
  EXPECT_STREQ(attack_name(AttackKind::kLeaderLie), "leader-lie");
}

TEST(Adversaries, FactoryReturnsNullForPassiveKinds) {
  AttackParams params;
  EXPECT_EQ(make_attack(AttackKind::kNone, params), nullptr);
  EXPECT_EQ(make_attack(AttackKind::kCrash, params), nullptr);
  EXPECT_NE(make_attack(AttackKind::kSpamEarly, params), nullptr);
  EXPECT_NE(make_attack(AttackKind::kForge, params), nullptr);
}

experiment::ScenarioSpec attack_spec(AttackKind attack) {
  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  experiment::ScenarioSpec spec = sync_spec(cfg);
  spec.seed = 11;
  spec.horizon = 15.0;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = attack;
  return spec;
}

TEST(Adversaries, EveryAttackLeavesProtocolCorrect) {
  for (AttackKind attack : {AttackKind::kCrash, AttackKind::kSpamEarly,
                            AttackKind::kEquivocate, AttackKind::kReplay,
                            AttackKind::kForge}) {
    const experiment::ScenarioResult r = run_scenario(attack_spec(attack));
    EXPECT_TRUE(r.live) << attack_name(attack);
    EXPECT_LE(r.steady_skew, r.bounds.precision) << attack_name(attack);
    EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + 1e-9) << attack_name(attack);
  }
}

TEST(Adversaries, SpamEarlyActuallyAccelerates) {
  // The attack should shorten periods relative to the max-delay benign run —
  // it is a real attack, just one the bounds absorb.
  experiment::ScenarioSpec benign = attack_spec(AttackKind::kCrash);
  benign.delay = DelayKind::kMax;
  experiment::ScenarioSpec spam = attack_spec(AttackKind::kSpamEarly);
  spam.delay = DelayKind::kMax;

  const experiment::ScenarioResult rb = run_scenario(benign);
  const experiment::ScenarioResult rs = run_scenario(spam);
  EXPECT_LT(rs.min_period, rb.min_period);
}

TEST(Adversaries, ForgeNeverBreaksUnforgeabilityFloor) {
  experiment::ScenarioSpec spec = attack_spec(AttackKind::kForge);
  spec.delay = DelayKind::kZero;
  const experiment::ScenarioResult r = run_scenario(spec);
  // If a forged bundle were ever accepted, a pulse would fire without any
  // honest node being ready, collapsing the minimum period.
  EXPECT_GE(r.min_period, r.bounds.min_period - 1e-9);
}

TEST(Adversaries, EquivocationCannotSplitPulses) {
  const experiment::ScenarioResult r = run_scenario(attack_spec(AttackKind::kEquivocate));
  // Relay property: even with targeted half-system messages, acceptance
  // times stay within the primitive's spread.
  EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + 1e-9);
}

TEST(Adversaries, MessageCostOfAttacksIsBounded) {
  // Attacks inflate traffic but must not break the simulation budget; the
  // run completes and counts messages sanely.
  const experiment::ScenarioResult r = run_scenario(attack_spec(AttackKind::kSpamEarly));
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_GT(r.bytes_sent, r.messages_sent);  // every message has > 1 byte
}

}  // namespace
}  // namespace stclock
