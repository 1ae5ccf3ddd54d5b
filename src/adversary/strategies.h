#pragma once

#include <memory>

#include "core/config.h"
#include "sim/process.h"

/// Byzantine strategies used by tests and experiments.
///
/// Each strategy drives all corrupted nodes at once through the omniscient
/// AdversaryContext. Strategies are model-conforming by construction: they
/// cannot sign for honest nodes, cannot impersonate honest senders, and
/// cannot touch honest-to-honest delays (those belong to the DelayPolicy).
namespace stclock {

enum class AttackKind {
  kNone,        ///< no corrupted nodes at all
  kCrash,       ///< corrupted nodes are silent from the start
  kSpamEarly,   ///< floods valid corrupt signatures / init / echo for every
                ///< future round at time 0 — maximal acceptance acceleration
  kEquivocate,  ///< sends round messages to only half the honest nodes,
                ///< trying to split acceptance (stresses Relay)
  kReplay,      ///< records honest round messages and replays them much
                ///< later (stresses round-tagged signatures)
  kForge,       ///< fabricates signatures for honest signers with random
                ///< MACs (must be rejected: unforgeability)
  kCnvPull,     ///< baseline attack: feeds each CNV node per-receiver
                ///< readings at the discard threshold to drag the average
  kLwPull,      ///< baseline attack: extreme-early/late readings against
                ///< Lundelius–Welch (discarded by the f-trim)
  kLeaderLie,   ///< baseline attack: a corrupted leader feeds followers a
                ///< clock running 10% fast (leader-sync strawman breakdown)
  kHssdEarly,   ///< baseline attack: signs each round the instant any honest
                ///< node's plausibility window opens (HSSD single-signature
                ///< acceptance -> per-round clock advance of ~window)
  kSleeper,     ///< behaves crashed until mid-run, then turns into the
                ///< spam-early flood (tests that guarantees are not merely a
                ///< property of clean starts)
};

inline constexpr EnumName<AttackKind> kAttackNames[] = {
    {"none", AttackKind::kNone},           {"crash", AttackKind::kCrash},
    {"spam-early", AttackKind::kSpamEarly}, {"equivocate", AttackKind::kEquivocate},
    {"replay", AttackKind::kReplay},       {"forge", AttackKind::kForge},
    {"cnv-pull", AttackKind::kCnvPull},    {"lw-pull", AttackKind::kLwPull},
    {"leader-lie", AttackKind::kLeaderLie}, {"hssd-early", AttackKind::kHssdEarly},
    {"sleeper", AttackKind::kSleeper},
};

[[nodiscard]] inline const char* attack_name(AttackKind kind) {
  return enum_name(kAttackNames, kind);
}

struct AttackParams {
  /// Highest round the attack pre-computes messages for (>= horizon / P).
  Round max_round = 64;
  /// The protocol period P (for attacks that pace themselves).
  Duration period = 1.0;
  /// Which variant the honest nodes run (attack messages differ).
  Variant variant = Variant::kAuthenticated;
  /// Baseline threshold: CNV's discard threshold (kCnvPull) and HSSD's
  /// plausibility window (kHssdEarly).
  Duration cnv_delta = 0.1;
  /// Real time at which a kSleeper adversary wakes up.
  RealTime sleeper_wake = 10.0;
  /// Nominal one-way delay assumed by the baselines (tdel / 2).
  Duration nominal_delay = 0.005;
};

/// Builds the strategy; returns nullptr for kNone / kCrash (no behaviour
/// needed — marking nodes corrupted is the caller's job).
[[nodiscard]] std::unique_ptr<Adversary> make_attack(AttackKind kind,
                                                     const AttackParams& params);

}  // namespace stclock
