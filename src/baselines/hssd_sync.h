#pragma once

#include <set>

#include "sim/process.h"

/// HSSD-style authenticated synchronization (after Halpern, Simons, Strong &
/// Dolev, PODC 1984) — the signature-based competitor the paper improves on.
///
/// Simplified faithfully to its accuracy-relevant core: when a process's
/// clock reads kP it signs and broadcasts (round k); a process resets
/// C := kP + beta upon the FIRST valid (round k) signature it sees — its own
/// or anyone else's — provided its clock is within a plausibility window W
/// of kP, and relays that message. One signature suffices (instead of the
/// paper's f+1 quorum), which buys resilience to any number of faults for
/// *agreement*, but surrenders the unforgeability anchor: a single corrupted
/// node can legitimately trigger every round as soon as the window opens,
/// advancing every correct clock by ~W per period. The result is
/// constant-factor drift amplification ~ (1 + W/P), which no hardware
/// quality or period choice removes — exactly the accuracy weakness the
/// Srikanth–Toueg quorum rule eliminates. The matching attack is
/// AttackKind::kHssdEarly (adversary/strategies.h): corrupted nodes sign each
/// round the moment any honest window opens.
namespace stclock::baselines {

struct HssdParams {
  std::uint32_t n = 4;
  Duration period = 1.0;
  /// Clock-reset offset (compensates expected delivery delay).
  Duration beta = 0.01;
  /// Plausibility window: accept (round k) while own clock is in
  /// [kP - window, kP + window].
  Duration window = 0.05;
};

class HssdProtocol final : public Process {
 public:
  explicit HssdProtocol(HssdParams params);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& m) override;
  void on_timer(Context& ctx, TimerId id) override;

  [[nodiscard]] Round rounds_completed() const { return next_round_ - 1; }

 private:
  void arm_broadcast(Context& ctx);
  void try_accept(Context& ctx, Round k, const crypto::Signature& sig);
  /// round_signing_payload(k), serialized once per round: a round's relays
  /// arrive together, so one cached round serves nearly every verify.
  const Bytes& payload_for(Round k);

  HssdParams params_;
  Round next_round_ = 1;      ///< next round to resynchronize on
  Round next_broadcast_ = 1;  ///< next round to sign & broadcast at kP
  TimerId broadcast_timer_ = 0;
  Round payload_round_ = 0;  ///< the round payload_ was serialized for
  Bytes payload_;            ///< empty until the first payload_for call
};

}  // namespace stclock::baselines
