#include "adversary/strategies.h"

#include <algorithm>
#include <vector>

#include "sim/simulator.h"
#include "util/contracts.h"

namespace stclock {

namespace {

std::vector<NodeId> corrupt_ids(const AdversaryContext& ctx) {
  std::vector<NodeId> ids;
  for (NodeId id = 0; id < ctx.n(); ++id) {
    if (ctx.is_corrupt(id)) ids.push_back(id);
  }
  return ids;
}

std::vector<NodeId> honest_ids_of(const AdversaryContext& ctx) {
  std::vector<NodeId> ids;
  for (NodeId id = 0; id < ctx.n(); ++id) {
    if (!ctx.is_corrupt(id)) ids.push_back(id);
  }
  return ids;
}

/// The maximal flood: every valid message the corrupted nodes could ever
/// legitimately send — round-k signatures (authenticated variant) or init +
/// echo pairs (echo variant) for all rounds up to max_round, delivered to
/// every honest node at `now`. Each round payload is serialized once, not
/// once per corrupted node. Shared by the spam-early and sleeper attacks.
void flood_all_rounds(AdversaryContext& ctx, const AttackParams& params, RealTime now) {
  std::vector<Bytes> payloads;  // authenticated variant only
  if (params.variant == Variant::kAuthenticated) {
    payloads.reserve(params.max_round);
    for (Round k = 1; k <= params.max_round; ++k) payloads.push_back(round_signing_payload(k));
  }
  for (NodeId c : corrupt_ids(ctx)) {
    for (Round k = 1; k <= params.max_round; ++k) {
      if (params.variant == Variant::kAuthenticated) {
        const crypto::Signature sig = ctx.signer_for(c).sign(payloads[k - 1]);
        ctx.send_from_to_all(c, Message(RoundMsg{k, {sig}}), now);
      } else {
        ctx.send_from_to_all(c, Message(InitMsg{k}), now);
        ctx.send_from_to_all(c, Message(EchoMsg{k}), now);
      }
    }
  }
}

/// Highest logical clock among honest started nodes (omniscient estimate of
/// how far the protocol has progressed).
LocalTime max_honest_logical(const AdversaryContext& ctx) {
  const Simulator& sim = ctx.observe();
  LocalTime best = 0;
  for (NodeId id : sim.honest_ids()) {
    if (!sim.is_started(id)) continue;
    best = std::max(best, sim.logical(id).read(sim.now()));
  }
  return best;
}

/// Floods, at time 0, every valid message the corrupted nodes could ever
/// legitimately send: round-k signatures (authenticated variant) or init +
/// echo messages (echo variant) for all rounds up to max_round. This is the
/// maximal acceleration attack: acceptance of round k then fires the moment
/// the FIRST honest node becomes ready, since the f corrupted contributions
/// are already in place.
class SpamEarlyAdversary final : public Adversary {
 public:
  explicit SpamEarlyAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override {
    flood_all_rounds(ctx, params_, ctx.real_now());
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
  void on_timer(AdversaryContext&, TimerId) override {}

 private:
  AttackParams params_;
};

/// Sends round contributions to only the even-indexed half of the honest
/// nodes, trying to make some accept much earlier than others. The Relay
/// property of the primitive defeats this: any accepting honest node drags
/// the rest along within D.
class EquivocateAdversary final : public Adversary {
 public:
  explicit EquivocateAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const Round k_est =
        static_cast<Round>(std::max(0.0, max_honest_logical(ctx) / params_.period)) + 1;
    const RealTime now = ctx.real_now();
    const std::vector<NodeId> honest = honest_ids_of(ctx);
    const bool authenticated = params_.variant == Variant::kAuthenticated;
    std::vector<Bytes> payloads;  // index k - k_est; serialized once per timer
    if (authenticated) {
      for (Round k = k_est; k <= k_est + 1 && k <= params_.max_round; ++k) {
        payloads.push_back(round_signing_payload(k));
      }
    }
    for (NodeId c : corrupt_ids(ctx)) {
      for (Round k = k_est; k <= k_est + 1 && k <= params_.max_round; ++k) {
        // One signature per (c, k), sent to every target.
        crypto::Signature sig;
        if (authenticated) sig = ctx.signer_for(c).sign(payloads[k - k_est]);
        for (std::size_t i = 0; i < honest.size(); i += 2) {  // half the nodes only
          if (authenticated) {
            ctx.send_from(c, honest[i], Message(RoundMsg{k, {sig}}), now);
          } else {
            ctx.send_from(c, honest[i], Message(InitMsg{k}), now);
            ctx.send_from(c, honest[i], Message(EchoMsg{k}), now);
          }
        }
      }
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period / 2);
  }
  AttackParams params_;
};

/// Records every protocol message received by corrupted nodes and replays
/// the lot once per period. Round-tagged signing payloads make replays
/// harmless: a (round k) signature never counts for round k' != k, and
/// duplicate signers are deduplicated.
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_message(AdversaryContext&, NodeId, NodeId, const Message& m) override {
    if (stash_.size() < kMaxStash) stash_.push_back(m);
  }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const std::vector<NodeId> corrupt = corrupt_ids(ctx);
    if (!corrupt.empty()) {
      for (const Message& m : stash_) {
        ctx.send_from_to_all(corrupt.front(), m, ctx.real_now());
      }
    }
    arm(ctx);
  }

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period);
  }

  static constexpr std::size_t kMaxStash = 512;
  AttackParams params_;
  std::vector<Message> stash_;
};

/// Fabricates signature bundles naming *honest* signers with random MAC
/// bytes, for rounds slightly in the future. If any honest node ever
/// accepted one of these, Unforgeability would be broken; verification
/// rejects them (probability of a 256-bit MAC collision is negligible).
class ForgeAdversary final : public Adversary {
 public:
  explicit ForgeAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const Round k = static_cast<Round>(
                        std::max(0.0, max_honest_logical(ctx) / params_.period)) +
                    2;  // a round no honest node is ready for yet
    const std::vector<NodeId> honest = honest_ids_of(ctx);
    const std::vector<NodeId> corrupt = corrupt_ids(ctx);
    if (!corrupt.empty() && params_.variant == Variant::kAuthenticated) {
      RoundMsg forged{k, {}};
      for (NodeId h : honest) {
        crypto::Signature sig;
        sig.signer = h;
        for (auto& byte : sig.mac) byte = static_cast<std::uint8_t>(ctx.rng().next_u64());
        forged.sigs.push_back(sig);
      }
      ctx.send_from_to_all(corrupt.front(), Message(forged), ctx.real_now());
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period / 2);
  }
  AttackParams params_;
};

/// Against interactive convergence (CNV): each corrupted node feeds every
/// honest receiver a per-receiver reading sitting just inside the discard
/// threshold, dragging the round average (and hence the clock rate) upward
/// by ~ f * 0.9 * delta / n per round. This is the drift-amplification
/// weakness the paper's accuracy-optimality result fixes.
class CnvPullAdversary final : public Adversary {
 public:
  explicit CnvPullAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const Simulator& sim = ctx.observe();
    const RealTime now = ctx.real_now();
    for (NodeId r : sim.honest_ids()) {
      if (!sim.is_started(r)) continue;
      const LocalTime lr = sim.logical(r).read(now);
      const Round k = static_cast<Round>(std::max(0.0, lr / params_.period));
      // The receiver turns (value, delivery clock) into an offset estimate
      // (value + nominal_delay - L_recv); aim that estimate at +0.9*delta.
      const LocalTime value = lr + 0.9 * params_.cnv_delta - params_.nominal_delay;
      for (NodeId c : corrupt_ids(ctx)) {
        for (Round kk = std::max<Round>(k, 1); kk <= k + 1; ++kk) {
          ctx.send_from(c, r, Message(CnvValueMsg{kk, value}), now);
        }
      }
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period / 8);
  }
  AttackParams params_;
};

/// Against Lundelius–Welch: corrupted nodes send sync messages for rounds
/// the honest nodes have not reached, producing extreme positive offset
/// estimates. The f-highest / f-lowest trim discards them, so LW should be
/// unaffected (this is the contrast case to CnvPull).
class LwPullAdversary final : public Adversary {
 public:
  explicit LwPullAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const Round k = static_cast<Round>(
                        std::max(0.0, max_honest_logical(ctx) / params_.period)) +
                    1;
    for (NodeId c : corrupt_ids(ctx)) {
      ctx.send_from_to_all(c, Message(LwValueMsg{k}), ctx.real_now());
      if (k > 1) ctx.send_from_to_all(c, Message(LwValueMsg{k - 1}), ctx.real_now());
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period / 8);
  }
  AttackParams params_;
};

/// Against HSSD-style single-signature acceptance: for each honest receiver,
/// sign (round k) for the largest k whose plausibility window has opened at
/// that receiver and deliver it immediately. Every valid acceptance then
/// advances the receiver's clock by up to the window width — compounding
/// each round into a constant-factor rate amplification.
class HssdEarlyAdversary final : public Adversary {
 public:
  explicit HssdEarlyAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const Simulator& sim = ctx.observe();
    const RealTime now = ctx.real_now();
    const std::vector<NodeId> corrupt = corrupt_ids(ctx);
    if (!corrupt.empty()) {
      for (NodeId r : sim.honest_ids()) {
        if (!sim.is_started(r)) continue;
        const LocalTime c = sim.logical(r).read(now);
        // Largest k with k*P - window <= c.
        const auto k = static_cast<Round>((c + params_.cnv_delta) / params_.period);
        if (k >= 1) {
          const crypto::Signature sig =
              ctx.signer_for(corrupt.front()).sign(round_signing_payload(k));
          ctx.send_from(corrupt.front(), r, Message(RoundMsg{k, {sig}}), now);
        }
      }
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period / 16);
  }
  AttackParams params_;
};

/// Crashed until `sleeper_wake`, then the full spam-early flood. Guarantees
/// must not depend on the adversary showing its hand at time zero.
class SleeperAdversary final : public Adversary {
 public:
  explicit SleeperAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override {
    (void)ctx.set_timer_at_real(params_.sleeper_wake);
  }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    flood_all_rounds(ctx, params_, ctx.real_now());
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  AttackParams params_;
};

/// A corrupted leader (the highest node id) that broadcasts a clock running
/// 10% fast. Followers of the leader-sync strawman slave to it unquestioned,
/// so every correct clock in the system is dragged off by an unbounded and
/// growing amount — the single-point-of-failure the quorum-based primitive
/// eliminates.
class LeaderLieAdversary final : public Adversary {
 public:
  explicit LeaderLieAdversary(AttackParams params) : params_(params) {}

  void on_start(AdversaryContext& ctx) override { arm(ctx); }

  void on_timer(AdversaryContext& ctx, TimerId) override {
    const std::vector<NodeId> corrupt = corrupt_ids(ctx);
    if (!corrupt.empty()) {
      const NodeId leader = corrupt.back();
      const LocalTime lie = 1.1 * ctx.real_now();
      ctx.send_from_to_all(leader, Message(LeaderTimeMsg{round_, lie}), ctx.real_now());
      ++round_;
    }
    arm(ctx);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}

 private:
  void arm(AdversaryContext& ctx) {
    (void)ctx.set_timer_at_real(ctx.real_now() + params_.period);
  }
  AttackParams params_;
  Round round_ = 1;
};

}  // namespace

std::unique_ptr<Adversary> make_attack(AttackKind kind, const AttackParams& params) {
  switch (kind) {
    case AttackKind::kNone:
    case AttackKind::kCrash:
      return nullptr;
    case AttackKind::kSpamEarly:
      return std::make_unique<SpamEarlyAdversary>(params);
    case AttackKind::kEquivocate:
      return std::make_unique<EquivocateAdversary>(params);
    case AttackKind::kReplay:
      return std::make_unique<ReplayAdversary>(params);
    case AttackKind::kForge:
      return std::make_unique<ForgeAdversary>(params);
    case AttackKind::kCnvPull:
      return std::make_unique<CnvPullAdversary>(params);
    case AttackKind::kLwPull:
      return std::make_unique<LwPullAdversary>(params);
    case AttackKind::kLeaderLie:
      return std::make_unique<LeaderLieAdversary>(params);
    case AttackKind::kHssdEarly:
      return std::make_unique<HssdEarlyAdversary>(params);
    case AttackKind::kSleeper:
      return std::make_unique<SleeperAdversary>(params);
  }
  return nullptr;
}

}  // namespace stclock
