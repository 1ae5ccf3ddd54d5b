#include "baselines/hssd_sync.h"

#include <algorithm>

#include "util/contracts.h"

namespace stclock::baselines {

HssdProtocol::HssdProtocol(HssdParams params) : params_(params) {
  ST_REQUIRE(params_.window > 0 && params_.window < params_.period / 2,
             "HssdProtocol: window must lie in (0, P/2)");
  ST_REQUIRE(params_.beta >= 0 && params_.beta < params_.period,
             "HssdProtocol: beta must lie in [0, P)");
}

void HssdProtocol::on_start(Context& ctx) { arm_broadcast(ctx); }

void HssdProtocol::arm_broadcast(Context& ctx) {
  if (broadcast_timer_ != 0) ctx.cancel_timer(broadcast_timer_);
  broadcast_timer_ =
      ctx.set_timer_at_logical(params_.period * static_cast<double>(next_broadcast_));
}

void HssdProtocol::on_timer(Context& ctx, TimerId id) {
  if (id != broadcast_timer_) return;
  broadcast_timer_ = 0;
  const Round k = next_broadcast_;
  ++next_broadcast_;
  const crypto::Signature sig = ctx.signer().sign(payload_for(k));
  ctx.broadcast(Message(RoundMsg{k, {sig}}));
  // Own signature triggers acceptance through self-delivery; arm the next
  // broadcast only if acceptance has not already done so.
  if (broadcast_timer_ == 0) arm_broadcast(ctx);
}

void HssdProtocol::on_message(Context& ctx, NodeId /*from*/, const Message& m) {
  const auto* rm = std::get_if<RoundMsg>(&m);
  if (rm == nullptr || rm->sigs.empty()) return;
  try_accept(ctx, rm->round, rm->sigs.front());
}

const Bytes& HssdProtocol::payload_for(Round k) {
  if (payload_.empty() || payload_round_ != k) {
    payload_ = round_signing_payload(k);
    payload_round_ = k;
  }
  return payload_;
}

void HssdProtocol::try_accept(Context& ctx, Round k, const crypto::Signature& sig) {
  if (k < next_round_) return;  // already reset for this round
  if (!ctx.registry().verify(sig, payload_for(k))) return;

  // Plausibility guard: the message may move our clock only within the
  // window around kP. This is the sole protection — one valid signature
  // from ANY node (honest or not) passes it.
  const LocalTime target = params_.period * static_cast<double>(k);
  const LocalTime now = ctx.logical_now();
  if (now < target - params_.window || now > target + params_.window) return;

  // Relay first so everyone else accepts within one delay.
  ctx.broadcast(Message(RoundMsg{k, {sig}}));

  ctx.logical().adjust_instant(ctx.hardware_now(), target + params_.beta - now);
  next_round_ = k + 1;
  next_broadcast_ = std::max(next_broadcast_, k + 1);
  arm_broadcast(ctx);
}

}  // namespace stclock::baselines
