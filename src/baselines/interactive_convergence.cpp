#include "baselines/interactive_convergence.h"

#include <cmath>

#include "util/contracts.h"

namespace stclock::baselines {

CnvProtocol::CnvProtocol(CnvParams params) : params_(params) {
  window_ = params_.collect_window > 0 ? params_.collect_window
                                       : params_.delta + 4 * params_.nominal_delay;
  ST_REQUIRE(params_.period > window_ + params_.delta,
             "CnvProtocol: period too small for collection window + threshold");
}

void CnvProtocol::on_start(Context& ctx) { arm_broadcast(ctx); }

void CnvProtocol::arm_broadcast(Context& ctx) {
  broadcast_timer_ =
      ctx.set_timer_at_logical(params_.period * static_cast<double>(round_));
}

void CnvProtocol::on_message(Context& ctx, NodeId from, const Message& m) {
  const auto* cnv = std::get_if<CnvValueMsg>(&m);
  if (cnv == nullptr) return;
  if (cnv->round < round_) return;  // stale round
  auto& slot = offsets_[cnv->round];
  if (slot.contains(from)) return;  // first reading wins
  // Estimated offset of `from`'s clock relative to ours, assuming nominal
  // one-way delay. Estimation error <= tdel/2 + drift during transit.
  slot[from] = cnv->value + params_.nominal_delay - ctx.logical_now();
}

void CnvProtocol::on_timer(Context& ctx, TimerId id) {
  if (id == broadcast_timer_) {
    broadcast_timer_ = 0;
    ctx.broadcast(Message(CnvValueMsg{round_, ctx.logical_now()}));
    collect_timer_ = ctx.set_timer_at_logical(
        params_.period * static_cast<double>(round_) + window_);
    return;
  }
  if (id == collect_timer_) {
    collect_timer_ = 0;
    finish_round(ctx);
  }
}

void CnvProtocol::finish_round(Context& ctx) {
  const auto& slot = offsets_[round_];
  // Average over all n slots; own slot and missing/discarded senders
  // contribute 0 (i.e. "my own value", per the algorithm).
  double sum = 0;
  for (const auto& [sender, offset] : slot) {
    if (sender == ctx.self()) continue;
    if (std::abs(offset) > params_.delta) continue;  // discard outliers
    sum += offset;
  }
  const double adjustment = sum / static_cast<double>(params_.n);
  ctx.logical().adjust_instant(ctx.hardware_now(), adjustment);

  offsets_.erase(offsets_.begin(), offsets_.upper_bound(round_));
  ++round_;
  arm_broadcast(ctx);
}

}  // namespace stclock::baselines
