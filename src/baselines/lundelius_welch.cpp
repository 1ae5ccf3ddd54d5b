#include "baselines/lundelius_welch.h"

#include <algorithm>
#include <vector>

#include "util/contracts.h"

namespace stclock::baselines {

LwProtocol::LwProtocol(LwParams params) : params_(params) {
  ST_REQUIRE(params_.n > 3 * params_.f, "LwProtocol requires n > 3f");
  ST_REQUIRE(params_.period > params_.collect_window,
             "LwProtocol: period too small for the collection window");
}

void LwProtocol::on_start(Context& ctx) { arm_broadcast(ctx); }

void LwProtocol::arm_broadcast(Context& ctx) {
  broadcast_timer_ =
      ctx.set_timer_at_logical(params_.period * static_cast<double>(round_));
}

void LwProtocol::on_message(Context& ctx, NodeId from, const Message& m) {
  const auto* lw = std::get_if<LwValueMsg>(&m);
  if (lw == nullptr) return;
  if (lw->round < round_) return;
  auto& slot = offsets_[lw->round];
  if (slot.contains(from)) return;
  // The sender transmitted exactly when its clock read round * P.
  const LocalTime implied_value = params_.period * static_cast<double>(lw->round);
  slot[from] = implied_value + params_.nominal_delay - ctx.logical_now();
}

void LwProtocol::on_timer(Context& ctx, TimerId id) {
  if (id == broadcast_timer_) {
    broadcast_timer_ = 0;
    ctx.broadcast(Message(LwValueMsg{round_}));
    collect_timer_ = ctx.set_timer_at_logical(
        params_.period * static_cast<double>(round_) + params_.collect_window);
    return;
  }
  if (id == collect_timer_) {
    collect_timer_ = 0;
    finish_round(ctx);
  }
}

void LwProtocol::finish_round(Context& ctx) {
  std::vector<Duration> estimates;
  estimates.reserve(params_.n);
  for (const auto& [sender, offset] : offsets_[round_]) {
    if (sender == ctx.self()) continue;
    estimates.push_back(offset);
  }
  estimates.push_back(0.0);  // own clock
  std::sort(estimates.begin(), estimates.end());

  // Fault-tolerant midpoint: drop the f lowest and f highest estimates; the
  // midpoint of the surviving extremes is bracketed by correct readings.
  Duration adjustment = 0;
  if (estimates.size() > 2 * params_.f) {
    const Duration lo = estimates[params_.f];
    const Duration hi = estimates[estimates.size() - 1 - params_.f];
    adjustment = (lo + hi) / 2;
  }
  ctx.logical().adjust_instant(ctx.hardware_now(), adjustment);

  offsets_.erase(offsets_.begin(), offsets_.upper_bound(round_));
  ++round_;
  arm_broadcast(ctx);
}

}  // namespace stclock::baselines
