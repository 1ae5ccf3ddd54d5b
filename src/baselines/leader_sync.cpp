#include "baselines/leader_sync.h"

#include "util/contracts.h"

namespace stclock::baselines {

LeaderProtocol::LeaderProtocol(NodeId leader, Duration period, Duration nominal_delay)
    : leader_(leader), period_(period), nominal_delay_(nominal_delay) {
  ST_REQUIRE(period > 0, "LeaderProtocol: period must be positive");
}

void LeaderProtocol::on_start(Context& ctx) {
  if (ctx.self() == leader_) {
    timer_ = ctx.set_timer_at_logical(period_ * static_cast<double>(round_));
  }
}

void LeaderProtocol::on_message(Context& ctx, NodeId from, const Message& m) {
  const auto* lt = std::get_if<LeaderTimeMsg>(&m);
  if (lt == nullptr || from != leader_ || ctx.self() == leader_) return;
  // Slave unconditionally to the leader's clock — the whole point of the
  // strawman: there is no quorum between the leader and our clock.
  const Duration delta = (lt->value + nominal_delay_) - ctx.logical_now();
  ctx.logical().adjust_instant(ctx.hardware_now(), delta);
}

void LeaderProtocol::on_timer(Context& ctx, TimerId id) {
  if (id != timer_) return;
  ctx.broadcast(Message(LeaderTimeMsg{round_, ctx.logical_now()}));
  ++round_;
  timer_ = ctx.set_timer_at_logical(period_ * static_cast<double>(round_));
}

}  // namespace stclock::baselines
