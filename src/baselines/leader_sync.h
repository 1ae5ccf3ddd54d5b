#pragma once

#include "sim/process.h"

/// Naive leader-based synchronization (an NTP-like strawman): node 0
/// broadcasts its clock every period; followers slave to it. With an honest
/// leader this gives tight skew at O(n) messages per round — but a single
/// corrupted leader fully controls every clock in the system. The
/// comparison table includes it to motivate why the paper insists on f+1
/// supporting processes before anyone moves its clock.
namespace stclock::baselines {

class LeaderProtocol final : public Process {
 public:
  LeaderProtocol(NodeId leader, Duration period, Duration nominal_delay);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& m) override;
  void on_timer(Context& ctx, TimerId id) override;

 private:
  NodeId leader_;
  Duration period_;
  Duration nominal_delay_;
  Round round_ = 1;
  TimerId timer_ = 0;
};

}  // namespace stclock::baselines
