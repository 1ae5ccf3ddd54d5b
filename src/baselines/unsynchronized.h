#pragma once

#include "sim/process.h"

/// Free-running clocks: no synchronization at all. Skew grows linearly at
/// the relative drift rate gamma = (1+rho) - 1/(1+rho). This is the control
/// case for every comparison table.
namespace stclock::baselines {

/// A process that never touches its logical clock.
class UnsynchronizedProtocol final : public Process {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

}  // namespace stclock::baselines
