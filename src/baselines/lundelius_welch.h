#pragma once

#include <map>

#include "sim/process.h"

/// Lundelius–Welch fault-tolerant averaging (PODC 1984) — the strongest
/// contemporaneous baseline: like CNV it is a round-based averaging
/// algorithm with f < n/3, but the combining function is the *fault-tolerant
/// midpoint*: sort the offset estimates, discard the f lowest and f highest,
/// and take the midpoint of the extremes of the rest. Because any surviving
/// extreme is bracketed by correct values, f colluding nodes cannot drag the
/// correction beyond the correct spread — no drift amplification (contrast
/// with CNV under the same kLwPull/kCnvPull attacks in experiment F2).
namespace stclock::baselines {

struct LwParams {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  Duration period = 1.0;
  Duration nominal_delay = 0.005;  ///< assumed one-way delay (tdel / 2)
  Duration collect_window = 0.05;  ///< how long after kP to wait for readings
};

class LwProtocol final : public Process {
 public:
  explicit LwProtocol(LwParams params);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& m) override;
  void on_timer(Context& ctx, TimerId id) override;

  [[nodiscard]] Round rounds_completed() const { return round_ - 1; }

 private:
  void arm_broadcast(Context& ctx);
  void finish_round(Context& ctx);

  LwParams params_;
  Round round_ = 1;
  TimerId broadcast_timer_ = 0;
  TimerId collect_timer_ = 0;
  std::map<Round, std::map<NodeId, Duration>> offsets_;
};

}  // namespace stclock::baselines
