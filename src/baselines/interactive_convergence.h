#pragma once

#include <map>

#include "sim/process.h"

/// Interactive convergence (CNV) — Lamport & Melliar-Smith's averaging
/// algorithm, the classic pre-Srikanth–Toueg baseline.
///
/// Each round k, every node broadcasts its clock when it reads k*P. A
/// receiver converts the reading into an offset estimate (value +
/// nominal_delay - local clock at arrival), replaces estimates farther than
/// `delta` from its own clock by 0 (its own value), and at the end of the
/// collection window adjusts by the mean over all n slots (missing senders
/// count as 0 too).
///
/// Tolerates f < n/3 Byzantine faults for agreement, but — the property the
/// paper's accuracy theorem targets — each corrupted node can bias the mean
/// by up to ~delta/n per round, so f colluding nodes drag the *rate* of all
/// correct clocks by ~ f*delta/(n*P): drift amplification that no choice of
/// hardware clock quality can fix. Experiment F2 measures exactly this.
namespace stclock::baselines {

struct CnvParams {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  Duration period = 1.0;
  Duration delta = 0.05;         ///< discard threshold
  Duration nominal_delay = 0.005;  ///< assumed one-way delay (tdel / 2)
  Duration collect_window = 0;   ///< <= 0: derived as delta + 4 * nominal_delay
};

class CnvProtocol final : public Process {
 public:
  explicit CnvProtocol(CnvParams params);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& m) override;
  void on_timer(Context& ctx, TimerId id) override;

  [[nodiscard]] Round rounds_completed() const { return round_ - 1; }

 private:
  void arm_broadcast(Context& ctx);
  void finish_round(Context& ctx);

  CnvParams params_;
  Duration window_;
  Round round_ = 1;
  TimerId broadcast_timer_ = 0;
  TimerId collect_timer_ = 0;
  /// Offset estimates per round per sender (first reading wins).
  std::map<Round, std::map<NodeId, Duration>> offsets_;
};

}  // namespace stclock::baselines
