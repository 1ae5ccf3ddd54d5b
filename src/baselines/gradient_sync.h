#pragma once

#include <vector>

#include "sim/process.h"

/// Gradient clock synchronization (GCS) baseline — the protocol family of
/// Fan & Lynch / Lenzen–Locher–Wattenhofer, built for *general graphs* where
/// the figure of merit is the LOCAL skew between adjacent nodes rather than
/// the global spread.
///
/// Each round k, every node broadcasts its logical clock when it reads k*P
/// — on a sparse topology the broadcast reaches only its neighbors. A
/// receiver turns the reading into an offset estimate (value + nominal_delay
/// - own clock at arrival) and keeps the freshest estimate per neighbor. At
/// its next round boundary the node nudges its clock by `gain` times the
/// mean of its fresh neighbor offsets with its own (zero) offset included —
/// the classic distributed-averaging iteration, which converges on every
/// connected graph and keeps the skew between neighbors bounded by the
/// per-round estimate error instead of letting it grow with the network
/// diameter.
///
/// This is the first protocol that exercises the local-skew metric
/// end-to-end: on a ring its steady local skew beats the leader strawman
/// (whose broadcasts only ever reach the leader's two neighbors, leaving
/// the rest of the cycle free-running), which a dedicated test asserts.
/// Averaging carries no Byzantine defense — like CNV, a corrupted neighbor
/// can drag the mean — so it is registered as a fault-free baseline.
namespace stclock::baselines {

struct GradientParams {
  std::uint32_t n = 3;             ///< fleet size (sizes the estimate table)
  Duration period = 1.0;           ///< round length in logical time
  Duration nominal_delay = 0.005;  ///< assumed one-way delay (tdel / 2)
  /// Fraction of the mean neighbor offset applied per round, in (0, 1].
  /// 1.0 jumps straight to the neighborhood average; smaller values smooth
  /// the per-link delay-estimate noise at the cost of slower convergence.
  double gain = 0.5;
};

class GradientProtocol final : public Process {
 public:
  explicit GradientProtocol(GradientParams params);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& m) override;
  void on_timer(Context& ctx, TimerId id) override;

  [[nodiscard]] Round rounds_completed() const { return round_ - 1; }

 private:
  /// Freshest offset estimate from one neighbor, tagged with the round it
  /// was heard in; estimates older than one round are stale (the neighbor
  /// fell silent or the link vanished mid-run) and are ignored.
  struct PeerEstimate {
    NodeId peer = 0;
    Round heard_round = 0;
    Duration offset = 0;
  };

  GradientParams params_;
  Round round_ = 1;
  TimerId timer_ = 0;
  /// Estimates for the peers actually heard from, sorted by id. Only
  /// neighbors can reach us (broadcast is graph-restricted), so this is
  /// O(degree) per node — an n-sized table here made the fleet O(n^2) in
  /// memory and made every round an O(n) scan per node, which is what
  /// capped gradient sweeps around n = 10^4.
  std::vector<PeerEstimate> peers_;
};

}  // namespace stclock::baselines
