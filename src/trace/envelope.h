#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/stats.h"
#include "util/types.h"

/// Measures accuracy: how logical clocks progress relative to real time.
///
/// The paper's optimality theorem says logical clocks stay within a linear
/// envelope of real time with the *hardware* drift slopes 1/(1+rho) and
/// (1+rho) (up to additive constants and an O((alpha+D)/P) rate term) —
/// i.e. synchronization does not amplify drift. This tracker samples
/// (t, C_i(t)) for every honest node and reports:
///
///  - per-node least-squares rate (long-run slope), and the fleet min/max;
///  - envelope offsets: max_t [C_i(t) - rate_hi * t] and
///    max_t [rate_lo * t - C_i(t)] for given candidate slopes — constants iff
///    the envelope holds.
///
/// Two storage modes:
///  - Series mode (default): every (t, C) sample is kept per node and
///    report() fits after the run — the original behavior, pinned by the
///    golden suite.
///  - Streaming mode (enable_streaming): the envelope parameters are fixed
///    up-front, so each node keeps only O(1) running sums (window moments
///    for the fit, running offset maxima). O(n) total memory instead of
///    O(n * samples) — at n = 10^6 with a 0.1 s interval and a 20 s horizon
///    the series would be ~2 * 10^8 points. The fitted slopes use the
///    one-pass normal equations, mathematically equal to fit_line but not
///    bit-identical to its centered two-pass arithmetic, which is why the
///    runner engages streaming only above the scale threshold.
///
/// Both modes cover every honest node at every n (streaming: 64 bytes/node).
namespace stclock {

class EnvelopeTracker {
 public:
  explicit EnvelopeTracker(Duration sample_interval = 0.1);

  /// Switches to streaming mode (before the first sample). The later
  /// report() call must pass exactly these parameters.
  void enable_streaming(double slope_lo, double slope_hi, RealTime steady_start);

  /// Samples all honest started nodes; called from the post-event hook.
  void sample(const Simulator& sim);

  struct Report {
    double min_rate = 0;  ///< smallest fitted per-node slope
    double max_rate = 0;  ///< largest fitted per-node slope
    /// Worst additive offsets against the candidate envelope slopes.
    double upper_offset = 0;  ///< max over samples of C(t) - slope_hi * t
    double lower_offset = 0;  ///< max over samples of slope_lo * t - C(t)
  };

  /// Requires at least two samples per node. Slopes are fitted over samples
  /// with t >= steady_start (skip convergence). In streaming mode the
  /// arguments must match enable_streaming's.
  [[nodiscard]] Report report(double slope_lo, double slope_hi,
                              RealTime steady_start = 0) const;

 private:
  struct NodeSeries {
    std::vector<double> t;
    std::vector<double> c;
  };

  /// Streaming per-node state: total sample count, steady-window moments,
  /// and running offset maxima over all samples.
  struct NodeSums {
    std::uint64_t samples = 0;
    std::uint64_t window = 0;
    double st = 0, sc = 0, stt = 0, stc = 0;
    double upper = 0, lower = 0;
  };

  Duration sample_interval_;
  RealTime last_sample_ = -1;
  std::vector<NodeSeries> series_;  // index = node id (empty for corrupt)

  bool streaming_ = false;
  double stream_lo_ = 0, stream_hi_ = 0;
  RealTime stream_steady_ = 0;
  std::vector<NodeSums> sums_;
};

}  // namespace stclock
