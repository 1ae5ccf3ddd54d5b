#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/types.h"

/// Measures precision: the spread of honest logical clocks over a run.
///
/// Install via Simulator::set_post_event_hook (the runner does this), so the
/// spread is sampled at exactly the instants state can change. Between
/// events clocks advance linearly, so event-time sampling bounds the true
/// supremum to within gamma * (inter-event gap) — negligible at the event
/// densities of these protocols.
///
/// Besides the global spread, the tracker measures *local skew* — the max
/// clock difference over pairs of topology-adjacent nodes, the figure of
/// merit of gradient clock synchronization (Kuhn/Lenzen/Locher/Oshman). The
/// adjacency is read from the simulator's CURRENT graph at every sample, so
/// on a dynamic topology the metric always reflects the links that were
/// live at measurement time. On the complete topology local skew equals the
/// global spread, at no extra cost.
///
/// The sparse pass is built to survive n = 10^6: per-node scratch is marked
/// with a generation counter (no O(n) re-zeroing per sample), and the O(E)
/// adjacent-pair rescan is skipped entirely — reusing the previous result
/// bit-for-bit — when the sampled set, every sampled value, and the live
/// graph are all unchanged since the last sample. Every node carries its
/// 16 bytes of scratch at every n, so local skew covers every adjacent pair.
namespace stclock {

class SkewTracker {
 public:
  /// `include` filters which nodes count (e.g. to exclude a joiner until it
  /// has integrated); null means "all honest started nodes".
  explicit SkewTracker(Duration series_interval = 0.05,
                       std::function<bool(NodeId)> include = nullptr);

  /// Samples the current spread; called from the post-event hook.
  void sample(const Simulator& sim);

  /// Ignore samples before `t` in steady_max_skew() (skip the initial
  /// convergence phase).
  void set_steady_start(RealTime t) { steady_start_ = t; }

  /// Decimates sampling itself: samples closer than `gap` to the previous
  /// one are dropped wholesale. At n >= the scale threshold the per-event
  /// O(n) value sweep is what dominates a run, and event densities make
  /// per-event sampling redundant; the runner engages this only for fleets
  /// far above everything the golden suite pins. 0 (the default) keeps the
  /// every-event behavior.
  void set_min_sample_gap(Duration gap) { min_sample_gap_ = gap; }

  /// Arms the stabilization watch: samples at t >= `after` (the last
  /// corruption event) are judged against `threshold`, and the tracker
  /// records the first time from which the spread enters — and then STAYS —
  /// inside it. threshold <= 0 selects the pre-corruption reference: the
  /// max spread observed in [steady_start, after), i.e. "as tight as it was
  /// before the fault" (for baselines with no derived precision bound).
  void set_stabilization(RealTime after, double threshold);

  /// True iff post-corruption samples exist and the spread re-entered the
  /// threshold and never left again.
  [[nodiscard]] bool stabilized() const {
    return stab_armed_ && stab_post_seen_ && stab_candidate_ >= 0;
  }
  /// Recovery latency: first time (minus `after`) from which the spread
  /// stayed inside the threshold; 0 if it never left, -1 if not stabilized.
  [[nodiscard]] double stabilization_time() const {
    return stabilized() ? std::max(0.0, stab_candidate_ - stab_after_) : -1.0;
  }

  [[nodiscard]] double max_skew() const { return max_skew_; }
  [[nodiscard]] double steady_max_skew() const { return steady_max_skew_; }
  [[nodiscard]] RealTime max_skew_time() const { return max_skew_time_; }
  /// Max skew over topology-adjacent pairs (== max_skew when complete).
  [[nodiscard]] double local_skew() const { return local_skew_; }
  [[nodiscard]] double steady_local_skew() const { return steady_local_skew_; }

  /// Decimated (time, spread) series for the skew-trace figure.
  [[nodiscard]] const std::vector<std::pair<RealTime, double>>& series() const {
    return series_;
  }

 private:
  Duration series_interval_;
  std::function<bool(NodeId)> include_;
  RealTime steady_start_ = 0;
  Duration min_sample_gap_ = 0;
  RealTime last_sample_time_ = -1;

  bool stab_armed_ = false;
  RealTime stab_after_ = 0;
  double stab_threshold_ = 0;   ///< <= 0: use stab_pre_max_
  double stab_pre_max_ = 0;     ///< max spread in [steady_start_, stab_after_)
  bool stab_post_seen_ = false;
  RealTime stab_candidate_ = -1;  ///< start of the current inside streak (-1: violating)

  double max_skew_ = 0;
  double steady_max_skew_ = 0;
  double local_skew_ = 0;
  double steady_local_skew_ = 0;
  RealTime max_skew_time_ = 0;
  RealTime last_series_sample_ = -1;
  std::vector<std::pair<RealTime, double>> series_;

  /// Per-node sample scratch for the sparse local-skew pass, sized n. A slot
  /// holds a current value iff gen_[id] == cur_gen_ — bumping cur_gen_
  /// invalidates the whole array in O(1), replacing the old per-sample O(n)
  /// assign.
  std::vector<double> values_;
  std::vector<std::uint64_t> gen_;
  std::uint64_t cur_gen_ = 0;
  /// Rescan-skip cache: the previous sample's per-sample local skew is
  /// reused verbatim when the graph, the sampled set, and every sampled
  /// value are unchanged (exact compares, so reuse is bit-identical).
  bool local_cache_valid_ = false;
  double last_local_ = 0;
  const Topology* last_topology_ = nullptr;
  std::uint32_t last_sampled_count_ = 0;
};

}  // namespace stclock
