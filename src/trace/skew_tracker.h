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
/// Complete topology, sequential engine: slope-band pruning. The spread is
/// max − min over the included nodes, and only the nodes that can still be
/// the max or the min are read. Each included node holds a key: its reading
/// v at its re-key time s. Every keyed clock's slope dC/dt lies in one band
/// [r_lo, r_hi]: the fleet's hardware rate range times the range of logical
/// slopes the keyed nodes have live (an amortized ramp is appended, end
/// piece included, when it starts). So at any t >= s a node reads within
/// [v + r_lo·(t − s), v + r_hi·(t − s)], and the keys v − r_hi·s (max heap)
/// and v − r_lo·s (min heap) do not depend on t. A sample walks each heap
/// from its top and reads nodes until the invariant closes the walk: no
/// unread node's upper bound reaches the largest reading so far (max side),
/// and no unread lower bound falls below the smallest (min side), with a
/// relative slack of 1e-12 for rounding. max and min are exact, so the
/// spread, the series and every result byte equal the full scan's.
///
/// A node's clock, start flag and integration state change only at its own
/// events (Simulator::last_event_node) or at fleet-wide ones. So a call that
/// follows exactly one node event re-keys that node alone; every other call
/// rebuilds all keys with one full scan. That covers fleet-wide events
/// (churn stop, epoch switch, corruption, adversary timer), a topology
/// change, zero or several events since the previous call (the runner's
/// stepping-loop samples), a re-keyed node whose logical slopes leave the
/// band, and at least one rebuild per series_interval, which re-tightens the
/// band. Re-keying and rebuilds run on every call, decimated ones included.
/// The `include` predicate, like the simulator's include probe, must change
/// only at the node's own events.
///
/// Sparse graphs and the parallel engine (sim_threads > 1) keep the full
/// scan: every honest node is read at every sample. The sparse pass is built
/// to survive n = 10^6: per-node scratch is marked with a generation counter
/// (no O(n) re-zeroing per sample), and the O(E) adjacent-pair rescan is
/// skipped entirely — reusing the previous result bit-for-bit — when the
/// sampled set, every sampled value, and the live graph are all unchanged
/// since the last sample. Every node carries its 16 bytes of scratch at
/// every n, so local skew covers every adjacent pair.
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
  /// one are dropped wholesale, except the first sample at or after the
  /// stabilization watch's start (set_stabilization), which always counts.
  /// At n >= the scale threshold the per-event O(n) value sweep is what
  /// dominates a run, and event densities make per-event sampling
  /// redundant; the runner engages this only for fleets far above
  /// everything the golden suite pins. 0 (the default) keeps the
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
  /// The spread the latest sample() call measured; -1 when that call was
  /// decimated or found no included node.
  [[nodiscard]] double last_spread() const { return last_spread_; }

  /// Decimated (time, spread) series for the skew-trace figure.
  [[nodiscard]] const std::vector<std::pair<RealTime, double>>& series() const {
    return series_;
  }

 private:
  /// Binary heap of node ids over a per-node key, the max on top when
  /// `max_top`, else the min; `slot` finds a node's entry, so re-keying one
  /// node costs O(log n). A rebuild is one O(n) heapify with no allocation;
  /// an ordered std::set per side, which allocates per entry and sorts on
  /// every rebuild, made byz_256 ~19% slower end to end.
  struct KeyHeap {
    static constexpr std::uint32_t kAbsent = 0xffffffffu;
    explicit KeyHeap(bool top) : max_top(top) {}
    bool max_top;
    std::vector<NodeId> ids;
    std::vector<std::uint32_t> slot;  ///< per node: index into ids, or kAbsent
    std::vector<double> key;          ///< per node

    void reset(std::size_t n);
    /// Appends without ordering; heapify() restores the heap.
    void append(NodeId id, double k);
    void heapify();
    void set(NodeId id, double k);
    void erase(NodeId id);
    [[nodiscard]] bool above(double a, double b) const { return max_top ? a > b : a < b; }
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
    void put(std::size_t i, NodeId id);
  };

  /// Whether honest node `id` counts now. observe_* rather than
  /// is_started/logical: mid-window under the parallel engine these report
  /// the committed pre-state, keeping hook-driven samples bit-identical to
  /// the sequential engine. Defined here so the full scan's loop inlines it.
  [[nodiscard]] bool included(const Simulator& sim, NodeId id) const {
    if (!sim.observe_started(id)) return false;
    return include_ ? include_(id) : sim.observe_include(id);
  }
  /// True when a sample at `t` is dropped by the minimum sample gap.
  [[nodiscard]] bool decimated(RealTime t) const;
  /// sample() on a complete topology with the sequential engine.
  void sample_banded(const Simulator& sim, RealTime t);
  /// Folds one measured sample into every statistic.
  void record(RealTime t, double spread, double local);
  /// Full scan: reads every included node into hi/lo, re-keys all of them
  /// and re-derives the band. Returns false when no node is included.
  bool rebuild(const Simulator& sim, RealTime t, double& lo, double& hi);
  /// Re-keys `id` after its own event; false when its live logical slopes
  /// leave the band, which needs a rebuild.
  bool rekey(const Simulator& sim, NodeId id, RealTime t);
  /// The pruned read of one side: walks `heap` from its top, reading only
  /// nodes whose bound at `rate` can still beat the best reading, and
  /// returns the max (max heap) or min (min heap) over the included nodes.
  double walk_extreme(const KeyHeap& heap, double rate, const Simulator& sim, RealTime t);

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

  /// Slope-band state (complete topology, sequential engine). The keys are
  /// valid iff keyed_ and the graph is still keyed_topology_.
  bool keyed_ = false;
  const Topology* keyed_topology_ = nullptr;
  RealTime keyed_at_ = 0;        ///< time of the last rebuild
  std::uint64_t seen_events_ = 0;  ///< events_dispatched() at the last call
  const Simulator* hw_range_of_ = nullptr;  ///< the run hw_lo_/hw_hi_ belong to
  double hw_lo_ = 1, hw_hi_ = 1;  ///< honest hardware segment rates, whole run
  double slope_lo_ = 1, slope_hi_ = 1;  ///< logical slopes live on keyed nodes
  double r_lo_ = 1, r_hi_ = 1;  ///< the band: honest hardware rates times slopes
  KeyHeap upper_{true};   ///< key v − r_hi·s, max on top
  KeyHeap lower_{false};  ///< key v − r_lo·s, min on top
  std::vector<std::uint32_t> walk_;   ///< heap-walk stack, reused

  double last_spread_ = -1;  ///< see last_spread()
};

}  // namespace stclock
