#include "trace/skew_tracker.h"

#include <algorithm>
#include <cmath>

namespace stclock {

SkewTracker::SkewTracker(Duration series_interval, std::function<bool(NodeId)> include)
    : series_interval_(series_interval), include_(std::move(include)) {}

void SkewTracker::set_stabilization(RealTime after, double threshold) {
  stab_armed_ = true;
  stab_after_ = after;
  stab_threshold_ = threshold;
}

void SkewTracker::sample(const Simulator& sim) {
  const RealTime t = sim.now();
  if (min_sample_gap_ > 0 && last_sample_time_ >= 0 &&
      t - last_sample_time_ < min_sample_gap_) {
    return;
  }
  // The adjacency live RIGHT NOW: on a dynamic topology this moves with the
  // epoch schedule, so local skew is always measured against the links that
  // existed at sampling time. Adjacent-pair skew only needs the per-node
  // readings when the graph is sparse; on a complete topology every pair is
  // adjacent, so the local skew IS the spread and the O(E) pass is skipped.
  const Topology* topology = sim.current_topology();
  const bool sparse = !topology->is_complete();
  const std::uint64_t prev_gen = cur_gen_;
  if (sparse) {
    values_.resize(sim.n());
    gen_.resize(sim.n(), 0);
    ++cur_gen_;
  }

  double lo = 0, hi = 0;
  bool first = true;
  std::uint32_t sampled_count = 0;
  bool set_grew = false;       // a node sampled now that was not last time
  bool value_changed = false;  // a re-sampled node read a different value
  for (NodeId id : sim.honest_ids()) {
    // observe_* rather than is_started/logical: mid-window under the parallel
    // engine these report the committed pre-state, keeping hook-driven samples
    // bit-identical to the sequential engine.
    if (!sim.observe_started(id)) continue;
    if (include_ ? !include_(id) : !sim.observe_include(id)) continue;
    const double c = sim.observe_logical(id, t);
    if (sparse) {
      if (gen_[id] != prev_gen) {
        set_grew = true;
      } else if (values_[id] != c) {
        value_changed = true;
      }
      values_[id] = c;
      gen_[id] = cur_gen_;
      ++sampled_count;
    }
    if (first) {
      lo = hi = c;
      first = false;
    } else {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  if (first) return;  // nothing to measure yet
  last_sample_time_ = t;

  const double spread = hi - lo;
  if (spread > max_skew_) {
    max_skew_ = spread;
    max_skew_time_ = t;
  }
  if (t >= steady_start_) steady_max_skew_ = std::max(steady_max_skew_, spread);

  if (stab_armed_) {
    if (t < stab_after_) {
      // Pre-corruption reference for the auto threshold: how tight the run
      // was once past its convergence prefix.
      if (t >= steady_start_) stab_pre_max_ = std::max(stab_pre_max_, spread);
    } else {
      stab_post_seen_ = true;
      const double threshold = stab_threshold_ > 0 ? stab_threshold_ : stab_pre_max_;
      if (spread > threshold) {
        stab_candidate_ = -1;  // violating: any inside streak is void
      } else if (stab_candidate_ < 0) {
        stab_candidate_ = t;  // a new inside streak begins here
      }
    }
  }

  double local = spread;
  if (sparse) {
    // Counts equal with no additions means no drops either, so the sampled
    // set is exactly last sample's; identical values over an identical
    // graph make the rescan a pure recomputation — reuse its result.
    const bool same_set = !set_grew && sampled_count == last_sampled_count_;
    if (local_cache_valid_ && topology == last_topology_ && same_set && !value_changed) {
      local = last_local_;
    } else {
      local = 0;
      for (NodeId a : sim.honest_ids()) {
        if (gen_[a] != cur_gen_) continue;
        const auto [nbrs, degree] = topology->neighbor_span(a);
        for (std::size_t i = 0; i < degree; ++i) {
          const NodeId b = nbrs[i];
          if (b > a && gen_[b] == cur_gen_) {
            local = std::max(local, std::abs(values_[a] - values_[b]));
          }
        }
      }
      last_local_ = local;
      local_cache_valid_ = true;
    }
    last_topology_ = topology;
    last_sampled_count_ = sampled_count;
  }
  local_skew_ = std::max(local_skew_, local);
  if (t >= steady_start_) steady_local_skew_ = std::max(steady_local_skew_, local);

  if (last_series_sample_ < 0 || t - last_series_sample_ >= series_interval_) {
    series_.emplace_back(t, spread);
    last_series_sample_ = t;
  }
}

}  // namespace stclock
