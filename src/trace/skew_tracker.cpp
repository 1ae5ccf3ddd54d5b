#include "trace/skew_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stclock {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Slack on every pruning bound, relative to the magnitude of the readings
/// compared: readings, keys and bounds each carry a few ulps of rounding,
/// and 1e-12 covers them thousands of times over while staying far below
/// any spread worth measuring.
constexpr double kRelSlack = 1e-12;

}  // namespace

SkewTracker::SkewTracker(Duration series_interval, std::function<bool(NodeId)> include)
    : series_interval_(series_interval), include_(std::move(include)) {}

void SkewTracker::set_stabilization(RealTime after, double threshold) {
  stab_armed_ = true;
  stab_after_ = after;
  stab_threshold_ = threshold;
}

// --- KeyHeap ---

void SkewTracker::KeyHeap::reset(std::size_t n) {
  ids.clear();
  slot.assign(n, kAbsent);
  key.resize(n);
}

void SkewTracker::KeyHeap::append(NodeId id, double k) {
  key[id] = k;
  slot[id] = static_cast<std::uint32_t>(ids.size());
  ids.push_back(id);
}

void SkewTracker::KeyHeap::heapify() {
  for (std::size_t i = ids.size() / 2; i-- > 0;) sift_down(i);
}

void SkewTracker::KeyHeap::set(NodeId id, double k) {
  if (slot[id] == kAbsent) {
    append(id, k);
    sift_up(ids.size() - 1);
    return;
  }
  key[id] = k;
  sift_up(slot[id]);
  sift_down(slot[id]);
}

void SkewTracker::KeyHeap::erase(NodeId id) {
  const std::uint32_t i = slot[id];
  if (i == kAbsent) return;
  slot[id] = kAbsent;
  const NodeId last = ids.back();
  ids.pop_back();
  if (i == ids.size()) return;
  put(i, last);
  sift_up(i);
  sift_down(slot[last]);
}

void SkewTracker::KeyHeap::put(std::size_t i, NodeId id) {
  ids[i] = id;
  slot[id] = static_cast<std::uint32_t>(i);
}

void SkewTracker::KeyHeap::sift_up(std::size_t i) {
  const NodeId id = ids[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!above(key[id], key[ids[parent]])) break;
    put(i, ids[parent]);
    i = parent;
  }
  put(i, id);
}

void SkewTracker::KeyHeap::sift_down(std::size_t i) {
  const NodeId id = ids[i];
  const std::size_t size = ids.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && above(key[ids[child + 1]], key[ids[child]])) ++child;
    if (!above(key[ids[child]], key[id])) break;
    put(i, ids[child]);
    i = child;
  }
  put(i, id);
}

// --- Slope-band pruning ---

bool SkewTracker::rebuild(const Simulator& sim, RealTime t, double& lo, double& hi) {
  upper_.reset(sim.n());
  lower_.reset(sim.n());
  if (hw_range_of_ != &sim) {
    // Every honest clock's rates count, included or not: a node that boots
    // or integrates later is re-keyed under this band without a rebuild.
    // Hardware trajectories are fixed before the run starts and corruption
    // leaves them alone, so one pass serves the whole run.
    hw_lo_ = kInf;
    hw_hi_ = -kInf;
    for (NodeId id : sim.honest_ids()) {
      const auto [rate_lo, rate_hi] = sim.hardware(id).rate_range();
      hw_lo_ = std::min(hw_lo_, rate_lo);
      hw_hi_ = std::max(hw_hi_, rate_hi);
    }
    hw_range_of_ = &sim;
  }
  slope_lo_ = kInf;
  slope_hi_ = -kInf;
  lo = kInf;
  hi = -kInf;
  for (NodeId id : sim.honest_ids()) {
    if (!included(sim, id)) continue;
    const double c = sim.observe_logical(id, t);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
    const auto [s_lo, s_hi] = sim.logical(id).slope_range_from(sim.hardware(id).read(t));
    slope_lo_ = std::min(slope_lo_, s_lo);
    slope_hi_ = std::max(slope_hi_, s_hi);
    // The reading rides in both heaps until the band is known.
    upper_.append(id, c);
    lower_.append(id, c);
  }
  keyed_ = true;
  keyed_topology_ = sim.current_topology();
  keyed_at_ = t;
  if (upper_.ids.empty()) return false;
  // dC/dt = (logical slope) * (hardware rate): the band is the product of
  // the two ranges.
  const double products[] = {hw_lo_ * slope_lo_, hw_lo_ * slope_hi_, hw_hi_ * slope_lo_,
                             hw_hi_ * slope_hi_};
  r_lo_ = *std::min_element(std::begin(products), std::end(products));
  r_hi_ = *std::max_element(std::begin(products), std::end(products));
  for (NodeId id : upper_.ids) {
    upper_.key[id] -= r_hi_ * t;
    lower_.key[id] -= r_lo_ * t;
  }
  upper_.heapify();
  lower_.heapify();
  return true;
}

bool SkewTracker::rekey(const Simulator& sim, NodeId id, RealTime t) {
  // An event of a corrupted node (the adversary's delivery) moves no honest
  // clock.
  if (sim.is_corrupt(id)) return true;
  if (!included(sim, id)) {
    upper_.erase(id);
    lower_.erase(id);
    return true;
  }
  const LogicalClock& clock = sim.logical(id);
  const auto [s_lo, s_hi] = clock.slope_range_from(clock.hardware().read(t));
  if (s_lo < slope_lo_ || s_hi > slope_hi_) return false;
  const double c = sim.observe_logical(id, t);
  upper_.set(id, c - r_hi_ * t);
  lower_.set(id, c - r_lo_ * t);
  return true;
}

double SkewTracker::walk_extreme(const KeyHeap& heap, double rate, const Simulator& sim,
                                 RealTime t) {
  // Max heap (keys v − r_hi·s): a node keyed k reads at most k + r_hi·t now,
  // so once a reading `best` is in hand every node keyed below
  // best − r_hi·t, less the slack, is out, and so is its whole subtree. The
  // bound only tightens, so a pruned subtree stays pruned. The min heap
  // (keys v − r_lo·s, lower bounds k + r_lo·t) mirrors it.
  const double sign = heap.max_top ? 1 : -1;
  double best = -sign * kInf;
  double bound = -sign * kInf;
  walk_.assign(1, 0);
  while (!walk_.empty()) {
    const std::uint32_t i = walk_.back();
    walk_.pop_back();
    const NodeId id = heap.ids[i];
    if (heap.above(bound, heap.key[id])) continue;
    const double c = sim.observe_logical(id, t);
    if (heap.above(c, best)) {
      best = c;
      bound = best - rate * t - sign * kRelSlack * (1 + std::abs(best) + r_hi_ * t);
    }
    for (std::uint32_t child = 2 * i + 1; child <= 2 * i + 2 && child < heap.ids.size();
         ++child) {
      walk_.push_back(child);
    }
  }
  return best;
}

bool SkewTracker::decimated(RealTime t) const {
  // The first sample of the stabilization watch is never decimated: it
  // decides whether the spread stayed inside from the event on.
  const bool stab_first = stab_armed_ && !stab_post_seen_ && t >= stab_after_;
  return min_sample_gap_ > 0 && last_sample_time_ >= 0 && t - last_sample_time_ < min_sample_gap_ &&
         !stab_first;
}

void SkewTracker::sample_banded(const Simulator& sim, RealTime t) {
  // Keys follow every event, decimated calls included.
  const std::uint64_t events = sim.events_dispatched();
  const NodeId node = sim.last_event_node();
  const bool one_node_event = events == seen_events_ + 1 && node != Simulator::kNoNode;
  seen_events_ = events;
  const bool current = keyed_ && sim.current_topology() == keyed_topology_ && one_node_event &&
                       t - keyed_at_ < series_interval_ && rekey(sim, node, t);
  double lo = 0, hi = 0;
  bool measured = false;  // some node is included
  if (!current) measured = rebuild(sim, t, lo, hi);
  if (decimated(t)) {
    last_spread_ = -1;
    return;
  }
  if (current && !upper_.ids.empty()) {
    hi = walk_extreme(upper_, r_hi_, sim, t);
    lo = walk_extreme(lower_, r_lo_, sim, t);
    measured = true;
  }
  if (!measured) {  // nothing to measure yet
    last_spread_ = -1;
    return;
  }
  // Every pair is adjacent: the local skew is the spread.
  record(t, hi - lo, hi - lo);
}

void SkewTracker::sample(const Simulator& sim) {
  const RealTime t = sim.now();
  // The adjacency live RIGHT NOW: on a dynamic topology this moves with the
  // epoch schedule, so local skew is always measured against the links that
  // existed at sampling time. Adjacent-pair skew only needs the per-node
  // readings when the graph is sparse; on a complete topology every pair is
  // adjacent, so the local skew IS the spread and the O(E) pass is skipped.
  const Topology* topology = sim.current_topology();
  const bool sparse = !topology->is_complete();
  if (!sparse && sim.params().sim_threads == 1) {
    sample_banded(sim, t);
    return;
  }
  keyed_ = false;
  if (decimated(t)) {
    last_spread_ = -1;
    return;
  }
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
    if (!included(sim, id)) continue;
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
  if (first) {  // nothing to measure yet
    last_spread_ = -1;
    return;
  }

  const double spread = hi - lo;
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
  record(t, spread, local);
}

void SkewTracker::record(RealTime t, double spread, double local) {
  last_sample_time_ = t;
  last_spread_ = spread;
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

  local_skew_ = std::max(local_skew_, local);
  if (t >= steady_start_) steady_local_skew_ = std::max(steady_local_skew_, local);

  if (last_series_sample_ < 0 || t - last_series_sample_ >= series_interval_) {
    series_.emplace_back(t, spread);
    last_series_sample_ = t;
  }
}

}  // namespace stclock
