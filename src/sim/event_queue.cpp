#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"

namespace stclock {

namespace {

constexpr RealTime kInf = std::numeric_limits<RealTime>::infinity();

/// The one total order everything here serves: (time, seq) ascending.
bool entry_before(const RealTime ta, const std::uint64_t sa, const RealTime tb,
                  const std::uint64_t sb) {
  if (ta != tb) return ta < tb;
  return sa < sb;
}

}  // namespace

void EventQueue::reserve(std::size_t events) {
  slab_.reserve(events);
  free_slots_.reserve(events);
  top_.reserve(events);
}

void EventQueue::push_timer(RealTime time, TimerEvent ev) {
  ST_REQUIRE(time >= 0, "EventQueue: negative event time");
  push_entry(time, Entry{time, next_seq_++, ev.id, ev.node, true});
}

void EventQueue::push_delivery(RealTime time, DeliveryEvent ev) {
  ST_REQUIRE(time >= 0, "EventQueue: negative event time");
  ST_REQUIRE(ev.msg != nullptr, "EventQueue: null message");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(ev));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(ev);
  }
  push_entry(time, Entry{time, next_seq_++, 0, slot, false});
}

void EventQueue::push_entry(RealTime time, Entry e) {
  ST_REQUIRE(time >= last_pop_time_,
             "EventQueue: push earlier than the last pop (the simulator only "
             "schedules into the future)");
  if (time < bot_end_) {
    // Within the bottom list's window. The new entry carries the largest
    // seq, so a push at or past the current tail time appends in O(1) —
    // which covers the common same-time cohort storm exactly.
    if (bottom_.size() == bot_head_ || !(time < bottom_.back().time)) {
      bottom_.push_back(e);
    } else {
      const auto it =
          std::upper_bound(bottom_.begin() + static_cast<std::ptrdiff_t>(bot_head_),
                           bottom_.end(), time,
                           [](RealTime t, const Entry& x) { return t < x.time; });
      bottom_.insert(it, e);
    }
    maybe_rebalance_bottom();
  } else {
    bool placed = false;
    for (auto it = rungs_.rbegin(); it != rungs_.rend(); ++it) {
      if (time < it->end) {
        const std::size_t nb = it->buckets.size();
        const std::size_t idx = std::min(raw_index(*it, time), nb - 1);
        ST_ASSERT(idx >= it->cur, "EventQueue: routed into a drained bucket");
        it->buckets[idx].push_back(e);
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (top_.empty()) {
        top_min_ = top_max_ = time;
      } else {
        top_min_ = std::min(top_min_, time);
        top_max_ = std::max(top_max_, time);
      }
      top_.push_back(e);
    }
  }
  ++size_;
}

void EventQueue::maybe_rebalance_bottom() {
  // Only the rung-less regime can grow the bottom without bound (bot_end_ is
  // infinite after a wholesale top transfer); with rungs armed the window is
  // one bucket wide. Push the tail back out to the top — cheap, unsorted —
  // keeping at least kBottomKeep entries and never splitting a time cohort.
  if (!rungs_.empty() || bottom_active() <= kBottomOverflow) return;
  const Entry& keep_last = bottom_[bot_head_ + kBottomKeep - 1];
  if (!(keep_last.time < bottom_.back().time)) return;  // one cohort, nothing to move
  const auto split =
      std::upper_bound(bottom_.begin() + static_cast<std::ptrdiff_t>(bot_head_ + kBottomKeep),
                       bottom_.end(), keep_last.time,
                       [](RealTime t, const Entry& x) { return t < x.time; });
  for (auto it = split; it != bottom_.end(); ++it) {
    if (top_.empty()) {
      top_min_ = top_max_ = it->time;
    } else {
      top_min_ = std::min(top_min_, it->time);
      top_max_ = std::max(top_max_, it->time);
    }
    top_.push_back(*it);
  }
  bot_end_ = split->time;
  bottom_.erase(split, bottom_.end());
}

std::size_t EventQueue::raw_index(const Rung& r, RealTime t) {
  const double v = std::floor((t - r.start) / r.width);
  if (v <= 0) return 0;
  return static_cast<std::size_t>(v);
}

RealTime EventQueue::bucket_boundary(const Rung& r, std::size_t k) {
  // start + k * width is only approximately the boundary; nudge by ulps
  // until it is the exact smallest time that indexes into bucket k. floor
  // and the subtract/divide are monotone, so the walk is well-defined.
  RealTime c = r.start + static_cast<double>(k) * r.width;
  while (raw_index(r, c) < k) c = std::nextafter(c, kInf);
  for (;;) {
    const RealTime p = std::nextafter(c, -kInf);
    if (p < r.start || raw_index(r, p) < k) break;
    c = p;
  }
  return c;
}

void EventQueue::ensure_bottom() {
  while (bot_head_ == bottom_.size()) {
    bottom_.clear();
    bot_head_ = 0;
    if (!rungs_.empty()) {
      refill_from_rung();
    } else {
      ST_ASSERT(!top_.empty(), "EventQueue: size_ > 0 but no entries staged");
      transfer_top();
    }
  }
}

void EventQueue::refill_from_rung() {
  Rung& r = rungs_.back();
  const std::size_t nb = r.buckets.size();
  while (r.cur < nb && r.buckets[r.cur].empty()) ++r.cur;
  if (r.cur == nb) {
    rungs_.pop_back();
    return;
  }
  std::vector<Entry>& bucket = r.buckets[r.cur];
  const RealTime lower = r.cur == 0 ? r.start : bucket_boundary(r, r.cur);
  const RealTime upper = r.cur + 1 == nb ? r.end : bucket_boundary(r, r.cur + 1);

  if (bucket.size() > kSpawnThreshold && rungs_.size() < kMaxRungs) {
    RealTime mn = bucket.front().time, mx = bucket.front().time;
    for (const Entry& e : bucket) {
      mn = std::min(mn, e.time);
      mx = std::max(mx, e.time);
    }
    const std::size_t cnb = std::clamp(bucket.size(), kMinBuckets, kMaxBuckets);
    const double w = (upper - lower) / static_cast<double>(cnb);
    // A bucket of identical times cannot subdivide (and needs no sorting
    // beyond seq); a width that rounds away cannot either.
    if (mx > mn && lower + w > lower) {
      Rung child;
      child.start = lower;
      child.width = w;
      child.end = upper;
      child.buckets.resize(cnb);
      for (const Entry& e : bucket) {
        child.buckets[std::min(raw_index(child, e.time), cnb - 1)].push_back(e);
      }
      bucket.clear();
      bucket.shrink_to_fit();
      ++r.cur;  // the parent bucket's interval now belongs to the child
      rungs_.push_back(std::move(child));
      return;  // ensure_bottom loops and drains the child instead
    }
  }

  std::sort(bucket.begin(), bucket.end(), [](const Entry& a, const Entry& b) {
    return entry_before(a.time, a.seq, b.time, b.seq);
  });
  bottom_ = std::move(bucket);
  bucket = std::vector<Entry>{};  // leave the moved-from slot truly empty
  ++r.cur;
  bot_end_ = upper;
}

void EventQueue::transfer_top() {
  if (top_.size() <= kSpawnThreshold || !(top_min_ < top_max_)) {
    std::sort(top_.begin(), top_.end(), [](const Entry& a, const Entry& b) {
      return entry_before(a.time, a.seq, b.time, b.seq);
    });
    bottom_ = std::move(top_);
    top_ = std::vector<Entry>{};
    // Nothing is staged beyond the bottom list now, so it owns all time;
    // maybe_rebalance_bottom sheds back to the top if pushes pile up.
    bot_end_ = kInf;
    return;
  }
  Rung rung;
  rung.start = top_min_;
  // nextafter so a future push at exactly top_max_ still routes into the
  // rung (its interval is half-open).
  rung.end = std::nextafter(top_max_, kInf);
  const std::size_t nb = std::clamp(top_.size(), kMinBuckets, kMaxBuckets);
  rung.width = (rung.end - rung.start) / static_cast<double>(nb);
  if (!(rung.start + rung.width > rung.start)) {
    // Range too narrow to bucket (a few ulps): degrade to the direct sort.
    std::sort(top_.begin(), top_.end(), [](const Entry& a, const Entry& b) {
      return entry_before(a.time, a.seq, b.time, b.seq);
    });
    bottom_ = std::move(top_);
    top_ = std::vector<Entry>{};
    bot_end_ = kInf;
    return;
  }
  rung.buckets.resize(nb);
  for (const Entry& e : top_) {
    rung.buckets[std::min(raw_index(rung, e.time), nb - 1)].push_back(e);
  }
  top_.clear();
  rungs_.push_back(std::move(rung));
}

RealTime EventQueue::next_time() {
  ST_REQUIRE(size_ > 0, "EventQueue: next_time on empty queue");
  ensure_bottom();
  return bottom_[bot_head_].time;
}

Event EventQueue::pop() {
  ST_REQUIRE(size_ > 0, "EventQueue: pop on empty queue");
  ensure_bottom();
  const Entry top = bottom_[bot_head_++];
  if (bot_head_ == bottom_.size()) {
    bottom_.clear();
    bot_head_ = 0;
  }
  --size_;
  last_pop_time_ = top.time;

  Event e;
  e.time = top.time;
  e.seq = top.seq;
  e.is_timer = top.is_timer;
  if (top.is_timer) {
    e.timer = TimerEvent{top.node_or_slot, top.timer_id};
  } else {
    e.delivery = std::move(slab_[top.node_or_slot]);
    free_slots_.push_back(top.node_or_slot);
  }
  return e;
}

bool EventQueue::pop_window(RealTime end_exclusive, RealTime horizon, Event& out) {
  if (size_ == 0) return false;
  const RealTime t = next_time();
  if (t >= end_exclusive || t > horizon) return false;
  out = pop();
  return true;
}

}  // namespace stclock
