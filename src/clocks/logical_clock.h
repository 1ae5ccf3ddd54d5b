#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "clocks/hardware_clock.h"
#include "util/types.h"

/// Logical (synchronized) clocks: C(t) = correction(H(t)).
///
/// A logical clock is a piecewise-linear map from *hardware* local time h to
/// logical time L(h). It starts as the identity, and the synchronization
/// protocol modifies it going forward in hardware time:
///
///  - `adjust_instant` introduces a discontinuity (the paper's C := kP + α),
///    which may move the clock forward or — by a small bounded amount —
///    backward;
///  - `adjust_amortized` spreads the correction over a window by running the
///    logical clock slightly faster/slower, yielding a continuous, monotone
///    clock (the standard smoothing technique the paper refers to).
///
/// All adjustments must be appended in increasing hardware time; the class
/// records the full history so experiments can audit every correction.
///
/// Read cache. `read_at_hardware(h)` is inline: the clock keeps a copy of
/// its live piece (`live_`) and the next piece's start (`live_next_`, +inf
/// for the last one), and a read with live_.h_start <= h < live_next_
/// evaluates the piece's expression on that copy without searching; any
/// other h takes the out-of-line search, which refreshes the copy. Both
/// paths evaluate `value_at`, so a hit and a search give the same bits.
/// `read(t)` is the hardware clock's cached read followed by this one.
/// Every adjustment (`adjust_instant`, `adjust_amortized`, `adjust_override`,
/// including the override's pop of a ramp still in flight) goes through
/// `record()`, which invalidates the copy (live_next_ = -inf, so every h
/// misses), as does construction. A hit needs h >= live_.h_start >= the
/// clock's start, so reads before the start still reach the search and
/// still throw.
///
/// As with HardwareClock, the copy is written on read, so a clock is not
/// safe to read from two threads at once. Today no clock is: the parallel
/// engine reads a node's clock only from the worker that owns the node in
/// its execute phase, and only from the main thread in its commit phase,
/// with a barrier between the two. Deleting the parallel engine (ROADMAP
/// item 3) removes the need for this two-phase argument.
namespace stclock {

class LogicalClock {
 public:
  /// A logical clock that initially mirrors the hardware clock (L(h) = h).
  /// The clock keeps a pointer to `hw`, which must outlive it.
  explicit LogicalClock(const HardwareClock& hw);

  /// Logical reading at hardware time h (right-continuous at jumps).
  [[nodiscard]] LocalTime read_at_hardware(LocalTime h) const {
    if (live_.h_start <= h && h < live_next_) return value_at(live_, h);
    return read_slow(h);
  }

  /// Logical reading at real time t.
  [[nodiscard]] LocalTime read(RealTime t) const { return read_at_hardware(hw_->read(t)); }

  /// Applies `delta` instantaneously at hardware time h_now.
  void adjust_instant(LocalTime h_now, Duration delta);

  /// Applies `delta` by modulating the logical rate over the next `window`
  /// hardware time units starting at h_now. Requires window > 0 and, for
  /// negative deltas, |delta| < window (so the logical clock keeps a
  /// positive rate and stays monotone).
  void adjust_amortized(LocalTime h_now, Duration delta, Duration window);

  /// Hard overwrite: like adjust_instant, but any pieces scheduled after
  /// h_now (an amortized ramp still in flight) are discarded first, so it
  /// never trips the forward-only invariant. Used where the correction
  /// state is being *replaced* rather than refined: fault injection
  /// (corruption rewrites memory wholesale) and self-stabilizing recovery
  /// (a repair must not be blocked by a pending smooth correction).
  void adjust_override(LocalTime h_now, Duration delta);

  /// First real time >= `now` at which the logical clock reads `target`.
  /// If the clock already reads >= target at `now`, returns `now`. Valid
  /// only with respect to adjustments applied so far; callers that adjust
  /// later must re-query (the sync protocol re-arms its round timer after
  /// every adjustment).
  [[nodiscard]] RealTime when_reads(RealTime now, LocalTime target) const;

  /// Effective logical rate dL/dt at real time t.
  [[nodiscard]] double rate_at(RealTime t) const;

  /// Smallest and largest slope dL/dh over the piece live at hardware time
  /// h and every piece after it (an amortized ramp appends its end piece up
  /// front). Until the next adjustment, the clock's slope at any hardware
  /// time >= h lies inside this range.
  [[nodiscard]] std::pair<double, double> slope_range_from(LocalTime h) const;

  [[nodiscard]] const HardwareClock& hardware() const { return *hw_; }

  /// Total signed correction applied so far.
  [[nodiscard]] Duration total_adjustment() const { return total_adjustment_; }
  [[nodiscard]] std::size_t adjustment_count() const { return adjustment_count_; }
  /// Largest single |delta|.
  [[nodiscard]] Duration max_abs_adjustment() const { return max_abs_adjustment_; }

 private:
  struct Piece {
    LocalTime h_start;   // hardware time where this piece begins
    LocalTime value;     // logical value at h_start (right limit)
    double slope;        // dL/dh within the piece
  };

  /// Tests compare the cached read with the search through this.
  friend struct ClockCacheProbe;

  [[nodiscard]] static LocalTime value_at(const Piece& p, LocalTime h) {
    return p.value + p.slope * (h - p.h_start);
  }

  [[nodiscard]] std::size_t piece_at(LocalTime h) const;
  /// The search behind a cache miss: refreshes the live copy, then reads.
  [[nodiscard]] LocalTime read_slow(LocalTime h) const;
  /// Books an adjustment and invalidates the live copy.
  void record(Duration delta);

  const HardwareClock* hw_;
  std::vector<Piece> pieces_;
  mutable Piece live_{};
  mutable LocalTime live_next_ = -kTimeInfinity;
  Duration total_adjustment_ = 0;
  Duration max_abs_adjustment_ = 0;
  std::size_t adjustment_count_ = 0;
};

}  // namespace stclock
