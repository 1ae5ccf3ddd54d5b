#pragma once

#include <utility>
#include <vector>

#include "util/types.h"

/// Hardware clocks in the Srikanth–Toueg model.
///
/// A hardware clock is a strictly increasing, piecewise-linear map
/// H : real time -> local time whose rate stays within
/// [1/(1+rho), 1+rho]. The adversary (or a drift model) fixes the whole
/// trajectory up front; protocols may only *read* the clock. Because H is
/// strictly increasing it is invertible, which the simulator uses to turn
/// "wake me when my clock reads L" into a real-time event.
///
/// Read cache. `read(t)` is inline: the clock keeps a copy of its live
/// segment (`live_`) and the next segment's start (`live_next_`, +inf for
/// the last one), and a read with live_.real_start <= t < live_next_
/// evaluates the segment's expression on that copy without searching. Any
/// other t takes the out-of-line search, which refreshes the copy. Both
/// paths evaluate `local_at`, so a hit and a search give the same bits.
/// `set_rate_from` invalidates the copy (live_next_ = -inf, so every t
/// misses), as does construction. A hit needs t >= live_.real_start >= 0,
/// so negative times still reach the search and still throw.
///
/// The copy is written on read through `mutable` members, so a clock is not
/// safe to read from two threads at once. Today no clock is: simulations
/// own their clocks, and the parallel engine (sim/simulator_parallel.cpp)
/// alternates two phases behind a barrier. In its execute phase a node's
/// clock is read only by the worker that owns the node; in its commit phase
/// only the main thread reads clocks. Deleting the parallel engine (ROADMAP
/// item 3) removes the need for this two-phase argument.
namespace stclock {

class HardwareClock {
 public:
  /// A clock starting at local value `initial` with rate `rate` from real
  /// time 0.
  explicit HardwareClock(LocalTime initial = 0.0, double rate = 1.0);

  /// Appends a rate change taking effect at real time `from`. Segments must
  /// be appended in increasing real-time order; rates must be positive.
  void set_rate_from(RealTime from, double rate);

  /// H(t): local reading at real time t >= 0.
  [[nodiscard]] LocalTime read(RealTime t) const {
    if (live_.real_start <= t && t < live_next_) return local_at(live_, t);
    return read_slow(t);
  }

  /// Inverse: the unique real time at which the clock reads `local`.
  /// Requires local >= initial value.
  [[nodiscard]] RealTime when_reads(LocalTime local) const;

  /// Instantaneous rate at real time t (right-continuous at breakpoints).
  [[nodiscard]] double rate_at(RealTime t) const;

  [[nodiscard]] LocalTime initial_value() const { return segments_.front().local_start; }

  /// Smallest and largest segment rate of the whole trajectory: a bound on
  /// the clock's rate at every real time, past or future.
  [[nodiscard]] std::pair<double, double> rate_range() const;

  /// True iff every segment rate lies within [1/(1+rho), 1+rho] (with a tiny
  /// tolerance for round-off). Drift models assert this after construction.
  [[nodiscard]] bool respects_drift_bound(double rho) const;

 private:
  struct Segment {
    RealTime real_start;
    LocalTime local_start;
    double rate;
  };

  /// Tests compare the cached read with the search through this.
  friend struct ClockCacheProbe;

  [[nodiscard]] static LocalTime local_at(const Segment& s, RealTime t) {
    return s.local_start + s.rate * (t - s.real_start);
  }

  /// Index of the segment containing real time t.
  [[nodiscard]] std::size_t segment_at(RealTime t) const;

  /// The search behind a cache miss: refreshes the live copy, then reads.
  [[nodiscard]] LocalTime read_slow(RealTime t) const;

  std::vector<Segment> segments_;
  mutable Segment live_{};
  mutable RealTime live_next_ = -kTimeInfinity;
};

}  // namespace stclock
