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
  [[nodiscard]] LocalTime read(RealTime t) const;

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

  /// Index of the segment containing real time t.
  [[nodiscard]] std::size_t segment_at(RealTime t) const;

  std::vector<Segment> segments_;
};

}  // namespace stclock
