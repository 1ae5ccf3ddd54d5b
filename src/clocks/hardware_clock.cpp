#include "clocks/hardware_clock.h"

#include <algorithm>

#include "util/contracts.h"

namespace stclock {

HardwareClock::HardwareClock(LocalTime initial, double rate) {
  ST_REQUIRE(rate > 0, "HardwareClock: rate must be positive");
  segments_.push_back(Segment{0.0, initial, rate});
}

void HardwareClock::set_rate_from(RealTime from, double rate) {
  ST_REQUIRE(rate > 0, "HardwareClock: rate must be positive");
  const Segment& last = segments_.back();
  ST_REQUIRE(from >= last.real_start, "HardwareClock: segments must be appended in order");
  live_next_ = -kTimeInfinity;
  if (from == last.real_start) {
    segments_.back().rate = rate;
    return;
  }
  const LocalTime local = last.local_start + last.rate * (from - last.real_start);
  segments_.push_back(Segment{from, local, rate});
}

std::size_t HardwareClock::segment_at(RealTime t) const {
  ST_REQUIRE(t >= 0, "HardwareClock: negative real time");
  // Last segment with real_start <= t.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t,
                             [](RealTime v, const Segment& s) { return v < s.real_start; });
  ST_ASSERT(it != segments_.begin(), "HardwareClock: no segment covers t");
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

LocalTime HardwareClock::read_slow(RealTime t) const {
  const std::size_t i = segment_at(t);
  live_ = segments_[i];
  live_next_ = i + 1 < segments_.size() ? segments_[i + 1].real_start : kTimeInfinity;
  return local_at(live_, t);
}

RealTime HardwareClock::when_reads(LocalTime local) const {
  ST_REQUIRE(local >= segments_.front().local_start,
             "HardwareClock: local time precedes clock start");
  // Last segment with local_start <= local; strict monotonicity makes the
  // answer unique.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), local,
                             [](LocalTime v, const Segment& s) { return v < s.local_start; });
  const Segment& s = *std::prev(it);
  return s.real_start + (local - s.local_start) / s.rate;
}

double HardwareClock::rate_at(RealTime t) const { return segments_[segment_at(t)].rate; }

std::pair<double, double> HardwareClock::rate_range() const {
  const auto [lo, hi] = std::minmax_element(
      segments_.begin(), segments_.end(),
      [](const Segment& a, const Segment& b) { return a.rate < b.rate; });
  return {lo->rate, hi->rate};
}

bool HardwareClock::respects_drift_bound(double rho) const {
  constexpr double kTol = 1e-12;
  const double lo = 1.0 / (1.0 + rho) - kTol;
  const double hi = (1.0 + rho) + kTol;
  return std::all_of(segments_.begin(), segments_.end(),
                     [&](const Segment& s) { return s.rate >= lo && s.rate <= hi; });
}

}  // namespace stclock
