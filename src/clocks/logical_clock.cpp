#include "clocks/logical_clock.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace stclock {

LogicalClock::LogicalClock(const HardwareClock& hw) : hw_(&hw) {
  const LocalTime h0 = hw.initial_value();
  pieces_.push_back(Piece{h0, h0, 1.0});
}

std::size_t LogicalClock::piece_at(LocalTime h) const {
  ST_REQUIRE(h >= pieces_.front().h_start, "LogicalClock: hardware time precedes clock start");
  auto it = std::upper_bound(pieces_.begin(), pieces_.end(), h,
                             [](LocalTime v, const Piece& p) { return v < p.h_start; });
  return static_cast<std::size_t>(std::distance(pieces_.begin(), it)) - 1;
}

LocalTime LogicalClock::read_slow(LocalTime h) const {
  const std::size_t i = piece_at(h);
  live_ = pieces_[i];
  live_next_ = i + 1 < pieces_.size() ? pieces_[i + 1].h_start : kTimeInfinity;
  return value_at(live_, h);
}

void LogicalClock::record(Duration delta) {
  live_next_ = -kTimeInfinity;
  total_adjustment_ += delta;
  max_abs_adjustment_ = std::max(max_abs_adjustment_, std::abs(delta));
  ++adjustment_count_;
}

void LogicalClock::adjust_instant(LocalTime h_now, Duration delta) {
  ST_REQUIRE(h_now >= pieces_.back().h_start,
             "LogicalClock: adjustments must move forward in hardware time");
  const LocalTime value_now = read_at_hardware(h_now);
  const double tail_slope = pieces_.back().slope;
  pieces_.push_back(Piece{h_now, value_now + delta, tail_slope});
  record(delta);
}

void LogicalClock::adjust_amortized(LocalTime h_now, Duration delta, Duration window) {
  ST_REQUIRE(h_now >= pieces_.back().h_start,
             "LogicalClock: adjustments must move forward in hardware time");
  ST_REQUIRE(window > 0, "LogicalClock: amortization window must be positive");
  ST_REQUIRE(delta >= 0 || -delta < window,
             "LogicalClock: negative correction too large for the window (would run backwards)");
  const LocalTime value_now = read_at_hardware(h_now);
  const double tail_slope = pieces_.back().slope;
  // Ramp piece: base slope of the tail plus the correction rate.
  pieces_.push_back(Piece{h_now, value_now, tail_slope + delta / window});
  pieces_.push_back(Piece{h_now + window, value_now + tail_slope * window + delta, tail_slope});
  record(delta);
}

void LogicalClock::adjust_override(LocalTime h_now, Duration delta) {
  ST_REQUIRE(h_now >= pieces_.front().h_start,
             "LogicalClock: override precedes clock start");
  // The value "now" is read against the pieces live at h_now BEFORE any
  // scheduled-future pieces are dropped, so the override lands relative to
  // what the clock actually reads at this instant.
  const LocalTime value_now = read_at_hardware(h_now);
  while (pieces_.back().h_start > h_now) pieces_.pop_back();
  // Slope resets to the nominal 1.0: if the override lands mid-ramp, the
  // ramp's rate modulation is part of the state being overwritten.
  pieces_.push_back(Piece{h_now, value_now + delta, 1.0});
  record(delta);
}

RealTime LogicalClock::when_reads(RealTime now, LocalTime target) const {
  const LocalTime h_now = hw_->read(now);
  if (read_at_hardware(h_now) >= target) return now;

  // Scan pieces forward from h_now for the first hardware time where the
  // logical value reaches `target`. Within a piece the value is affine with
  // positive slope except possibly at jump discontinuities between pieces.
  std::size_t idx = piece_at(h_now);
  LocalTime h_from = h_now;
  while (true) {
    const Piece& p = pieces_[idx];
    const LocalTime value_from = p.value + p.slope * (h_from - p.h_start);
    const bool is_last = idx + 1 == pieces_.size();
    const LocalTime h_end = is_last ? kTimeInfinity : pieces_[idx + 1].h_start;
    if (p.slope > 0) {
      const LocalTime h_hit = h_from + (target - value_from) / p.slope;
      if (h_hit <= h_end) return hw_->when_reads(h_hit);
    }
    ST_ASSERT(!is_last, "LogicalClock::when_reads: target unreachable (non-positive tail slope)");
    // Jump boundary: if the jump carries the value past `target`, the clock
    // first reads >= target exactly at the boundary.
    if (pieces_[idx + 1].value >= target) return hw_->when_reads(h_end);
    h_from = h_end;
    ++idx;
  }
}

double LogicalClock::rate_at(RealTime t) const {
  const LocalTime h = hw_->read(t);
  return pieces_[piece_at(h)].slope * hw_->rate_at(t);
}

std::pair<double, double> LogicalClock::slope_range_from(LocalTime h) const {
  const auto live = pieces_.begin() + static_cast<std::ptrdiff_t>(piece_at(h));
  const auto [lo, hi] = std::minmax_element(
      live, pieces_.end(), [](const Piece& a, const Piece& b) { return a.slope < b.slope; });
  return {lo->slope, hi->slope};
}

}  // namespace stclock
