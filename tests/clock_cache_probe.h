#pragma once

#include <bit>
#include <cstdint>

#include "clocks/logical_clock.h"

/// Test-only access to the clocks' read caches (a friend of both clock
/// classes). The searched reads run the binary search and evaluate the
/// result without touching the cache: they are the reference a cached read
/// must match bit for bit.
namespace stclock {

struct ClockCacheProbe {
  [[nodiscard]] static LocalTime searched_read(const HardwareClock& c, RealTime t) {
    return HardwareClock::local_at(c.segments_[c.segment_at(t)], t);
  }
  [[nodiscard]] static LocalTime searched_read_at_hardware(const LogicalClock& c, LocalTime h) {
    return LogicalClock::value_at(c.pieces_[c.piece_at(h)], h);
  }
  [[nodiscard]] static LocalTime searched_read(const LogicalClock& c, RealTime t) {
    return searched_read_at_hardware(c, searched_read(c.hardware(), t));
  }

  /// True iff a read at t (at h) would be answered from the cache.
  [[nodiscard]] static bool cached(const HardwareClock& c, RealTime t) {
    return c.live_.real_start <= t && t < c.live_next_;
  }
  [[nodiscard]] static bool cached(const LogicalClock& c, LocalTime h) {
    return c.live_.h_start <= h && h < c.live_next_;
  }
};

[[nodiscard]] inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace stclock
