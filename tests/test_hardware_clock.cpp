#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "clock_cache_probe.h"
#include "clocks/hardware_clock.h"
#include "util/rng.h"

namespace stclock {
namespace {

TEST(HardwareClock, IdentityByDefault) {
  HardwareClock clock;
  EXPECT_DOUBLE_EQ(clock.read(0.0), 0.0);
  EXPECT_DOUBLE_EQ(clock.read(5.5), 5.5);
  EXPECT_DOUBLE_EQ(clock.rate_at(3.0), 1.0);
}

TEST(HardwareClock, InitialOffsetAndRate) {
  HardwareClock clock(10.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read(3.0), 16.0);
}

TEST(HardwareClock, PiecewiseRates) {
  HardwareClock clock(0.0, 1.0);
  clock.set_rate_from(10.0, 2.0);
  clock.set_rate_from(20.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.read(10.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read(15.0), 20.0);
  EXPECT_DOUBLE_EQ(clock.read(20.0), 30.0);
  EXPECT_DOUBLE_EQ(clock.read(24.0), 32.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(12.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(25.0), 0.5);
}

TEST(HardwareClock, RateChangeAtSameInstantOverwrites) {
  HardwareClock clock(0.0, 1.0);
  clock.set_rate_from(5.0, 2.0);
  clock.set_rate_from(5.0, 3.0);  // replaces, does not stack
  EXPECT_DOUBLE_EQ(clock.read(6.0), 8.0);
}

TEST(HardwareClock, InverseRoundTrip) {
  HardwareClock clock(2.0, 1.5);
  clock.set_rate_from(4.0, 0.8);
  clock.set_rate_from(9.0, 1.2);
  for (double t : {0.0, 1.0, 3.999, 4.0, 7.3, 9.0, 15.0}) {
    EXPECT_NEAR(clock.when_reads(clock.read(t)), t, 1e-9) << "t = " << t;
  }
}

TEST(HardwareClock, InverseAcrossSegmentBoundary) {
  HardwareClock clock(0.0, 2.0);
  clock.set_rate_from(1.0, 0.5);  // local 2.0 at the boundary
  EXPECT_NEAR(clock.when_reads(2.0), 1.0, 1e-12);
  EXPECT_NEAR(clock.when_reads(2.5), 2.0, 1e-12);
}

TEST(HardwareClock, StrictlyMonotone) {
  HardwareClock clock(0.0, 0.9);
  clock.set_rate_from(2.0, 1.1);
  double prev = clock.read(0.0);
  for (double t = 0.01; t < 5.0; t += 0.01) {
    const double cur = clock.read(t);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(HardwareClock, RejectsNonPositiveRate) {
  EXPECT_THROW(HardwareClock(0.0, 0.0), std::logic_error);
  HardwareClock clock;
  EXPECT_THROW(clock.set_rate_from(1.0, -1.0), std::logic_error);
}

TEST(HardwareClock, RejectsOutOfOrderSegments) {
  HardwareClock clock;
  clock.set_rate_from(5.0, 1.1);
  EXPECT_THROW(clock.set_rate_from(4.0, 1.0), std::logic_error);
}

TEST(HardwareClock, RejectsNegativeTime) {
  HardwareClock clock;
  EXPECT_THROW((void)clock.read(-0.1), std::logic_error);
}

TEST(HardwareClock, WhenReadsBeforeStartThrows) {
  HardwareClock clock(5.0, 1.0);
  EXPECT_THROW((void)clock.when_reads(4.9), std::logic_error);
}

TEST(HardwareClock, DriftBoundCheck) {
  const double rho = 0.01;
  HardwareClock ok(0.0, 1.0 + rho);
  ok.set_rate_from(1.0, 1.0 / (1.0 + rho));
  EXPECT_TRUE(ok.respects_drift_bound(rho));
  EXPECT_FALSE(ok.respects_drift_bound(0.001));

  HardwareClock fast(0.0, 1.02);
  EXPECT_FALSE(fast.respects_drift_bound(0.01));
}

// --- Read cache: every read must give the search's bits. -------------------

/// Reads `clock` at t and checks the result against the search.
void expect_read_matches_search(const HardwareClock& clock, RealTime t) {
  const LocalTime got = clock.read(t);
  EXPECT_EQ(bits(got), bits(ClockCacheProbe::searched_read(clock, t))) << "t = " << t;
}

TEST(HardwareClockCache, ReadAtNextSegmentStartMovesToIt) {
  HardwareClock clock(0.0, 1.0);
  clock.set_rate_from(10.0, 2.0);
  clock.set_rate_from(20.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.read(15.0), 20.0);
  EXPECT_TRUE(ClockCacheProbe::cached(clock, 19.999));
  EXPECT_FALSE(ClockCacheProbe::cached(clock, 20.0));  // the next segment's start
  EXPECT_DOUBLE_EQ(clock.read(20.0), 30.0);
  EXPECT_TRUE(ClockCacheProbe::cached(clock, 20.0));
  EXPECT_FALSE(ClockCacheProbe::cached(clock, 19.999));
  expect_read_matches_search(clock, 20.0);
  expect_read_matches_search(clock, std::nextafter(20.0, 0.0));
  expect_read_matches_search(clock, 1e9);  // the last segment runs to +inf
}

TEST(HardwareClockCache, ReadsBackwardInTimeMatchTheSearch) {
  HardwareClock clock(1.0, 1.0001);
  for (int i = 1; i <= 8; ++i) clock.set_rate_from(i * 1.5, i % 2 ? 0.9999 : 1.0001);
  for (double t = 14.0; t >= 0.0; t -= 0.25) expect_read_matches_search(clock, t);
  for (const double t : {3.0, 2.9, 3.0, 0.0, 12.0, 1.5, 1.4999}) {
    expect_read_matches_search(clock, t);
  }
}

TEST(HardwareClockCache, SetRateFromInvalidatesTheCache) {
  HardwareClock clock(0.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.read(5.0), 5.0);  // caches [0, +inf) at rate 1
  clock.set_rate_from(8.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.read(10.0), 12.0);
  expect_read_matches_search(clock, 9.0);
  // Overwriting the rate of the segment just read.
  EXPECT_DOUBLE_EQ(clock.read(9.0), 10.0);
  clock.set_rate_from(8.0, 3.0);
  EXPECT_DOUBLE_EQ(clock.read(9.0), 11.0);
  expect_read_matches_search(clock, 9.0);
}

TEST(HardwareClockCache, InvalidTimesStillThrowAfterACachedRead) {
  HardwareClock clock(5.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 5.0);  // caches the first segment, from 0
  EXPECT_THROW((void)clock.read(-0.1), std::logic_error);
  EXPECT_THROW((void)clock.read(-kTimeInfinity), std::logic_error);
  EXPECT_THROW((void)clock.read(std::numeric_limits<double>::quiet_NaN()), std::logic_error);
  EXPECT_DOUBLE_EQ(clock.read(1.0), 6.0);
}

TEST(HardwareClockCache, RandomTrajectoriesAndReadOrdersMatchTheSearch) {
  Rng rng(20261020);
  for (int trial = 0; trial < 50; ++trial) {
    HardwareClock clock(rng.uniform(0, 10), rng.uniform(0.99, 1.01));
    std::vector<RealTime> starts{0.0};
    const int segments = static_cast<int>(rng.uniform_int(0, 20));
    for (int i = 0; i < segments; ++i) {
      // Reads between appends see a cache the append must invalidate.
      expect_read_matches_search(clock, rng.uniform(0, starts.back() + 1));
      starts.push_back(starts.back() + (rng.bernoulli(0.2) ? 0.0 : rng.uniform(0, 2)));
      clock.set_rate_from(starts.back(), rng.uniform(0.99, 1.01));
    }
    RealTime now = 0;
    for (int i = 0; i < 200; ++i) {
      // Mostly forward, sometimes back (as a commit replay reads), sometimes
      // exactly at a segment start.
      now = rng.bernoulli(0.2) ? rng.uniform(0, now) : now + rng.uniform(0, 0.5);
      if (rng.bernoulli(0.1)) now = starts[rng.uniform_int(0, starts.size() - 1)];
      expect_read_matches_search(clock, now);
    }
  }
}

}  // namespace
}  // namespace stclock
