#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "clock_cache_probe.h"
#include "clocks/logical_clock.h"
#include "experiment/scenario.h"
#include "golden_specs.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace stclock {
namespace {

TEST(LogicalClock, MirrorsHardwareInitially) {
  HardwareClock hw(3.0, 1.5);
  LogicalClock clock(hw);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 3.0);
  EXPECT_DOUBLE_EQ(clock.read(2.0), 6.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.0), 1.5);
}

TEST(LogicalClock, InstantForwardAdjustment) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(/*h_now=*/5.0, /*delta=*/2.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 7.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.0), 8.0);
  // Before the adjustment the old mapping holds.
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(4.0), 4.0);
}

TEST(LogicalClock, InstantBackwardAdjustment) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, -1.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 4.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(7.0), 6.0);
}

TEST(LogicalClock, StackedAdjustments) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(1.0, 0.5);
  clock.adjust_instant(2.0, 0.25);
  clock.adjust_instant(3.0, -0.125);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(4.0), 4.0 + 0.5 + 0.25 - 0.125);
  EXPECT_DOUBLE_EQ(clock.total_adjustment(), 0.625);
  EXPECT_EQ(clock.adjustment_count(), 3u);
  EXPECT_DOUBLE_EQ(clock.max_abs_adjustment(), 0.5);
}

TEST(LogicalClock, AdjustmentsMustMoveForward) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, 1.0);
  EXPECT_THROW(clock.adjust_instant(4.0, 1.0), std::logic_error);
}

TEST(LogicalClock, AmortizedAdjustmentRampsLinearly) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(/*h_now=*/10.0, /*delta=*/1.0, /*window=*/2.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(10.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(11.0), 11.5);  // halfway through ramp
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(12.0), 13.0);  // ramp complete
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(13.0), 14.0);  // back to slope 1
}

TEST(LogicalClock, AmortizedBackwardStaysMonotone) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, -0.5, 2.0);  // slope 0.75 during ramp
  double prev = clock.read_at_hardware(0.0);
  for (double h = 0.05; h <= 4.0; h += 0.05) {
    const double cur = clock.read_at_hardware(h);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(2.0), 1.5);
}

TEST(LogicalClock, AmortizedTooNegativeThrows) {
  HardwareClock hw;
  LogicalClock clock(hw);
  EXPECT_THROW(clock.adjust_amortized(0.0, -2.0, 2.0), std::logic_error);
  EXPECT_THROW(clock.adjust_amortized(0.0, 1.0, 0.0), std::logic_error);
}

TEST(LogicalClock, WhenReadsNoAdjustment) {
  HardwareClock hw(0.0, 2.0);  // local runs twice as fast
  LogicalClock clock(hw);
  // Logical reads 10 when hardware reads 10, i.e. real time 5.
  EXPECT_NEAR(clock.when_reads(0.0, 10.0), 5.0, 1e-12);
}

TEST(LogicalClock, WhenReadsTargetAlreadyPassed) {
  HardwareClock hw;
  LogicalClock clock(hw);
  EXPECT_DOUBLE_EQ(clock.when_reads(7.0, 3.0), 7.0);  // fire immediately
}

TEST(LogicalClock, WhenReadsAfterForwardJump) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(2.0, 5.0);  // at h=2 the clock jumps from 2 to 7
  // Target 6 is inside the jump: first reached exactly at the jump (h=2).
  EXPECT_NEAR(clock.when_reads(0.0, 6.0), 2.0, 1e-12);
  // Target 9 is after the jump: 9 = 7 + (h-2) -> h = 4.
  EXPECT_NEAR(clock.when_reads(0.0, 9.0), 4.0, 1e-12);
}

TEST(LogicalClock, WhenReadsAfterBackwardJump) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(2.0, -1.0);  // at h=2 the clock drops from 2 to 1
  // Queried from "now" = 2 (just after the drop), target 1.5: the clock
  // re-covers the interval; 1.5 = 1 + (h-2) -> h = 2.5.
  EXPECT_NEAR(clock.when_reads(2.0, 1.5), 2.5, 1e-12);
}

TEST(LogicalClock, WhenReadsDuringAmortizedRamp) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, 1.0, 2.0);  // slope 1.5 on h in [0,2]
  // Logical 1.5 reached at h = 1.0.
  EXPECT_NEAR(clock.when_reads(0.0, 1.5), 1.0, 1e-12);
  // Logical 4 reached after the ramp: value(2)=3, slope 1 -> h=3.
  EXPECT_NEAR(clock.when_reads(0.0, 4.0), 3.0, 1e-12);
}

TEST(LogicalClock, WhenReadsComposesWithHardwareDrift) {
  HardwareClock hw(0.0, 0.5);  // slow hardware
  LogicalClock clock(hw);
  clock.adjust_instant(1.0, 2.0);  // at h=1 (real t=2) logical jumps to 3
  // Target logical 5: 5 = 3 + (h-1) -> h=3 -> real t = 6.
  EXPECT_NEAR(clock.when_reads(2.0, 5.0), 6.0, 1e-12);
}

TEST(LogicalClock, RateCombinesHardwareAndRamp) {
  HardwareClock hw(0.0, 2.0);
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, 2.0, 4.0);  // dL/dh = 1.5 during ramp
  EXPECT_DOUBLE_EQ(clock.rate_at(0.5), 3.0);  // 1.5 * 2.0
  EXPECT_DOUBLE_EQ(clock.rate_at(3.0), 2.0);  // ramp over (h=6 > 4? no: h=2*3=6 > 4) -> slope 1
}

TEST(LogicalClock, ReadBeforeStartThrows) {
  HardwareClock hw(5.0, 1.0);
  LogicalClock clock(hw);
  EXPECT_THROW((void)clock.read_at_hardware(4.0), std::logic_error);
}

// --- Read cache: every read must give the search's bits. -------------------

/// Reads `clock` at hardware time h and checks the result against the search.
void expect_read_matches_search(const LogicalClock& clock, LocalTime h) {
  const LocalTime got = clock.read_at_hardware(h);
  EXPECT_EQ(bits(got), bits(ClockCacheProbe::searched_read_at_hardware(clock, h))) << "h = " << h;
}

TEST(LogicalClockCache, ReadAtNextPieceStartMovesToIt) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(4.5), 4.5);
  EXPECT_TRUE(ClockCacheProbe::cached(clock, 4.999));
  EXPECT_FALSE(ClockCacheProbe::cached(clock, 5.0));  // the next piece's start
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 7.0);
  EXPECT_TRUE(ClockCacheProbe::cached(clock, 5.0));
  expect_read_matches_search(clock, 5.0);
  expect_read_matches_search(clock, std::nextafter(5.0, 0.0));
}

TEST(LogicalClockCache, DuplicatePieceStartsReadTheLastPiece) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.0), 7.0);  // caches the first piece at 5
  clock.adjust_instant(5.0, 0.5);                       // a second piece at h = 5
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.0), 7.5);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 6.5);
  clock.adjust_amortized(5.0, 1.0, 2.0);  // a ramp at 5 as well
  for (const double h : {4.0, 5.0, 6.0, 7.0, 8.0, 5.0, 4.0}) expect_read_matches_search(clock, h);
}

TEST(LogicalClockCache, OverrideDroppingARampEndInvalidatesTheCache) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(5.0, 1.0, 2.0);  // ramp on [5, 7), slope 1.5
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.5), 7.25);  // caches the ramp, next at 7
  clock.adjust_override(6.0, 0.25);  // pops the end piece at 7, starts a piece at 6
  // A stale ramp copy would still answer 6.5 (and not 7, now the override's piece).
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.5), 7.25);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(8.0), 8.75);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.0), 6.75);
  for (const double h : {5.5, 6.0, 6.5, 7.0, 9.0}) expect_read_matches_search(clock, h);
}

TEST(LogicalClockCache, ReadsBackwardInTimeMatchTheSearch) {
  HardwareClock hw(0.0, 1.0001);
  hw.set_rate_from(3.0, 0.9999);
  LogicalClock clock(hw);
  for (int i = 1; i <= 6; ++i) clock.adjust_instant(i * 1.0, i % 2 ? 0.01 : -0.005);
  for (double t = 8.0; t >= 0.0; t -= 0.125) {
    EXPECT_EQ(bits(clock.read(t)), bits(ClockCacheProbe::searched_read(clock, t))) << t;
  }
}

TEST(LogicalClockCache, ReadAfterHardwareRateChange) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(1.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.read(4.0), 4.5);  // caches both clocks' last pieces
  hw.set_rate_from(3.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.read(4.0), 5.5);
  EXPECT_EQ(bits(clock.read(3.5)), bits(ClockCacheProbe::searched_read(clock, 3.5)));
}

TEST(LogicalClockCache, InvalidTimesStillThrowAfterACachedRead) {
  HardwareClock hw(5.0, 1.0);
  LogicalClock clock(hw);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 5.0);
  EXPECT_THROW((void)clock.read_at_hardware(4.0), std::logic_error);
  EXPECT_THROW((void)clock.read_at_hardware(std::numeric_limits<double>::quiet_NaN()),
               std::logic_error);
  EXPECT_THROW((void)clock.read(-0.1), std::logic_error);
}

TEST(LogicalClockCache, RandomAdjustmentsAndReadOrdersMatchTheSearch) {
  Rng rng(20261021);
  for (int trial = 0; trial < 50; ++trial) {
    HardwareClock hw(rng.uniform(0, 10), 1.0);
    LogicalClock clock(hw);
    LocalTime h = hw.initial_value();
    std::vector<LocalTime> starts{h};
    LocalTime ramp_end = h;  // pieces_.back().h_start: only an override may adjust before it
    for (int step = 0; step < 100; ++step) {
      // Adjustments at the current hardware time (sometimes the same one
      // twice), with reads forward, backward and at piece starts between.
      if (rng.bernoulli(0.3)) {
        const Duration delta = rng.uniform(-0.05, 0.05);
        const std::uint64_t kind = h < ramp_end ? 2 : rng.uniform_int(0, 2);
        ramp_end = h;
        switch (kind) {
          case 0: clock.adjust_instant(h, delta); break;
          case 1: {
            const Duration window = rng.uniform(0.1, 1.0);
            clock.adjust_amortized(h, delta, window);
            ramp_end = h + window;
            starts.push_back(ramp_end);
            break;
          }
          default: clock.adjust_override(h, delta); break;
        }
        starts.push_back(h);
      }
      const LocalTime at = rng.bernoulli(0.2)   ? rng.uniform(starts.front(), h + 1)
                           : rng.bernoulli(0.1) ? starts[rng.uniform_int(0, starts.size() - 1)]
                                                : h;
      expect_read_matches_search(clock, at);
      if (!rng.bernoulli(0.2)) h += rng.uniform(0, 0.5);
    }
  }
}

/// At every post-event hook call and stepping-loop sample, reads every
/// honest node's clock at `now` (the read the trackers make) and checks its
/// bits against the search. Counts reads and keeps the first mismatch.
struct CacheCheck {
  std::uint64_t reads = 0;
  std::uint64_t mismatches = 0;
  std::string first;

  void check(const Simulator& sim) {
    for (NodeId id : sim.honest_ids()) {
      const LogicalClock& clock = sim.logical(id);
      const LocalTime got = clock.read(sim.now());
      const LocalTime want = ClockCacheProbe::searched_read(clock, sim.now());
      ++reads;
      if (bits(got) != bits(want) && mismatches++ == 0) {
        std::ostringstream out;
        out.precision(17);
        out << "node " << id << " t=" << sim.now() << " events=" << sim.events_dispatched()
            << " cached=" << got << " searched=" << want;
        first = out.str();
      }
    }
  }
};

void expect_cached_reads_exact(const experiment::ScenarioSpec& spec, const std::string& label) {
  CacheCheck cc;
  const experiment::ScenarioResult r =
      experiment::run_scenario(spec, [&cc](const Simulator& sim, const SkewTracker&) {
        cc.check(sim);
      });
  EXPECT_GT(cc.reads, 0u) << label;
  EXPECT_EQ(cc.mismatches, 0u) << label << ": " << cc.mismatches << " of " << cc.reads
                               << " reads differ; first at " << cc.first;
  // The extra reads must not perturb the run they watch.
  EXPECT_EQ(bits(r.max_skew), bits(experiment::run_scenario(spec).max_skew)) << label;
}

TEST(LogicalClockCache, GoldenRegistryReadsMatchTheSearchOnBothEngines) {
  const std::vector<experiment::ScenarioSpec> specs = experiment::golden::specs();
  ASSERT_FALSE(specs.empty());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_cached_reads_exact(specs[i], "golden spec " + std::to_string(i));
    // The parallel engine needs a positive lookahead (delay=half), as in the
    // ParallelSim suite; adversarial specs fall back to sequential.
    experiment::ScenarioSpec par = specs[i];
    par.delay = DelayKind::kHalf;
    par.sim_threads = 4;
    expect_cached_reads_exact(par, "golden spec " + std::to_string(i) + " at sim_threads=4");
  }
}

}  // namespace
}  // namespace stclock
