#include <gtest/gtest.h>

#include "clocks/drift_models.h"
#include "sim/simulator.h"
#include "trace/envelope.h"
#include "trace/skew_tracker.h"

namespace stclock {
namespace {

Simulator make_sim(std::vector<HardwareClock> clocks) {
  SimParams params;
  params.n = static_cast<std::uint32_t>(clocks.size());
  params.tdel = 0.01;
  params.seed = 1;
  return Simulator(params, std::move(clocks), std::make_unique<FixedDelay>(0.0), nullptr);
}

class Idle final : public Process {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

TEST(SkewTrackerTest, MeasuresSpreadOfFreeRunningClocks) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.01);   // fast
  clocks.emplace_back(0.0, 0.99);   // slow
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(0.1);
  for (double t = 0.5; t <= 10.0; t += 0.5) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  // Spread at t: (1.01 - 0.99) * t = 0.02 t -> max at t = 10.
  EXPECT_NEAR(tracker.max_skew(), 0.2, 1e-9);
  EXPECT_NEAR(tracker.max_skew_time(), 10.0, 1e-9);
}

TEST(SkewTrackerTest, SteadyWindowIgnoresEarlySamples) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.3, 1.0);  // offset that will persist
  clocks.emplace_back(0.0, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(0.1);
  tracker.set_steady_start(5.0);
  for (double t = 0.5; t <= 10.0; t += 0.5) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  EXPECT_NEAR(tracker.steady_max_skew(), 0.3, 1e-9);
  EXPECT_NEAR(tracker.max_skew(), 0.3, 1e-9);
}

TEST(SkewTrackerTest, IncludeFilterExcludesNodes) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.0);
  clocks.emplace_back(5.0, 1.0);  // wild outlier, filtered out
  clocks.emplace_back(0.1, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  for (NodeId id = 0; id < 3; ++id) sim.set_process(id, std::make_unique<Idle>());

  SkewTracker tracker(0.1, [](NodeId id) { return id != 1; });
  sim.run_until(1.0);
  tracker.sample(sim);
  EXPECT_NEAR(tracker.max_skew(), 0.1, 1e-9);
}

TEST(SkewTrackerTest, SeriesIsDecimated) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.0);
  clocks.emplace_back(0.0, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(1.0);  // one-second series interval
  for (double t = 0.01; t <= 5.0; t += 0.01) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  // ~5 series points despite 500 samples.
  EXPECT_LE(tracker.series().size(), 7u);
  EXPECT_GE(tracker.series().size(), 4u);
}

/// Arms one timer at hardware time `at`; its firing is an ordinary event.
class OneTimer final : public Process {
 public:
  explicit OneTimer(LocalTime at) : at_(at) {}
  void on_start(Context& ctx) override { (void)ctx.set_timer_at_hardware(at_); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}

 private:
  LocalTime at_;
};

TEST(SkewTrackerTest, DecimationKeepsTheFirstSampleOfTheStabilizationWatch) {
  // A spread of 0.001 throughout, and a timer corruption at t = 1 that
  // moves no clock: the run never leaves its 0.01 bound, so recovery takes
  // 0. The timers at t = 0.9 are sampled, which puts the corruption event
  // inside the 0.5 s sample gap; that first post-event sample must count
  // anyway, or the next one (t = 3) would report a recovery time of 2.
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.0);
  clocks.emplace_back(0.001, 1.0);
  SimParams params;
  params.n = 2;
  params.tdel = 0.01;
  params.corruptions.push_back(CorruptionEvent{1.0, 1.0, kCorruptTimers, 0.0});
  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(0.0), nullptr);
  sim.set_process(0, std::make_unique<OneTimer>(0.9));
  sim.set_process(1, std::make_unique<OneTimer>(0.901));

  SkewTracker tracker(0.1);
  tracker.set_min_sample_gap(0.5);
  tracker.set_stabilization(1.0, 0.01);
  sim.set_post_event_hook([&tracker](const Simulator& s) { tracker.sample(s); });
  sim.run_until(3.0);
  tracker.sample(sim);
  EXPECT_EQ(sim.corruption_events_fired(), 1u);
  EXPECT_TRUE(tracker.stabilized());
  EXPECT_EQ(tracker.stabilization_time(), 0.0);
}

TEST(EnvelopeTrackerTest, RecoversConstantRates) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.02);
  clocks.emplace_back(0.0, 0.98);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 20.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.98, 1.02, 0.0);
  EXPECT_NEAR(report.max_rate, 1.02, 1e-9);
  EXPECT_NEAR(report.min_rate, 0.98, 1e-9);
  // The candidate slopes match exactly, so offsets stay ~0.
  EXPECT_LT(report.upper_offset, 1e-9);
  EXPECT_LT(report.lower_offset, 1e-9);
}

TEST(EnvelopeTrackerTest, OffsetsDetectEnvelopeViolations) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.1);  // faster than the claimed envelope
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 10.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.99, 1.01, 0.0);
  // C(t) - 1.01 t = 0.09 t grows: a large upper offset flags the violation.
  EXPECT_GT(report.upper_offset, 0.5);
}

TEST(EnvelopeTrackerTest, SteadyStartRestrictsFitNotOffsets) {
  std::vector<HardwareClock> clocks;
  // Rate 2 until t = 5, then rate 1: the steady fit should see slope ~1.
  HardwareClock clock(0.0, 2.0);
  clock.set_rate_from(5.0, 1.0);
  clocks.push_back(std::move(clock));
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 30.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.9, 1.1, /*steady_start=*/6.0);
  EXPECT_NEAR(report.max_rate, 1.0, 1e-6);
}

TEST(EnvelopeTrackerTest, ReportWithoutSamplesThrows) {
  EnvelopeTracker tracker(0.1);
  EXPECT_THROW((void)tracker.report(1.0, 1.0, 0.0), std::logic_error);
}

}  // namespace
}  // namespace stclock
