#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "clocks/drift_models.h"
#include "experiment/registry.h"
#include "experiment/scenario.h"
#include "golden_specs.h"
#include "sim/simulator.h"
#include "trace/skew_tracker.h"
#include "util/rng.h"

/// Cross-checks SkewTracker's spread against a brute-force min/max over the
/// honest, started, included nodes at every hook call and every
/// stepping-loop sample. On a complete topology with the sequential engine
/// the tracker reads only the nodes its slope band cannot rule out, so these
/// runs pin that pruning to the full scan bit for bit: the golden registry
/// on both engines, seeded random complete-topology specs (joiners, churn,
/// clock and timer corruption, amortized adjustment, Byzantine attacks, the
/// large-jump baselines), and hand-built fleets that jump and ramp their
/// clocks at random, with and without a minimum sample gap.
namespace stclock {
namespace {

using experiment::ScenarioSpec;

/// Tallies tracker samples against the brute-force spread; keeps the first
/// mismatch for the failure message.
struct CrossCheck {
  std::uint64_t samples = 0;
  std::uint64_t mismatches = 0;
  std::string first;
  /// Include predicate of the tracker under test (null: the simulator's).
  std::function<bool(NodeId)> include;

  void check(const Simulator& sim, const SkewTracker& tracker) {
    const double got = tracker.last_spread();
    if (got < 0) return;  // decimated, or nothing to measure
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (NodeId id : sim.honest_ids()) {
      if (!sim.observe_started(id)) continue;
      if (include ? !include(id) : !sim.observe_include(id)) continue;
      const double c = sim.observe_logical(id, sim.now());
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    ++samples;
    const double want = hi >= lo ? hi - lo : -1;
    if (got != want && mismatches++ == 0) {
      std::ostringstream out;
      out.precision(17);
      out << "t=" << sim.now() << " events=" << sim.events_dispatched()
          << " tracker=" << got << " brute-force=" << want;
      first = out.str();
    }
  }

  experiment::SampleObserver observer() {
    return [this](const Simulator& sim, const SkewTracker& tracker) { check(sim, tracker); };
  }
};

void expect_exact(const ScenarioSpec& spec, const std::string& label) {
  CrossCheck cc;
  const experiment::ScenarioResult r = experiment::run_scenario(spec, cc.observer());
  EXPECT_GT(cc.samples, 0u) << label;
  EXPECT_EQ(cc.mismatches, 0u) << label << ": " << cc.mismatches << " of " << cc.samples
                               << " samples differ; first at " << cc.first;
  // The observer must not perturb the run it watches.
  EXPECT_EQ(r.max_skew, experiment::run_scenario(spec).max_skew) << label;
}

TEST(SkewPruning, GoldenRegistryMatchesBruteForceOnBothEngines) {
  const std::vector<ScenarioSpec> specs = experiment::golden::specs();
  ASSERT_FALSE(specs.empty());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_exact(specs[i], "golden spec " + std::to_string(i));
    // The parallel engine needs a positive lookahead (delay=half), as in
    // the ParallelSim suite; adversarial specs fall back to sequential.
    ScenarioSpec par = specs[i];
    par.delay = DelayKind::kHalf;
    par.sim_threads = 4;
    expect_exact(par, "golden spec " + std::to_string(i) + " at sim_threads=4");
  }
}

/// One random complete-topology spec: a template picked by `kind` (so every
/// template is covered), with seed, size, drift and delay drawn from `rng`.
ScenarioSpec random_complete_spec(int kind, Rng& rng) {
  ScenarioSpec spec;
  spec.cfg.n = 4 + static_cast<std::uint32_t>(rng.uniform_int(0, 8));  // 4..12
  spec.cfg.f = 0;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = rng.next_u64();
  spec.horizon = 8.0;
  const DriftKind drifts[] = {DriftKind::kRandomWalk, DriftKind::kRandomConstant,
                              DriftKind::kExtremal, DriftKind::kNone};
  spec.drift = drifts[rng.uniform_int(0, 3)];
  const DelayKind delays[] = {DelayKind::kUniform, DelayKind::kHalf, DelayKind::kMax};
  spec.delay = delays[rng.uniform_int(0, 2)];
  const std::uint32_t n = spec.cfg.n;
  switch (kind) {
    case 0:  // auth at its resilience limit under a signature attack
      spec.protocol = "auth";
      spec.cfg.f = (n - 1) / 2;
      spec.attack = rng.bernoulli(0.5) ? AttackKind::kSpamEarly : AttackKind::kForge;
      break;
    case 1:  // echo at its resilience limit
      spec.protocol = "echo";
      spec.cfg.f = (n - 1) / 3;
      spec.attack = rng.bernoulli(0.5) ? AttackKind::kReplay : AttackKind::kEquivocate;
      break;
    case 2:  // a late joiner integrating mid-run
      spec.protocol = "auth";
      spec.cfg.f = 1;
      spec.attack = AttackKind::kCrash;
      spec.joiners = 1;
      spec.join_time = 3.0 + rng.uniform(0, 2);
      break;
    case 3:  // churn: nodes crash and reintegrate
      spec.protocol = "auth";
      spec.churn_nodes = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 1));
      spec.churn_leave = 2.0 + rng.uniform(0, 1);
      spec.churn_rejoin = 4.5 + rng.uniform(0, 1);
      break;
    case 4:  // clock and timer corruption, then recovery
      spec.protocol = rng.bernoulli(0.5) ? "auth_stab" : "auth";
      spec.corrupt_at = {3.0 + rng.uniform(0, 1)};
      spec.corrupt_fraction = rng.bernoulli(0.5) ? 1.0 : 0.5;
      spec.corrupt_kinds = kCorruptClocks | kCorruptTimers;
      break;
    case 5:  // amortized adjustment: ramps with their end pieces live
      spec.protocol = "auth";
      spec.cfg.adjust = AdjustMode::kAmortized;
      spec.cfg.amortize_window = 0.1 + rng.uniform(0, 0.3);
      break;
    case 6:  // large-jump baselines under their matched attacks
    default: {
      const int which = static_cast<int>(rng.uniform_int(0, 2));
      spec.protocol = which == 0 ? "lundelius_welch" : which == 1 ? "hssd" : "leader";
      spec.cfg.f = which == 2 ? 0 : (n - 1) / 3;
      spec.attack = which == 0   ? AttackKind::kLwPull
                    : which == 1 ? AttackKind::kHssdEarly
                                 : AttackKind::kNone;
      break;
    }
  }
  if (spec.cfg.f == 0 && spec.attack != AttackKind::kNone) spec.attack = AttackKind::kNone;
  return spec;
}

TEST(SkewPruning, RandomCompleteSpecsMatchBruteForce) {
  Rng rng(0x5107eb4d);
  constexpr int kTemplates = 7;
  for (int rep = 0; rep < 4 * kTemplates; ++rep) {
    const ScenarioSpec spec = random_complete_spec(rep % kTemplates, rng);
    std::ostringstream label;
    label << "template " << rep % kTemplates << " (" << spec.protocol
          << ", n=" << spec.cfg.n << ", f=" << spec.cfg.f << ", seed=" << spec.seed << ")";
    ASSERT_NO_THROW(experiment::validate_spec(spec, experiment::ProtocolRegistry::global()
                                                        .at(spec.protocol)
                                                        .mode))
        << label.str();
    expect_exact(spec, label.str());
  }
}

/// A node that jumps, ramps and broadcasts at random: each timer applies an
/// instant or amortized correction of up to `jump` (none while a ramp is in
/// flight) and may broadcast, so deliveries interleave with the jumps.
class Jitter final : public Process {
 public:
  Jitter(std::uint64_t seed, Duration jump) : rng_(seed), jump_(jump) {}
  void on_start(Context& ctx) override { arm(ctx); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context& ctx, TimerId) override {
    const LocalTime h = ctx.hardware_now();
    if (h >= ramp_end_) {
      const Duration delta = rng_.uniform(-jump_, jump_);
      if (rng_.bernoulli(0.3)) {
        const Duration window = 0.01 + rng_.uniform(0, 0.05);
        ctx.logical().adjust_amortized(h, delta, window);
        ramp_end_ = h + window;
      } else if (rng_.bernoulli(0.7)) {
        ctx.logical().adjust_instant(h, delta);
      }
    }
    if (rng_.bernoulli(0.4)) ctx.broadcast(Message(InitMsg{1}));
    arm(ctx);
  }

 private:
  void arm(Context& ctx) {
    (void)ctx.set_timer_at_hardware(ctx.hardware_now() + rng_.uniform(0.001, 0.03));
  }

  Rng rng_;
  Duration jump_;
  LocalTime ramp_end_ = 0;
};

struct FleetCase {
  const char* name;
  std::vector<HardwareClock> clocks;
  Duration jump;
  Duration min_sample_gap;
};

/// Runs a Jitter fleet on the complete graph with a tracker in the hook and
/// a stepping loop, cross-checking every sample.
void expect_fleet_exact(FleetCase c, std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(c.clocks.size());
  SimParams params;
  params.n = n;
  params.tdel = 0.01;
  params.seed = seed;
  Simulator sim(params, std::move(c.clocks), std::make_unique<UniformDelay>(0.0, 1.0),
                nullptr);
  Rng rng(seed);
  for (NodeId id = 0; id < n; ++id) {
    sim.set_process(id, std::make_unique<Jitter>(rng.next_u64(), c.jump));
    if (id % 5 == 4) sim.set_start_time(id, rng.uniform(0, 0.5));  // staggered boots
  }
  CrossCheck cc;
  // Nodes whose id is divisible by 7 are left out, through the tracker's own
  // include predicate.
  cc.include = [](NodeId id) { return id % 7 != 0; };
  SkewTracker tracker(0.05, cc.include);
  tracker.set_min_sample_gap(c.min_sample_gap);
  sim.set_post_event_hook([&](const Simulator& s) {
    tracker.sample(s);
    cc.check(s, tracker);
  });
  for (RealTime t = 0.05; t <= 2.0; t += 0.05) {
    sim.run_until(t);
    tracker.sample(sim);
    cc.check(sim, tracker);
  }
  // Two seconds of events, or about 2 / min_sample_gap samples when decimated.
  EXPECT_GT(cc.samples, c.min_sample_gap > 0 ? 400u : 1000u) << c.name;
  EXPECT_EQ(cc.mismatches, 0u) << c.name << " (seed " << seed << "): " << cc.mismatches
                               << " of " << cc.samples << " samples differ; first at "
                               << cc.first;
}

TEST(SkewPruning, JumpingFleetsMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 7919);
    // Wandering rates, small offsets and jumps: the everyday regime.
    expect_fleet_exact({"rand-walk", drift::random_fleet(rng, 24, 1e-4, 0.005, 3.0, 0.2), 2e-3, 0},
                       seed);
    // Extremal rates make the band tight (a fast clock runs exactly at its
    // top), and readings near 1e5 make rounding visible at the ulp level.
    std::vector<HardwareClock> extremal;
    for (int i = 0; i < 24; ++i) {
      const double initial = 1e5 + rng.uniform(0, 1e-9);
      extremal.push_back(i % 2 == 0 ? drift::extremal_fast(initial, 1e-4)
                                    : drift::extremal_slow(initial, 1e-4));
    }
    expect_fleet_exact({"extremal, large readings", std::move(extremal), 1e-9, 0}, seed);
    // One shared rate, readings a few ulps apart and ulp-sized jumps: every
    // upper (or lower) bound is tight, so only the rounding slack keeps the
    // extreme node among the candidates.
    for (const bool fast : {true, false}) {
      std::vector<HardwareClock> tight;
      for (int i = 0; i < 24; ++i) {
        const double initial = 1e3 + rng.uniform(0, 1e-12);
        tight.push_back(fast ? drift::extremal_fast(initial, 1e-4)
                             : drift::extremal_slow(initial, 1e-4));
      }
      expect_fleet_exact({fast ? "tight band, fast" : "tight band, slow", std::move(tight),
                          1e-13, 0},
                         seed);
    }
    // Every rate exactly 1 except the late booters' (ids 4, 9, ...): the
    // band is [1, 1] until they boot, and must then widen to their rate.
    std::vector<HardwareClock> nominal;
    for (int i = 0; i < 24; ++i) {
      nominal.push_back(drift::constant(rng.uniform(0, 1e-6), i % 5 == 4 ? 1 + 1e-4 : 1.0));
    }
    expect_fleet_exact({"nominal rates, fast late booters", std::move(nominal), 1e-7, 0}, seed);
  }
}

TEST(SkewPruning, DecimatedCompleteGraphMatchesBruteForce) {
  // With a minimum sample gap most hook calls are decimated, yet the keys
  // must follow every event so the samples that do count stay exact.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 104729);
    expect_fleet_exact(
        {"rand-walk, gap 0.004", drift::random_fleet(rng, 32, 1e-4, 0.005, 3.0, 0.2), 2e-3, 0.004},
        seed);
  }
}

}  // namespace
}  // namespace stclock
