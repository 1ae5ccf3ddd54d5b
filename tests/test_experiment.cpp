#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/registry.h"
#include "experiment/sinks.h"
#include "experiment/sweep.h"

namespace stclock::experiment {
namespace {

ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.cfg.n = 5;
  spec.cfg.f = 1;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 3;
  spec.horizon = 8.0;
  spec.drift = DriftKind::kRandomConstant;
  spec.delay = DelayKind::kUniform;
  return spec;
}

TEST(Registry, ListsEveryBuiltInProtocol) {
  const std::vector<std::string> names = ProtocolRegistry::global().names();
  for (const char* expected :
       {"auth", "echo", "lundelius_welch", "interactive_convergence", "gradient", "hssd",
        "leader", "leader_corrupt", "unsynchronized"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing protocol: " << expected;
  }
}

TEST(Registry, UnknownProtocolThrowsWithKnownNames) {
  ScenarioSpec spec = small_spec("no_such_protocol");
  try {
    (void)run_scenario(spec);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The error must help: it lists the registered names.
    EXPECT_NE(std::string(e.what()).find("auth"), std::string::npos);
  }
}

TEST(Registry, EveryRegisteredProtocolInstantiatesAndRuns) {
  for (const std::string& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const ScenarioResult r = run_scenario(small_spec(name));
    EXPECT_EQ(r.protocol, name);
    EXPECT_FALSE(r.skew_series.empty());
    EXPECT_GE(r.max_skew, 0.0);
    // Every protocol except the free-running control exchanges messages.
    if (name == "unsynchronized") {
      EXPECT_EQ(r.messages_sent, 0u);
    } else {
      EXPECT_GT(r.messages_sent, 0u);
    }
    // Synchronizing protocols must beat free-running drift; the skew series
    // must cover (almost) the whole horizon for everyone.
    EXPECT_GT(r.skew_series.back().first, 7.0);
  }
}

TEST(Registry, SyncEntriesDeriveBoundsAndPulse) {
  for (const std::string& name : {std::string("auth"), std::string("echo")}) {
    SCOPED_TRACE(name);
    const ScenarioResult r = run_scenario(small_spec(name));
    EXPECT_GT(r.bounds.precision, 0.0);
    EXPECT_GE(r.min_pulses, 2u);
    EXPECT_TRUE(r.live);
  }
}

TEST(SweepGrid, RowMajorProductWithLabels) {
  SweepGrid grid(small_spec("auth"));
  grid.protocols({"auth", "unsynchronized"});
  grid.axis("delay", {{"zero", [](ScenarioSpec& s) { s.delay = DelayKind::kZero; }},
                      {"max", [](ScenarioSpec& s) { s.delay = DelayKind::kMax; }}});
  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 4u);
  // First axis outermost.
  EXPECT_EQ(cells[0].labels[0].second, "auth");
  EXPECT_EQ(cells[0].labels[1].second, "zero");
  EXPECT_EQ(cells[1].labels[1].second, "max");
  EXPECT_EQ(cells[2].labels[0].second, "unsynchronized");
  EXPECT_EQ(cells[3].spec.protocol, "unsynchronized");
  EXPECT_EQ(cells[3].spec.delay, DelayKind::kMax);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(SweepGrid, PerCellReseedingIsDeterministicAndDistinct) {
  SweepGrid grid(small_spec("auth"));
  grid.protocols({"auth", "unsynchronized"});
  grid.axis("delay", {{"zero", [](ScenarioSpec& s) { s.delay = DelayKind::kZero; }},
                      {"max", [](ScenarioSpec& s) { s.delay = DelayKind::kMax; }}});
  grid.reseed_per_cell();
  const std::vector<SweepCell> once = grid.cells();
  const std::vector<SweepCell> twice = grid.cells();
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].spec.seed, twice[i].spec.seed);
    EXPECT_EQ(once[i].spec.seed, derive_cell_seed(3, once[i].spec.protocol, i));
    for (std::size_t j = i + 1; j < once.size(); ++j) {
      EXPECT_NE(once[i].spec.seed, once[j].spec.seed);
    }
  }
}

TEST(SweepGrid, CellSeedsDistinctAcrossEveryAxisIncludingProtocol) {
  // Regression for a latent seed-collision risk: the per-cell seed used to
  // depend only on (base seed, cell index), so two grids differing only in a
  // protocol axis value fed every protocol an identical random stream. An
  // 8x8 grid over all registered protocols must produce pairwise-distinct
  // seeds, and two single-protocol grids must produce disjoint seed sets.
  const std::vector<std::string> protocols = ProtocolRegistry::global().names();
  ASSERT_GE(protocols.size(), 8u);

  SweepGrid grid(small_spec("auth"));
  grid.protocols(std::vector<std::string>(protocols.begin(), protocols.begin() + 8));
  std::vector<SweepGrid::Value> reps;
  for (int r = 0; r < 8; ++r) reps.emplace_back("r" + std::to_string(r), nullptr);
  grid.axis("rep", std::move(reps));
  grid.reseed_per_cell();

  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 64u);
  std::set<std::uint64_t> seeds;
  for (const SweepCell& cell : cells) seeds.insert(cell.spec.seed);
  EXPECT_EQ(seeds.size(), cells.size());

  // Same grid shape, same base seed, different base protocol: no overlap.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_NE(derive_cell_seed(3, "auth", i), derive_cell_seed(3, "echo", i))
        << "cells differing only in protocol collided at index " << i;
  }
}

TEST(SweepRunner, GridResultsIdenticalAcrossThreadCounts) {
  // The acceptance bar of the redesign: a 2x2 grid, same seeds, must produce
  // bitwise-identical metrics whether run serially or on 4 workers.
  SweepGrid grid(small_spec("auth"));
  grid.protocols({"auth", "lundelius_welch"});
  grid.axis("delay", {{"uniform", [](ScenarioSpec& s) { s.delay = DelayKind::kUniform; }},
                      {"split", [](ScenarioSpec& s) { s.delay = DelayKind::kSplit; }}});
  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 4u);

  const std::vector<ScenarioResult> serial = SweepRunner(1).run(cells);
  const std::vector<ScenarioResult> parallel = SweepRunner(4).run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].protocol, parallel[i].protocol);
    EXPECT_EQ(serial[i].max_skew, parallel[i].max_skew);
    EXPECT_EQ(serial[i].steady_skew, parallel[i].steady_skew);
    EXPECT_EQ(serial[i].messages_sent, parallel[i].messages_sent);
    EXPECT_EQ(serial[i].bytes_sent, parallel[i].bytes_sent);
    EXPECT_EQ(serial[i].skew_series, parallel[i].skew_series);
  }
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  std::vector<ScenarioSpec> specs(3, small_spec("auth"));
  specs[1].protocol = "no_such_protocol";
  EXPECT_THROW((void)SweepRunner(3).run(specs), std::out_of_range);
}

TEST(Sinks, CsvHasHeaderAndOneRowPerCell) {
  SweepGrid grid(small_spec("auth"));
  grid.protocols({"auth", "unsynchronized"});
  const std::vector<SweepCell> cells = grid.cells();
  const std::vector<ScenarioResult> results = SweepRunner(2).run(cells);

  std::ostringstream os;
  write_csv(os, cells, results);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("cell,protocol"), std::string::npos);
  EXPECT_NE(csv.find("max_skew"), std::string::npos);
  EXPECT_NE(csv.find("messages_sent"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1 + cells.size());
}

TEST(Sinks, JsonContainsLabelsSpecAndResult) {
  SweepGrid grid(small_spec("auth"));
  grid.protocols({"auth"});
  const std::vector<SweepCell> cells = grid.cells();
  const std::vector<ScenarioResult> results = SweepRunner(1).run(cells);

  std::ostringstream os;
  write_json(os, cells, results);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"labels\": {\"protocol\": \"auth\"}"), std::string::npos);
  EXPECT_NE(json.find("\"max_skew\": "), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 3"), std::string::npos);
}

TEST(Engine, BaselineModeRejectsJoiners) {
  ScenarioSpec spec = small_spec("lundelius_welch");
  spec.joiners = 1;
  EXPECT_THROW((void)run_scenario(spec), std::logic_error);
}

TEST(Engine, ResolvedSpecAppliesRegistryPrepare) {
  ScenarioSpec spec = small_spec("leader_corrupt");
  spec.attack = AttackKind::kNone;
  spec.cfg.f = 0;
  const ScenarioSpec resolved = resolved_spec(spec);
  EXPECT_EQ(resolved.attack, AttackKind::kLeaderLie);
  EXPECT_EQ(resolved.cfg.f, 1u);
  // Unknown protocols pass through untouched (run_scenario still throws).
  EXPECT_EQ(resolved_spec(small_spec("no_such_protocol")).protocol, "no_such_protocol");
}

TEST(Sinks, DumpTheSpecThatActuallyRan) {
  // The registry's prepare hook forces the leader-lie attack; the dump must
  // record that, not the pre-resolution request (attack = none).
  SweepGrid grid(small_spec("leader_corrupt"));
  const std::vector<SweepCell> cells = grid.cells();
  const std::vector<ScenarioResult> results = SweepRunner(1).run(cells);
  std::ostringstream os;
  write_json(os, cells, results);
  EXPECT_NE(os.str().find("\"attack\": \"leader-lie\""), std::string::npos) << os.str();
}

TEST(Engine, LeaderCorruptForcesTheLie) {
  // The registry's prepare hook must install the leader-lie attack even when
  // the caller asked for no attack at all.
  ScenarioSpec spec = small_spec("leader_corrupt");
  spec.attack = AttackKind::kNone;
  const ScenarioResult r = run_scenario(spec);
  // Followers slave to a clock running 10% fast: accuracy is destroyed.
  EXPECT_GT(r.envelope.max_rate, 1.05);
}

}  // namespace
}  // namespace stclock::experiment
