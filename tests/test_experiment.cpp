#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dense_fixtures.h"
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

/// Two fabricated cells, no scenario run: the dense spec and result under two
/// axis labels (one array-valued, so CSV must quote it), and a default spec
/// whose result is all defaults but an infinite skew (JSON must quote it).
std::pair<std::vector<SweepCell>, std::vector<ScenarioResult>> fabricated_cells() {
  ScenarioResult plain;
  plain.protocol = "auth";
  plain.max_skew = std::numeric_limits<double>::infinity();
  return {{SweepCell{7, {{"n", "10"}, {"topology_events", R"([{"at":1}])"}}, dense::spec()},
           SweepCell{9, {{"n", "4"}}, ScenarioSpec{}}},
          {dense::result(), plain}};
}

TEST(Sinks, CsvBytesArePinned) {
  const auto [cells, results] = fabricated_cells();
  std::ostringstream os;
  write_csv(os, cells, results);
  EXPECT_EQ(os.str(),
    "cell,n,topology_events,protocol,n,f,rho,tdel,period,delta,seed,horizon,drift,delay,"
    "attack,topology,gnp_p,topology_seed,expander_k,broadcast_mode,sample_size,"
    "topology_events,joiners,corrupt_override,corrupt_at,corrupt_fraction,corrupt_kinds,"
    "churn_nodes,churn_leave,churn_rejoin,partition_group,partition_start,partition_end,"
    "max_skew,steady_skew,local_skew,steady_local_skew,precision_bound,pulse_spread,"
    "min_period,max_period,min_pulses,max_pulses,live,min_rate,max_rate,rate_fit_tolerance,"
    "join_latency,joiners_integrated,rejoin_latency,churned_rejoined,topology_epochs,"
    "corruption_events,nodes_corrupted,stabilized,stabilization_time,messages_sent,"
    "bytes_sent,messages_dropped,events_dispatched,rounds_completed\n"
    "7,10,\"[{\"\"at\"\":1}]\",echo,10,3,0.00125,0.012500000000000001,1.5,0.074999999999999997,"
    "16045690984503098046,17.5,extremal,alternating,sleeper,gnp,0.8125,18369614218089748088,"
    "12,sampled,5,3,2,1,[3.5;8.75],0.5,\"clocks,state\",1,3.125,9.875,4,2.75,5.5,0.0123,"
    "0.0044999999999999997,0.0101,0.0040000000000000001,0.031,0.0080000000000000002,"
    "0.94999999999999996,1.05,5,6,1,0.99985000000000002,1.0001500000000001,"
    "0.00069999999999999999,1.25,1,2.5,1,3,2,13,1,3.75,1234,56789,17,99999,6\n"
    "9,4,,auth,4,1,0.0001,0.01,1,0.050000000000000003,1,30,rand-walk,uniform,none,complete,"
    "0.5,1,8,full,0,0,0,0,[],1,\"clocks,timers,buffers,state\",0,5,12,0,5,10,inf,0,0,0,0,0,0,0,"
    "0,0,0,0,0,0,-1,0,-1,0,1,0,0,0,-1,0,0,0,0,0\n");
}

TEST(Sinks, JsonBytesArePinned) {
  const auto [cells, results] = fabricated_cells();
  std::ostringstream os;
  write_json(os, cells, results);
  EXPECT_EQ(os.str(),
    "[\n"
    "  {\"cell\": 7, \"labels\": {\"n\": \"10\", \"topology_events\": \"[{\\\"at\\\":1}]\"}, "
    "\"spec\": {\"protocol\": \"echo\", \"n\": 10, \"f\": 3, \"rho\": 0.00125, "
    "\"tdel\": 0.012500000000000001, \"period\": 1.5, \"delta\": 0.074999999999999997, "
    "\"seed\": 16045690984503098046, \"horizon\": 17.5, \"drift\": \"extremal\", "
    "\"delay\": \"alternating\", \"attack\": \"sleeper\", \"topology\": \"gnp\", \"gnp_p\": 0.8125, "
    "\"topology_seed\": 18369614218089748088, \"expander_k\": 12, \"broadcast_mode\": \"sampled\", "
    "\"sample_size\": 5, \"topology_events\": 3, \"joiners\": 2, \"corrupt_override\": 1, "
    "\"corrupt_at\": \"[3.5;8.75]\", \"corrupt_fraction\": 0.5, \"corrupt_kinds\": \"clocks,state\", "
    "\"churn_nodes\": 1, \"churn_leave\": 3.125, \"churn_rejoin\": 9.875, \"partition_group\": 4, "
    "\"partition_start\": 2.75, \"partition_end\": 5.5}, \"result\": {\"max_skew\": 0.0123, "
    "\"steady_skew\": 0.0044999999999999997, \"local_skew\": 0.0101, "
    "\"steady_local_skew\": 0.0040000000000000001, \"precision_bound\": 0.031, "
    "\"pulse_spread\": 0.0080000000000000002, \"min_period\": 0.94999999999999996, "
    "\"max_period\": 1.05, \"min_pulses\": 5, \"max_pulses\": 6, \"live\": 1, "
    "\"min_rate\": 0.99985000000000002, \"max_rate\": 1.0001500000000001, "
    "\"rate_fit_tolerance\": 0.00069999999999999999, \"join_latency\": 1.25, "
    "\"joiners_integrated\": 1, \"rejoin_latency\": 2.5, \"churned_rejoined\": 1, "
    "\"topology_epochs\": 3, \"corruption_events\": 2, \"nodes_corrupted\": 13, \"stabilized\": 1, "
    "\"stabilization_time\": 3.75, \"messages_sent\": 1234, \"bytes_sent\": 56789, "
    "\"messages_dropped\": 17, \"events_dispatched\": 99999, \"rounds_completed\": 6}},\n"
    "  {\"cell\": 9, \"labels\": {\"n\": \"4\"}, \"spec\": {\"protocol\": \"auth\", \"n\": 4, \"f\": 1, "
    "\"rho\": 0.0001, \"tdel\": 0.01, \"period\": 1, \"delta\": 0.050000000000000003, \"seed\": 1, "
    "\"horizon\": 30, \"drift\": \"rand-walk\", \"delay\": \"uniform\", \"attack\": \"none\", "
    "\"topology\": \"complete\", \"gnp_p\": 0.5, \"topology_seed\": 1, \"expander_k\": 8, "
    "\"broadcast_mode\": \"full\", \"sample_size\": 0, \"topology_events\": 0, \"joiners\": 0, "
    "\"corrupt_override\": 0, \"corrupt_at\": \"[]\", \"corrupt_fraction\": 1, "
    "\"corrupt_kinds\": \"clocks,timers,buffers,state\", \"churn_nodes\": 0, \"churn_leave\": 5, "
    "\"churn_rejoin\": 12, \"partition_group\": 0, \"partition_start\": 5, \"partition_end\": 10}, "
    "\"result\": {\"max_skew\": \"inf\", \"steady_skew\": 0, \"local_skew\": 0, "
    "\"steady_local_skew\": 0, \"precision_bound\": 0, \"pulse_spread\": 0, \"min_period\": 0, "
    "\"max_period\": 0, \"min_pulses\": 0, \"max_pulses\": 0, \"live\": 0, \"min_rate\": 0, "
    "\"max_rate\": 0, \"rate_fit_tolerance\": 0, \"join_latency\": -1, \"joiners_integrated\": 0, "
    "\"rejoin_latency\": -1, \"churned_rejoined\": 0, \"topology_epochs\": 1, "
    "\"corruption_events\": 0, \"nodes_corrupted\": 0, \"stabilized\": 0, "
    "\"stabilization_time\": -1, \"messages_sent\": 0, \"bytes_sent\": 0, \"messages_dropped\": 0, "
    "\"events_dispatched\": 0, \"rounds_completed\": 0}}\n"
    "]\n");
}

TEST(Sinks, StringColumnsAreQuotedWhateverTheirText) {
  // A protocol name that reads as a number is still a string in JSON.
  ProtocolRegistry& registry = ProtocolRegistry::global();
  if (registry.find("1e5") == nullptr) {
    ProtocolRegistry::Entry entry = registry.at("unsynchronized");
    entry.name = "1e5";
    registry.add(std::move(entry));
  }
  ScenarioSpec spec;
  spec.protocol = "1e5";
  std::ostringstream os;
  write_json(os, {SweepCell{0, {}, spec}}, {ScenarioResult{}});
  EXPECT_NE(os.str().find(R"("spec": {"protocol": "1e5", "n": 4,)"), std::string::npos)
      << os.str();
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
