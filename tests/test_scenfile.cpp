#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dense_fixtures.h"
#include "experiment/registry.h"
#include "experiment/sinks.h"
#include "experiment/sweep.h"
#include "scenfile/scenfile.h"

/// Positive-path tests for the scenario-file layer: a JSON grid must be
/// exactly equivalent to the same grid written in C++ — same cells, same
/// labels, same sink bytes — and sharding a grid with --cells semantics then
/// merging the dumps must reproduce the unsharded dump byte for byte.
namespace stclock::scenfile {
namespace {

using experiment::ScenarioResult;
using experiment::ScenarioSpec;
using experiment::SweepCell;
using experiment::SweepGrid;
using experiment::SweepRunner;

constexpr const char* kGridText = R"({
  "base": {
    "protocol": "auth",
    "n": 5,
    "f": 1,
    "rho": 0.0001,
    "tdel": 0.01,
    "period": 1.0,
    "initial_sync": 0.005,
    "seed": 3,
    "horizon": 6.0,
    "drift": "rand-const",
    "delay": "uniform"
  },
  "axes": [
    {"name": "protocol", "values": ["auth", "unsynchronized"]},
    {"name": "seed", "values": [1, 2, 3]}
  ]
})";

ScenarioSpec compiled_base() {
  ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.n = 5;
  spec.cfg.f = 1;
  spec.cfg.rho = 0.0001;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 3;
  spec.horizon = 6.0;
  spec.drift = DriftKind::kRandomConstant;
  spec.delay = DelayKind::kUniform;
  return spec;
}

SweepGrid compiled_grid() {
  SweepGrid grid(compiled_base());
  grid.protocols({"auth", "unsynchronized"});
  std::vector<SweepGrid::Value> seeds;
  for (const std::uint64_t s : {1, 2, 3}) {
    seeds.emplace_back(std::to_string(s),
                       [s](ScenarioSpec& spec) { spec.seed = s; });
  }
  grid.axis("seed", std::move(seeds));
  return grid;
}

TEST(ScenfileGrid, CellsMatchTheEquivalentCompiledGrid) {
  const std::vector<SweepCell> parsed = parse_grid(kGridText).cells();
  const std::vector<SweepCell> compiled = compiled_grid().cells();
  ASSERT_EQ(parsed.size(), compiled.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(parsed[i].index, compiled[i].index);
    EXPECT_EQ(parsed[i].labels, compiled[i].labels);
    EXPECT_EQ(parsed[i].spec.protocol, compiled[i].spec.protocol);
    EXPECT_EQ(parsed[i].spec.seed, compiled[i].spec.seed);
    EXPECT_EQ(parsed[i].spec.cfg.n, compiled[i].spec.cfg.n);
    EXPECT_EQ(parsed[i].spec.drift, compiled[i].spec.drift);
  }
}

TEST(ScenfileGrid, SinkDumpsMatchTheEquivalentCompiledGridByteForByte) {
  // The acceptance bar of the scenario-file layer: running a file-defined
  // grid must reproduce the compiled-in grid's CSV and JSON exactly.
  const std::vector<SweepCell> parsed = parse_grid(kGridText).cells();
  const std::vector<SweepCell> compiled = compiled_grid().cells();
  const std::vector<ScenarioResult> parsed_results = SweepRunner(2).run(parsed);
  const std::vector<ScenarioResult> compiled_results = SweepRunner(1).run(compiled);

  std::ostringstream json_a, json_b, csv_a, csv_b;
  experiment::write_json(json_a, parsed, parsed_results);
  experiment::write_json(json_b, compiled, compiled_results);
  experiment::write_csv(csv_a, parsed, parsed_results);
  experiment::write_csv(csv_b, compiled, compiled_results);
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(ScenfileGrid, ShardedRunsMergeByteIdenticalToUnsharded) {
  const std::vector<SweepCell> cells = parse_grid(kGridText).cells();
  ASSERT_EQ(cells.size(), 6u);
  const std::vector<ScenarioResult> results = SweepRunner(2).run(cells);

  std::ostringstream full_json, full_csv;
  experiment::write_json(full_json, cells, results);
  experiment::write_csv(full_csv, cells, results);

  // Shard as scenrun --cells does: slice the cell list, keep global indices.
  const auto dump_shard = [&cells, &results](std::size_t lo, std::size_t hi, bool json) {
    const std::vector<SweepCell> shard_cells(cells.begin() + static_cast<std::ptrdiff_t>(lo),
                                             cells.begin() + static_cast<std::ptrdiff_t>(hi));
    const std::vector<ScenarioResult> shard_results(
        results.begin() + static_cast<std::ptrdiff_t>(lo),
        results.begin() + static_cast<std::ptrdiff_t>(hi));
    std::ostringstream os;
    if (json) {
      experiment::write_json(os, shard_cells, shard_results);
    } else {
      experiment::write_csv(os, shard_cells, shard_results);
    }
    return os.str();
  };

  // Merge out of order to prove the merge sorts by global cell index.
  EXPECT_EQ(merge_json_sinks({dump_shard(4, 6, true), dump_shard(0, 4, true)}),
            full_json.str());
  EXPECT_EQ(merge_csv_sinks({dump_shard(4, 6, false), dump_shard(0, 4, false)}),
            full_csv.str());
}

TEST(ScenfileGrid, MergeRejectsDuplicateCells) {
  const std::vector<SweepCell> cells = parse_grid(kGridText).cells();
  const std::vector<ScenarioResult> results = SweepRunner(2).run(cells);
  std::ostringstream os;
  experiment::write_json(os, cells, results);
  EXPECT_THROW((void)merge_json_sinks({os.str(), os.str()}), ScenarioFileError);
}

TEST(ScenfileSpec, JsonRoundTripPreservesEveryField) {
  ScenarioSpec spec;
  spec.protocol = "echo";
  spec.cfg.n = 10;
  spec.cfg.f = 3;
  spec.cfg.rho = 1.25e-3;
  spec.cfg.tdel = 0.0125;
  spec.cfg.period = 1.5;
  spec.cfg.alpha = 0.04;
  spec.cfg.initial_sync = 0.006;
  spec.cfg.allow_unsynchronized_start = true;
  spec.cfg.adjust = AdjustMode::kAmortized;
  spec.cfg.amortize_window = 0.25;
  spec.delta = 0.075;
  spec.seed = 0xDEADBEEFCAFEBABEULL;  // needs all 64 bits to survive
  spec.horizon = 17.5;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kAlternating;
  spec.attack = AttackKind::kSleeper;
  spec.topology = TopologyKind::kGnp;
  spec.gnp_p = 0.8125;
  spec.topology_seed = 0xFEEDFACE12345678ULL;
  spec.expander_k = 12;
  spec.broadcast_mode = BroadcastMode::kSampled;
  spec.sample_size = 5;
  spec.joiners = 2;
  spec.join_time = 7.25;
  spec.corrupt_override = 1;
  spec.churn_nodes = 1;
  spec.churn_leave = 3.125;
  spec.churn_rejoin = 9.875;
  spec.partition_group = 4;
  spec.partition_start = 2.5;
  spec.partition_end = 5.5;
  spec.skew_series_interval = 0.025;
  spec.envelope_interval = 0.125;

  const ScenarioSpec back = parse_spec(spec_to_json(spec));
  EXPECT_EQ(back.protocol, spec.protocol);
  EXPECT_EQ(back.cfg.n, spec.cfg.n);
  EXPECT_EQ(back.cfg.f, spec.cfg.f);
  EXPECT_EQ(back.cfg.rho, spec.cfg.rho);
  EXPECT_EQ(back.cfg.tdel, spec.cfg.tdel);
  EXPECT_EQ(back.cfg.period, spec.cfg.period);
  EXPECT_EQ(back.cfg.alpha, spec.cfg.alpha);
  EXPECT_EQ(back.cfg.initial_sync, spec.cfg.initial_sync);
  EXPECT_EQ(back.cfg.allow_unsynchronized_start, spec.cfg.allow_unsynchronized_start);
  EXPECT_EQ(back.cfg.adjust, spec.cfg.adjust);
  EXPECT_EQ(back.cfg.amortize_window, spec.cfg.amortize_window);
  EXPECT_EQ(back.delta, spec.delta);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.horizon, spec.horizon);
  EXPECT_EQ(back.drift, spec.drift);
  EXPECT_EQ(back.delay, spec.delay);
  EXPECT_EQ(back.attack, spec.attack);
  EXPECT_EQ(back.topology, spec.topology);
  EXPECT_EQ(back.gnp_p, spec.gnp_p);
  EXPECT_EQ(back.topology_seed, spec.topology_seed);
  EXPECT_EQ(back.expander_k, spec.expander_k);
  EXPECT_EQ(back.broadcast_mode, spec.broadcast_mode);
  EXPECT_EQ(back.sample_size, spec.sample_size);
  EXPECT_EQ(back.joiners, spec.joiners);
  EXPECT_EQ(back.join_time, spec.join_time);
  EXPECT_EQ(back.corrupt_override, spec.corrupt_override);
  EXPECT_EQ(back.churn_nodes, spec.churn_nodes);
  EXPECT_EQ(back.churn_leave, spec.churn_leave);
  EXPECT_EQ(back.churn_rejoin, spec.churn_rejoin);
  EXPECT_EQ(back.partition_group, spec.partition_group);
  EXPECT_EQ(back.partition_start, spec.partition_start);
  EXPECT_EQ(back.partition_end, spec.partition_end);
  EXPECT_EQ(back.skew_series_interval, spec.skew_series_interval);
  EXPECT_EQ(back.envelope_interval, spec.envelope_interval);
}

/// spec_to_json of the dense spec is the cache-key input: its bytes are the
/// key of every stored cell, so they are pinned literally.
constexpr const char* kDenseSpecJson =
    "{\n"
    "  \"protocol\": \"echo\",\n"
    "  \"n\": 10,\n"
    "  \"f\": 3,\n"
    "  \"rho\": 0.00125,\n"
    "  \"tdel\": 0.012500000000000001,\n"
    "  \"period\": 1.5,\n"
    "  \"alpha\": 0.10000000000000001,\n"
    "  \"initial_sync\": 0.0060000000000000001,\n"
    "  \"allow_unsynchronized_start\": true,\n"
    "  \"adjust\": \"amortized\",\n"
    "  \"amortize_window\": 0.25,\n"
    "  \"delta\": 0.074999999999999997,\n"
    "  \"seed\": 16045690984503098046,\n"
    "  \"horizon\": 17.5,\n"
    "  \"drift\": \"extremal\",\n"
    "  \"delay\": \"alternating\",\n"
    "  \"attack\": \"sleeper\",\n"
    "  \"topology\": \"gnp\",\n"
    "  \"gnp_p\": 0.8125,\n"
    "  \"topology_seed\": 18369614218089748088,\n"
    "  \"expander_k\": 12,\n"
    "  \"broadcast_mode\": \"sampled\",\n"
    "  \"sample_size\": 5,\n"
    "  \"topology_events\": [{\"at\": 2.5, \"remove\": [0, 1]}, {\"at\": 4, \"add\": [1, 2]}, "
    "{\"at\": 6.25, \"set\": \"torus\"}],\n"
    "  \"joiners\": 2,\n"
    "  \"join_time\": 7.25,\n"
    "  \"corrupt_override\": 1,\n"
    "  \"corrupt_at\": [3.5, 8.75],\n"
    "  \"corrupt_fraction\": 0.5,\n"
    "  \"corrupt_kinds\": \"clocks,state\",\n"
    "  \"churn_nodes\": 1,\n"
    "  \"churn_leave\": 3.125,\n"
    "  \"churn_rejoin\": 9.875,\n"
    "  \"partition_group\": 4,\n"
    "  \"partition_start\": 2.75,\n"
    "  \"partition_end\": 5.5,\n"
    "  \"skew_series_interval\": 0.025000000000000001,\n"
    "  \"envelope_interval\": 0.125,\n"
    "  \"sim_threads\": 4\n"
    "}\n";

TEST(ScenfileSpec, DenseSpecSerializesToPinnedBytesAndRoundTrips) {
  const ScenarioSpec spec = experiment::dense::spec();
  EXPECT_EQ(spec_to_json(spec), kDenseSpecJson);
  EXPECT_EQ(spec_to_json(parse_spec(kDenseSpecJson)), kDenseSpecJson);

  // The fields JsonRoundTripPreservesEveryField leaves out.
  const ScenarioSpec back = parse_spec(spec_to_json(spec));
  ASSERT_EQ(back.topology_events.size(), spec.topology_events.size());
  for (std::size_t i = 0; i < spec.topology_events.size(); ++i) {
    SCOPED_TRACE("topology_events[" + std::to_string(i) + "]");
    EXPECT_EQ(back.topology_events[i].kind, spec.topology_events[i].kind);
    EXPECT_EQ(back.topology_events[i].at, spec.topology_events[i].at);
    EXPECT_EQ(back.topology_events[i].a, spec.topology_events[i].a);
    EXPECT_EQ(back.topology_events[i].b, spec.topology_events[i].b);
    if (spec.topology_events[i].kind == experiment::TopologyEventSpec::Kind::kSetGraph) {
      EXPECT_EQ(back.topology_events[i].set, spec.topology_events[i].set);
    }
  }
  EXPECT_EQ(back.corrupt_at, spec.corrupt_at);
  EXPECT_EQ(back.corrupt_kinds, spec.corrupt_kinds);
  EXPECT_EQ(back.sim_threads, spec.sim_threads);
}

TEST(ScenfileSpec, StringFieldsAreEscapedSoAnyRegisteredNameRoundTrips) {
  // The registry accepts any non-empty name; spec_to_json must quote and
  // escape it as a string so the cache-key text still parses back.
  const std::string name = "we\"ird";
  experiment::ProtocolRegistry& registry = experiment::ProtocolRegistry::global();
  if (registry.find(name) == nullptr) {
    experiment::ProtocolRegistry::Entry entry = registry.at("unsynchronized");
    entry.name = name;
    registry.add(std::move(entry));
  }
  ScenarioSpec spec;
  spec.protocol = name;
  const std::string json = spec_to_json(spec);
  EXPECT_NE(json.find(R"("protocol": "we\"ird",)"), std::string::npos) << json;
  EXPECT_EQ(parse_spec(json).protocol, name);
  EXPECT_EQ(spec_to_json(parse_spec(json)), json);
}

TEST(ScenfileSpec, UnknownFieldErrorsListAllKnownFieldsInOrder) {
  const auto error_of = [](auto parse) -> std::string {
    try {
      parse();
    } catch (const ScenarioFileError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of([] { (void)parse_spec(R"({"bogus": 1})"); }),
    "<spec>:1: spec.bogus: unknown field (known: protocol, n, f, rho, tdel, period, alpha, "
    "initial_sync, allow_unsynchronized_start, adjust, amortize_window, delta, seed, "
    "horizon, drift, delay, attack, topology, gnp_p, topology_seed, expander_k, "
    "broadcast_mode, sample_size, topology_events, joiners, join_time, corrupt_override, "
    "corrupt_at, corrupt_fraction, corrupt_kinds, churn_nodes, churn_leave, churn_rejoin, "
    "partition_group, partition_start, partition_end, skew_series_interval, "
    "envelope_interval, sim_threads)");
  EXPECT_EQ(error_of([] {
              (void)parse_grid(R"({"axes": [{"name": "bogus", "values": [1]}]})");
            }),
    "<grid>:1: axes[0].name: unknown axis field \"bogus\" (known: protocol, n, f, rho, tdel, "
    "period, alpha, initial_sync, allow_unsynchronized_start, adjust, amortize_window, "
    "delta, seed, horizon, drift, delay, attack, topology, gnp_p, topology_seed, expander_k, "
    "broadcast_mode, sample_size, topology_events, joiners, join_time, corrupt_override, "
    "corrupt_at, corrupt_fraction, corrupt_kinds, churn_nodes, churn_leave, churn_rejoin, "
    "partition_group, partition_start, partition_end, skew_series_interval, "
    "envelope_interval, sim_threads)");
}

/// Checks one enum's name table against its printer and the scenario-file
/// parser: the table lists every enumerator in declaration order (ending at
/// `last`), names are unique, the printer reads the table, every printed
/// name round-trips through a one-field spec except `unparseable` (which is
/// rejected), and the "unknown" error lists exactly the parseable names.
template <typename Enum, std::size_t N, typename Print, typename Field>
void expect_names_round_trip(const char* field, const EnumName<Enum> (&table)[N], Enum last,
                             Print print, Field get,
                             std::optional<std::type_identity_t<Enum>> unparseable = {}) {
  SCOPED_TRACE(field);
  EXPECT_EQ(table[N - 1].value, last);
  std::set<std::string> names;
  std::string known;
  for (std::size_t i = 0; i < N; ++i) {
    const Enum value = static_cast<Enum>(i);
    EXPECT_EQ(table[i].value, value);
    EXPECT_STREQ(print(value), table[i].name);
    names.insert(print(value));
    const std::string one_field = std::string("{\"") + field + "\": \"" + print(value) + "\"}";
    if (unparseable == value) {
      EXPECT_THROW((void)parse_spec(one_field), ScenarioFileError) << print(value);
      continue;
    }
    EXPECT_EQ(get(parse_spec(one_field)), value) << print(value);
    known += known.empty() ? print(value) : std::string(", ") + print(value);
  }
  EXPECT_EQ(names.size(), N) << "duplicate name";

  try {
    (void)parse_spec(std::string("{\"") + field + "\": \"bogus\"}");
    ADD_FAILURE() << "expected ScenarioFileError";
  } catch (const ScenarioFileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"bogus\" (known: " + known + ")"), std::string::npos) << what;
  }
}

TEST(ScenfileSpec, EveryEnumNameRoundTripsThroughItsOneTable) {
  expect_names_round_trip("drift", kDriftNames, DriftKind::kExtremal, drift_name,
                          [](const ScenarioSpec& s) { return s.drift; });
  expect_names_round_trip("delay", kDelayNames, DelayKind::kPerLink, delay_name,
                          [](const ScenarioSpec& s) { return s.delay; });
  expect_names_round_trip("attack", kAttackNames, AttackKind::kSleeper, attack_name,
                          [](const ScenarioSpec& s) { return s.attack; });
  // custom stays printable, but no scenario file may name it.
  expect_names_round_trip("topology", kTopologyKindNames, TopologyKind::kCustom,
                          topology_kind_name, [](const ScenarioSpec& s) { return s.topology; },
                          TopologyKind::kCustom);
  expect_names_round_trip("broadcast_mode", kBroadcastModeNames, BroadcastMode::kSampled,
                          broadcast_mode_name,
                          [](const ScenarioSpec& s) { return s.broadcast_mode; });
  // adjust has no printer of its own: spec_to_json reads the table.
  const auto adjust_name = [](AdjustMode mode) {
    ScenarioSpec spec;
    spec.cfg.adjust = mode;
    const std::string json = spec_to_json(spec);
    for (const auto& [name, value] : kAdjustModeNames) {
      if (json.find(std::string("\"adjust\": \"") + name + "\"") != std::string::npos) {
        return name;
      }
    }
    return "missing";
  };
  expect_names_round_trip("adjust", kAdjustModeNames, AdjustMode::kAmortized, adjust_name,
                          [](const ScenarioSpec& s) { return s.cfg.adjust; });
}

TEST(ScenfileCellRange, ParsesHalfOpenGlobalRanges) {
  EXPECT_EQ(parse_cell_range("0:4", 8), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(parse_cell_range("4:8", 8), (std::pair<std::size_t, std::size_t>{4, 8}));
  EXPECT_THROW((void)parse_cell_range("4:4", 8), ScenarioFileError);   // empty
  EXPECT_THROW((void)parse_cell_range("5:3", 8), ScenarioFileError);   // reversed
  EXPECT_THROW((void)parse_cell_range("0:9", 8), ScenarioFileError);   // past the end
  EXPECT_THROW((void)parse_cell_range("0-4", 8), ScenarioFileError);   // wrong separator
  EXPECT_THROW((void)parse_cell_range("a:b", 8), ScenarioFileError);   // not numbers
}

TEST(ScenfileExamples, CheckedInGridsLoadAndDescribeTheNewWorkloads) {
  const std::string dir = std::string(STCLOCK_SOURCE_DIR) + "/examples/scenarios/";

  const std::vector<SweepCell> churn = load_grid_file(dir + "churn_grid.json").cells();
  ASSERT_EQ(churn.size(), 6u);
  for (const SweepCell& cell : churn) {
    EXPECT_EQ(cell.spec.churn_nodes, 2u);
    EXPECT_LT(cell.spec.churn_leave, cell.spec.churn_rejoin);
  }

  const std::vector<SweepCell> partition =
      load_grid_file(dir + "partition_heal_grid.json").cells();
  ASSERT_EQ(partition.size(), 12u);
  for (const SweepCell& cell : partition) {
    EXPECT_GT(cell.spec.partition_group, 0u);
    EXPECT_LT(cell.spec.partition_start, cell.spec.partition_end);
  }

  const std::vector<SweepCell> topo =
      load_grid_file(dir + "ring_vs_complete_grid.json").cells();
  ASSERT_EQ(topo.size(), 8u);
  EXPECT_EQ(topo.front().spec.topology, TopologyKind::kComplete);
  EXPECT_EQ(topo.back().spec.topology, TopologyKind::kGnp);

  // The scale grids: auth, f = 0, seed 1, topology_seed 1, no attack. Only
  // the two sub-10^6 grids load here — load-time validation of
  // thread_curve_grid.json and frontier_grid.json builds their 10^6- and
  // 10^7-node graphs.
  const auto expect_scale_base = [](const ScenarioSpec& spec) {
    EXPECT_EQ(spec.protocol, "auth");
    EXPECT_EQ(spec.cfg.f, 0u);
    EXPECT_EQ(spec.cfg.rho, 1e-4);
    EXPECT_EQ(spec.cfg.tdel, 0.01);
    EXPECT_EQ(spec.cfg.period, 1.0);
    EXPECT_EQ(spec.cfg.initial_sync, 0.005);
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.topology_seed, 1u);
    EXPECT_EQ(spec.attack, AttackKind::kNone);
    EXPECT_EQ(spec.drift, DriftKind::kRandomWalk);
    EXPECT_EQ(spec.delay, DelayKind::kUniform);
    EXPECT_EQ(spec.horizon, 5.0);
    EXPECT_EQ(spec.sim_threads, 1u);
  };
  const std::vector<SweepCell> sparse =
      load_grid_file(dir + "scale/sparse_fabric_grid.json").cells();
  ASSERT_EQ(sparse.size(), 3u);
  const std::uint32_t sparse_n[] = {1000, 4096, 100000};
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    const ScenarioSpec& spec = sparse[i].spec;
    expect_scale_base(spec);
    EXPECT_EQ(spec.cfg.n, sparse_n[i]);
    EXPECT_EQ(spec.topology, TopologyKind::kExpander);
    EXPECT_EQ(spec.expander_k, 16u);
    EXPECT_EQ(spec.broadcast_mode, BroadcastMode::kSampled);
    EXPECT_EQ(spec.sample_size, 8u);
  }
  const std::vector<SweepCell> full =
      load_grid_file(dir + "scale/full_fanout_grid.json").cells();
  ASSERT_EQ(full.size(), 1u);
  expect_scale_base(full[0].spec);
  EXPECT_EQ(full[0].spec.cfg.n, 1000u);
  EXPECT_EQ(full[0].spec.topology, TopologyKind::kComplete);
  EXPECT_EQ(full[0].spec.broadcast_mode, BroadcastMode::kFull);
}

TEST(ScenfileExamples, TopologyGridCellReportsLocalSkew) {
  const std::string dir = std::string(STCLOCK_SOURCE_DIR) + "/examples/scenarios/";
  const std::vector<SweepCell> cells =
      load_grid_file(dir + "ring_vs_complete_grid.json").cells();
  // A ring cell: local skew is a genuine (<=) refinement of the global
  // spread, and it lands in the sink columns.
  const SweepCell* ring = nullptr;
  for (const SweepCell& cell : cells) {
    if (cell.spec.topology == TopologyKind::kRing) ring = &cell;
  }
  ASSERT_NE(ring, nullptr);
  const ScenarioResult r = experiment::run_scenario(ring->spec);
  EXPECT_GT(r.local_skew, 0.0);
  EXPECT_LE(r.local_skew, r.max_skew);

  std::ostringstream csv;
  experiment::write_csv(csv, {*ring}, {r});
  EXPECT_NE(csv.str().find("local_skew"), std::string::npos);
  EXPECT_NE(csv.str().find(",ring,"), std::string::npos);
}

TEST(ScenfileExamples, ChurnGridCellRunsAndReintegrates) {
  const std::string dir = std::string(STCLOCK_SOURCE_DIR) + "/examples/scenarios/";
  const std::vector<SweepCell> cells = load_grid_file(dir + "churn_grid.json").cells();
  const ScenarioResult r = experiment::run_scenario(cells.front().spec);
  EXPECT_TRUE(r.churned_rejoined);
  EXPECT_GE(r.rejoin_latency, 0.0);
  EXPECT_TRUE(r.live);
}

TEST(ScenfileExamples, PartitionGridCellRunsAndDropsCrossCutTraffic) {
  const std::string dir = std::string(STCLOCK_SOURCE_DIR) + "/examples/scenarios/";
  const std::vector<SweepCell> cells = load_grid_file(dir + "partition_heal_grid.json").cells();
  const ScenarioResult r = experiment::run_scenario(cells.front().spec);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.events_dispatched, 0u);
}

}  // namespace
}  // namespace stclock::scenfile
