#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "experiment/sinks.h"
#include "experiment/sweep.h"
#include "scenfile/json.h"

/// Scenario files: define a full experiment — one ScenarioSpec plus a
/// SweepGrid over it — in JSON, so experiments run without recompiling.
///
/// Grid document shape (all keys optional, defaults = ScenarioSpec{}):
///
///   {
///     "base":  { "protocol": "auth", "n": 7, "f": 3, "tdel": 0.01, ... },
///     "axes":  [ {"name": "protocol", "values": ["auth", "echo"]},
///                {"name": "n",        "values": [4, 7, 10]},
///                {"name": "seed",     "values": [1, 2, 3]} ],
///     "reseed_per_cell": false
///   }
///
/// "base" accepts all 39 ScenarioSpec fields, under the names of the one
/// field table that spec_to_json and spec_columns also read. They include
/// the dynamic "topology_events" list of timed {"at": T, "add"/"remove":
/// [a, b]} / {"at": T, "set": "ring"} graph mutations; an axis may range
/// over any field — so one grid can sweep complete vs ring vs gnp, a gnp_p
/// density axis, or (the one array-valued axis) whole edge-failure windows
/// via topology_events. The loader is strict: unknown keys, wrong types,
/// out-of-range values, unregistered protocols, and duplicate axes are hard
/// errors that name the offending field and source line (ScenarioFileError),
/// and every materialized cell is pre-validated against the engine's own
/// rules (experiment::validate_spec) so a bad grid fails at load time, not
/// mid-sweep.
namespace stclock::scenfile {

/// Deserializes one ScenarioSpec from a "base"-shaped JSON object.
[[nodiscard]] experiment::ScenarioSpec spec_from_json(const JsonValue& value,
                                                      const std::string& source,
                                                      const std::string& path = "spec");

/// Parses a ScenarioSpec from JSON text (a bare "base" object).
[[nodiscard]] experiment::ScenarioSpec parse_spec(const std::string& text,
                                                  const std::string& source = "<spec>");

/// Serializes every ScenarioSpec field to JSON, bit-exactly round-trippable
/// through parse_spec (doubles at max_digits10, 64-bit seeds as integers).
/// This is the cell key's input (resultstore/cache_key.h).
[[nodiscard]] std::string spec_to_json(const experiment::ScenarioSpec& spec);

/// The spec columns of the CSV/JSON sinks: 30 of the 39 fields, in
/// spec_to_json order and under the same names. topology_events prints as
/// its event count and corrupt_at as "[a;b]".
[[nodiscard]] std::vector<experiment::SinkField> spec_columns(
    const experiment::ScenarioSpec& spec);

/// Parses and fully validates a grid document from JSON text.
[[nodiscard]] experiment::SweepGrid parse_grid(const std::string& text,
                                               const std::string& source = "<grid>");

/// Reads and parses a grid file from disk.
[[nodiscard]] experiment::SweepGrid load_grid_file(const std::string& path);

/// Parses a "A:B" cell range (half-open, global indices) against a grid of
/// `total` cells. Throws ScenarioFileError for malformed, empty, or
/// out-of-bounds ranges.
[[nodiscard]] std::pair<std::size_t, std::size_t> parse_cell_range(const std::string& range,
                                                                   std::size_t total);

/// Deterministically merges shard outputs of experiment::write_json (e.g.
/// from `scenrun --cells A:B`) into one document: records are re-ordered by
/// their global cell index. Merging shards that cover all cells yields a
/// document byte-identical to the unsharded dump. Duplicate cell indices and
/// unparseable records are errors.
[[nodiscard]] std::string merge_json_sinks(const std::vector<std::string>& shards);

/// Same, for experiment::write_csv outputs: shards must agree on the header
/// row; data rows are re-ordered by the leading cell index.
[[nodiscard]] std::string merge_csv_sinks(const std::vector<std::string>& shards);

}  // namespace stclock::scenfile
