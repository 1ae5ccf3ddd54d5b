#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/sweep.h"

/// Machine-readable sinks for sweep output. Both emit one record per cell
/// with the cell's axis labels, the resolved spec parameters, and the full
/// metric set, so downstream plotting/analysis never needs bespoke parsing
/// per experiment.
namespace stclock::experiment {

/// One field as the sinks print it. CSV writes `text`; JSON writes it quoted
/// and escaped when `quoted`, and as a bare number otherwise (a non-finite
/// number, which JSON cannot spell, is quoted too).
struct SinkField {
  const char* name;
  std::string text;
  bool quoted = false;
};

/// RFC-4180-ish CSV: one header row (axis labels first, in order of first
/// appearance across cells, then spec and metric columns), one row per cell.
void write_csv(std::ostream& os, const std::vector<SweepCell>& cells,
               const std::vector<ScenarioResult>& results);

/// A JSON array of {"labels": {...}, "spec": {...}, "result": {...}} objects.
void write_json(std::ostream& os, const std::vector<SweepCell>& cells,
                const std::vector<ScenarioResult>& results);

}  // namespace stclock::experiment
