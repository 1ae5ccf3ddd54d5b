#include "experiment/sinks.h"

#include <ostream>
#include <string>

#include "scenfile/json.h"
#include "scenfile/scenfile.h"
#include "util/contracts.h"
#include "util/table.h"

namespace stclock::experiment {

namespace {

using scenfile::format_double;
using scenfile::json_escape;

/// Axis names in order of first appearance across all cells.
std::vector<std::string> label_columns(const std::vector<SweepCell>& cells) {
  std::vector<std::string> columns;
  for (const SweepCell& cell : cells) {
    for (const auto& [axis, value] : cell.labels) {
      (void)value;
      bool seen = false;
      for (const std::string& column : columns) seen = seen || column == axis;
      if (!seen) columns.push_back(axis);
    }
  }
  return columns;
}

std::string label_value(const SweepCell& cell, const std::string& axis) {
  for (const auto& [name, value] : cell.labels) {
    if (name == axis) return value;
  }
  return "";
}

std::vector<SinkField> result_fields(const ScenarioResult& r) {
  return {
      {"max_skew", format_double(r.max_skew)},
      {"steady_skew", format_double(r.steady_skew)},
      {"local_skew", format_double(r.local_skew)},
      {"steady_local_skew", format_double(r.steady_local_skew)},
      {"precision_bound", format_double(r.bounds.precision)},
      {"pulse_spread", format_double(r.pulse_spread)},
      {"min_period", format_double(r.min_period)},
      {"max_period", format_double(r.max_period)},
      {"min_pulses", std::to_string(r.min_pulses)},
      {"max_pulses", std::to_string(r.max_pulses)},
      {"live", r.live ? "1" : "0"},
      {"min_rate", format_double(r.envelope.min_rate)},
      {"max_rate", format_double(r.envelope.max_rate)},
      {"rate_fit_tolerance", format_double(r.rate_fit_tolerance)},
      {"join_latency", format_double(r.join_latency)},
      {"joiners_integrated", r.joiners_integrated ? "1" : "0"},
      {"rejoin_latency", format_double(r.rejoin_latency)},
      {"churned_rejoined", r.churned_rejoined ? "1" : "0"},
      {"topology_epochs", std::to_string(r.topology_epochs)},
      {"corruption_events", std::to_string(r.corruption_events)},
      {"nodes_corrupted", std::to_string(r.nodes_corrupted)},
      {"stabilized", r.stabilized ? "1" : "0"},
      {"stabilization_time", format_double(r.stabilization_time)},
      {"messages_sent", std::to_string(r.messages_sent)},
      {"bytes_sent", std::to_string(r.bytes_sent)},
      {"messages_dropped", std::to_string(r.messages_dropped)},
      {"events_dispatched", std::to_string(r.events_dispatched)},
      {"rounds_completed", std::to_string(r.rounds_completed)},
  };
}

/// max_digits10 text is a JSON number unless it spells inf or nan.
bool json_number(const std::string& text) { return text.find('n') == std::string::npos; }

void write_json_object(std::ostream& os, const std::vector<SinkField>& fields) {
  os << '{';
  bool first = true;
  for (const SinkField& field : fields) {
    if (!first) os << ", ";
    first = false;
    os << '"' << field.name << "\": ";
    if (field.quoted || !json_number(field.text)) {
      os << '"' << json_escape(field.text) << '"';
    } else {
      os << field.text;
    }
  }
  os << '}';
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<SweepCell>& cells,
               const std::vector<ScenarioResult>& results) {
  ST_REQUIRE(cells.size() == results.size(), "write_csv: cells/results size mismatch");
  const std::vector<std::string> axes = label_columns(cells);

  os << "cell";
  for (const std::string& axis : axes) os << ',' << csv_escape(axis);
  if (!cells.empty()) {
    for (const SinkField& field : scenfile::spec_columns(cells[0].spec)) os << ',' << field.name;
    for (const SinkField& field : result_fields(results[0])) os << ',' << field.name;
  }
  os << '\n';

  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << cells[i].index;
    for (const std::string& axis : axes) os << ',' << csv_escape(label_value(cells[i], axis));
    // Record what actually ran (the registry's prepare hook applied), not
    // the pre-resolution request.
    for (const SinkField& field : scenfile::spec_columns(resolved_spec(cells[i].spec))) {
      os << ',' << csv_escape(field.text);
    }
    for (const SinkField& field : result_fields(results[i])) os << ',' << csv_escape(field.text);
    os << '\n';
  }
}

void write_json(std::ostream& os, const std::vector<SweepCell>& cells,
                const std::vector<ScenarioResult>& results) {
  ST_REQUIRE(cells.size() == results.size(), "write_json: cells/results size mismatch");
  os << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << "  {\"cell\": " << cells[i].index << ", \"labels\": {";
    bool first = true;
    for (const auto& [axis, value] : cells[i].labels) {
      if (!first) os << ", ";
      first = false;
      os << '"' << json_escape(axis) << "\": \"" << json_escape(value) << '"';
    }
    os << "}, \"spec\": ";
    write_json_object(os, scenfile::spec_columns(resolved_spec(cells[i].spec)));
    os << ", \"result\": ";
    write_json_object(os, result_fields(results[i]));
    os << '}' << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  os << "]\n";
}

}  // namespace stclock::experiment
