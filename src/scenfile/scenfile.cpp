#include "scenfile/scenfile.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>

#include "experiment/registry.h"

namespace stclock::scenfile {

using experiment::ProtocolRegistry;
using experiment::ScenarioSpec;
using experiment::SweepGrid;

namespace {

[[noreturn]] void fail_at(const std::string& source, int line, const std::string& path,
                          const std::string& msg) {
  throw ScenarioFileError(source + ":" + std::to_string(line) + ": " + path + ": " + msg);
}

// --- Typed readers -----------------------------------------------------------

void require_kind(const JsonValue& v, JsonValue::Kind kind, const char* kind_name,
                  const std::string& source, const std::string& path) {
  if (v.kind != kind) {
    fail_at(source, v.line, path,
            std::string("expected ") + kind_name + ", got " + v.kind_name());
  }
}

double as_double(const JsonValue& v, const std::string& source, const std::string& path) {
  require_kind(v, JsonValue::Kind::kNumber, "number", source, path);
  return v.number;
}

bool as_bool(const JsonValue& v, const std::string& source, const std::string& path) {
  require_kind(v, JsonValue::Kind::kBool, "bool", source, path);
  return v.boolean;
}

const std::string& as_string(const JsonValue& v, const std::string& source,
                             const std::string& path) {
  require_kind(v, JsonValue::Kind::kString, "string", source, path);
  return v.text;
}

std::uint64_t as_u64(const JsonValue& v, const std::string& source, const std::string& path) {
  require_kind(v, JsonValue::Kind::kNumber, "number", source, path);
  if (v.raw.find_first_of(".eE-") != std::string::npos) {
    fail_at(source, v.line, path, "expected a non-negative integer, got " + v.raw);
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(v.raw.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    fail_at(source, v.line, path, "integer out of range: " + v.raw);
  }
  return out;
}

std::uint32_t as_u32(const JsonValue& v, const std::string& source, const std::string& path) {
  const std::uint64_t out = as_u64(v, source, path);
  if (out > std::numeric_limits<std::uint32_t>::max()) {
    fail_at(source, v.line, path, "integer out of range: " + v.raw);
  }
  return static_cast<std::uint32_t>(out);
}

double as_positive(const JsonValue& v, const std::string& source, const std::string& path) {
  const double out = as_double(v, source, path);
  if (!(out > 0)) fail_at(source, v.line, path, "must be positive, got " + v.raw);
  return out;
}

double as_non_negative(const JsonValue& v, const std::string& source,
                       const std::string& path) {
  const double out = as_double(v, source, path);
  if (!(out >= 0)) fail_at(source, v.line, path, "must be non-negative, got " + v.raw);
  return out;
}

// --- Enum names --------------------------------------------------------------

template <typename Enum, std::size_t N>
Enum enum_from_name(const JsonValue& v, std::span<const EnumName<Enum>, N> table,
                    const char* what, const std::string& source, const std::string& path) {
  const std::string& name = as_string(v, source, path);
  std::string known;
  for (const auto& [entry_name, value] : table) {
    if (name == entry_name) return value;
    known += known.empty() ? entry_name : std::string(", ") + entry_name;
  }
  fail_at(source, v.line, path,
          std::string("unknown ") + what + " \"" + name + "\" (known: " + known + ")");
}

/// Scenario files accept every topology kind but kCustom, the table's last.
static_assert(std::end(kTopologyKindNames)[-1].value == TopologyKind::kCustom);
constexpr auto kFileTopologyKinds =
    std::span(kTopologyKindNames).first<std::size(kTopologyKindNames) - 1>();

// --- Topology events ---------------------------------------------------------

/// Parses one "topology_events" element: {"at": T, "add": [a, b]} /
/// {"at": T, "remove": [a, b]} / {"at": T, "set": "ring"}. Structural
/// errors (types, arity, self-loops, missing/extra keys) fail here with the
/// element's line; node-range and connectivity checks need the final n and
/// run in the engine's validate_spec (surfacing at load time per cell).
experiment::TopologyEventSpec event_from_json(const JsonValue& v, const std::string& source,
                                              const std::string& path) {
  using Kind = experiment::TopologyEventSpec::Kind;
  require_kind(v, JsonValue::Kind::kObject, "object", source, path);
  experiment::TopologyEventSpec event;
  const JsonValue* at = v.find("at");
  if (at == nullptr) fail_at(source, v.line, path, "missing \"at\"");
  event.at = as_positive(*at, source, path + ".at");

  const JsonValue* action = nullptr;
  for (const auto& [key, value] : v.object) {
    if (key == "at") continue;
    if (key != "add" && key != "remove" && key != "set") {
      fail_at(source, value.line, path + "." + key, "unknown key (known: at, add, remove, set)");
    }
    if (action != nullptr) {
      fail_at(source, value.line, path, "need exactly one of \"add\", \"remove\", \"set\"");
    }
    action = &value;
    if (key == "set") {
      event.kind = Kind::kSetGraph;
      event.set = enum_from_name(value, kFileTopologyKinds, "topology kind", source,
                                 path + ".set");
    } else {
      event.kind = key == "add" ? Kind::kAddEdge : Kind::kRemoveEdge;
      const std::string edge_path = path + "." + key;
      require_kind(value, JsonValue::Kind::kArray, "array", source, edge_path);
      if (value.array.size() != 2) {
        fail_at(source, value.line, edge_path, "expected an edge [a, b]");
      }
      event.a = as_u32(value.array[0], source, edge_path + "[0]");
      event.b = as_u32(value.array[1], source, edge_path + "[1]");
      if (event.a == event.b) {
        fail_at(source, value.line, edge_path, "edge endpoints must be distinct");
      }
    }
  }
  if (action == nullptr) {
    fail_at(source, v.line, path, "need exactly one of \"add\", \"remove\", \"set\"");
  }
  return event;
}

std::vector<experiment::TopologyEventSpec> events_from_json(const JsonValue& v,
                                                            const std::string& source,
                                                            const std::string& path) {
  require_kind(v, JsonValue::Kind::kArray, "array", source, path);
  std::vector<experiment::TopologyEventSpec> events;
  events.reserve(v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    const std::string element = path + "[" + std::to_string(i) + "]";
    events.push_back(event_from_json(v.array[i], source, element));
    if (i > 0 && events[i].at < events[i - 1].at) {
      fail_at(source, v.array[i].line, element + ".at",
              "topology_events times must be non-decreasing");
    }
  }
  return events;
}

// --- Corruption fields -------------------------------------------------------

/// Parses "corrupt_at": a single positive number or a non-decreasing array of
/// them. A scalar means one corruption event, which also makes the field
/// usable as a plain sweep axis.
std::vector<RealTime> corrupt_at_from_json(const JsonValue& v, const std::string& source,
                                           const std::string& path) {
  std::vector<RealTime> out;
  if (v.kind == JsonValue::Kind::kNumber) {
    out.push_back(as_positive(v, source, path));
    return out;
  }
  require_kind(v, JsonValue::Kind::kArray, "number or array", source, path);
  out.reserve(v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    const std::string element = path + "[" + std::to_string(i) + "]";
    out.push_back(as_positive(v.array[i], source, element));
    if (i > 0 && out[i] < out[i - 1]) {
      fail_at(source, v.array[i].line, element, "corrupt_at times must be non-decreasing");
    }
  }
  return out;
}

/// Parses "corrupt_kinds": "all" or a comma-separated subset of
/// "clocks,timers,buffers,state". Unknown names and duplicates are errors.
std::uint32_t corrupt_kinds_from_json(const JsonValue& v, const std::string& source,
                                      const std::string& path) {
  const std::string& text = as_string(v, source, path);
  std::uint32_t kinds = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string token =
        text.substr(begin, comma == std::string::npos ? std::string::npos : comma - begin);
    const std::uint32_t bit = corrupt_kind_bit(token);
    if (bit == 0) {
      fail_at(source, v.line, path,
              "unknown corruption kind \"" + token +
                  "\" (known: clocks, timers, buffers, state, all)");
    }
    if ((kinds & bit) == bit && bit != kCorruptAll) {
      fail_at(source, v.line, path, "duplicate corruption kind \"" + token + "\"");
    }
    kinds |= bit;
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return kinds;
}

// --- Field catalog -----------------------------------------------------------

/// Applies one named scalar field to a spec; shared by the "base" object and
/// axis values, so both accept exactly the same fields under the same names
/// (which are also the sinks' column names). Returns false for unknown names.
bool apply_field(ScenarioSpec& spec, const std::string& field, const JsonValue& v,
                 const std::string& source, const std::string& path) {
  if (field == "protocol") {
    const std::string& name = as_string(v, source, path);
    if (ProtocolRegistry::global().find(name) == nullptr) {
      std::string known;
      for (const std::string& p : ProtocolRegistry::global().names()) {
        known += known.empty() ? p : ", " + p;
      }
      fail_at(source, v.line, path,
              "unregistered protocol \"" + name + "\" (known: " + known + ")");
    }
    spec.protocol = name;
  } else if (field == "n") {
    spec.cfg.n = as_u32(v, source, path);
    if (spec.cfg.n == 0) fail_at(source, v.line, path, "need at least one node");
  } else if (field == "f") {
    spec.cfg.f = as_u32(v, source, path);
  } else if (field == "rho") {
    spec.cfg.rho = as_non_negative(v, source, path);
  } else if (field == "tdel") {
    spec.cfg.tdel = as_positive(v, source, path);
  } else if (field == "period") {
    spec.cfg.period = as_positive(v, source, path);
  } else if (field == "alpha") {
    spec.cfg.alpha = as_non_negative(v, source, path);
  } else if (field == "initial_sync") {
    spec.cfg.initial_sync = as_non_negative(v, source, path);
  } else if (field == "allow_unsynchronized_start") {
    spec.cfg.allow_unsynchronized_start = as_bool(v, source, path);
  } else if (field == "adjust") {
    spec.cfg.adjust = enum_from_name(v, std::span(kAdjustModeNames), "adjust mode", source, path);
  } else if (field == "amortize_window") {
    spec.cfg.amortize_window = as_non_negative(v, source, path);
  } else if (field == "delta") {
    spec.delta = as_positive(v, source, path);
  } else if (field == "seed") {
    spec.seed = as_u64(v, source, path);
  } else if (field == "horizon") {
    spec.horizon = as_positive(v, source, path);
  } else if (field == "drift") {
    spec.drift = enum_from_name(v, std::span(kDriftNames), "drift kind", source, path);
  } else if (field == "delay") {
    spec.delay = enum_from_name(v, std::span(kDelayNames), "delay kind", source, path);
  } else if (field == "attack") {
    spec.attack = enum_from_name(v, std::span(kAttackNames), "attack kind", source, path);
  } else if (field == "topology") {
    spec.topology = enum_from_name(v, kFileTopologyKinds, "topology kind", source, path);
  } else if (field == "gnp_p") {
    spec.gnp_p = as_double(v, source, path);
    if (!(spec.gnp_p > 0 && spec.gnp_p <= 1)) {
      fail_at(source, v.line, path, "edge probability must lie in (0, 1], got " + v.raw);
    }
  } else if (field == "topology_seed") {
    spec.topology_seed = as_u64(v, source, path);
  } else if (field == "expander_k") {
    spec.expander_k = as_u32(v, source, path);
    if (spec.expander_k < 2 || spec.expander_k % 2 != 0) {
      fail_at(source, v.line, path,
              "expander degree must be even and >= 2, got " + v.raw);
    }
  } else if (field == "broadcast_mode") {
    spec.broadcast_mode =
        enum_from_name(v, std::span(kBroadcastModeNames), "broadcast mode", source, path);
  } else if (field == "sample_size") {
    spec.sample_size = as_u32(v, source, path);
  } else if (field == "topology_events") {
    spec.topology_events = events_from_json(v, source, path);
  } else if (field == "joiners") {
    spec.joiners = as_u32(v, source, path);
  } else if (field == "join_time") {
    spec.join_time = as_positive(v, source, path);
  } else if (field == "corrupt_override") {
    spec.corrupt_override = as_u32(v, source, path);
  } else if (field == "corrupt_at") {
    spec.corrupt_at = corrupt_at_from_json(v, source, path);
  } else if (field == "corrupt_fraction") {
    spec.corrupt_fraction = as_double(v, source, path);
    if (!(spec.corrupt_fraction > 0 && spec.corrupt_fraction <= 1)) {
      fail_at(source, v.line, path, "corrupt_fraction must lie in (0, 1], got " + v.raw);
    }
  } else if (field == "corrupt_kinds") {
    spec.corrupt_kinds = corrupt_kinds_from_json(v, source, path);
  } else if (field == "churn_nodes") {
    spec.churn_nodes = as_u32(v, source, path);
  } else if (field == "churn_leave") {
    spec.churn_leave = as_positive(v, source, path);
  } else if (field == "churn_rejoin") {
    spec.churn_rejoin = as_positive(v, source, path);
  } else if (field == "partition_group") {
    spec.partition_group = as_u32(v, source, path);
  } else if (field == "partition_start") {
    spec.partition_start = as_non_negative(v, source, path);
  } else if (field == "partition_end") {
    spec.partition_end = as_positive(v, source, path);
  } else if (field == "skew_series_interval") {
    spec.skew_series_interval = as_positive(v, source, path);
  } else if (field == "envelope_interval") {
    spec.envelope_interval = as_positive(v, source, path);
  } else if (field == "sim_threads") {
    spec.sim_threads = as_u32(v, source, path);
    if (spec.sim_threads < 1 || spec.sim_threads > 64) {
      fail_at(source, v.line, path, "sim_threads must lie in [1, 64], got " + v.raw);
    }
  } else {
    return false;
  }
  return true;
}

constexpr const char* kKnownFields =
    "protocol, n, f, rho, tdel, period, alpha, initial_sync, "
    "allow_unsynchronized_start, adjust, amortize_window, delta, seed, horizon, "
    "drift, delay, attack, topology, gnp_p, topology_seed, expander_k, "
    "broadcast_mode, sample_size, topology_events, "
    "joiners, join_time, "
    "corrupt_override, corrupt_at, corrupt_fraction, corrupt_kinds, "
    "churn_nodes, churn_leave, churn_rejoin, partition_group, "
    "partition_start, partition_end, skew_series_interval, envelope_interval, "
    "sim_threads";

/// Compact single-line re-serialization, used to label array-valued axis
/// cells (e.g. a topology_events sweep) in sinks and summaries.
std::string compact_json(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return v.raw;
    case JsonValue::Kind::kString: return "\"" + v.text + "\"";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ",";
        out += compact_json(v.array[i]);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : v.object) {
        if (!first) out += ",";
        first = false;
        out += "\"" + key + "\":" + compact_json(value);
      }
      return out + "}";
    }
  }
  return "";
}

/// The display label an axis value contributes to its cell: the literal
/// token for scalars (so the label in sinks matches the file text), a
/// compact re-serialization for arrays (the topology_events sweep axis).
std::string value_label(const JsonValue& v, const std::string& source,
                        const std::string& path) {
  switch (v.kind) {
    case JsonValue::Kind::kString: return v.text;
    case JsonValue::Kind::kNumber: return v.raw;
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kArray: return compact_json(v);
    default:
      fail_at(source, v.line, path,
              std::string("axis values must be scalars or arrays, got ") + v.kind_name());
  }
}

std::string cell_context(const experiment::SweepCell& cell) {
  std::string out = "cell " + std::to_string(cell.index);
  if (!cell.labels.empty()) {
    out += " (";
    bool first = true;
    for (const auto& [axis, value] : cell.labels) {
      if (!first) out += ", ";
      first = false;
      out += axis + "=" + value;
    }
    out += ")";
  }
  return out;
}

/// Load-time cell validation: every materialized cell must satisfy exactly
/// the constraints the engine enforces at run time (resilience bounds,
/// joiner/churn/partition structure), with the cell named in the error.
void validate_cells(const SweepGrid& grid, const std::string& source) {
  for (const experiment::SweepCell& cell : grid.cells()) {
    const ProtocolRegistry::Entry* entry =
        ProtocolRegistry::global().find(cell.spec.protocol);
    if (entry == nullptr) {
      throw ScenarioFileError(source + ": " + cell_context(cell) +
                              ": unregistered protocol \"" + cell.spec.protocol + "\"");
    }
    try {
      experiment::validate_spec(experiment::resolved_spec(cell.spec), entry->mode);
    } catch (const std::logic_error& e) {
      throw ScenarioFileError(source + ": " + cell_context(cell) + ": " + e.what());
    }
  }
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace

ScenarioSpec spec_from_json(const JsonValue& value, const std::string& source,
                            const std::string& path) {
  require_kind(value, JsonValue::Kind::kObject, "object", source, path);
  ScenarioSpec spec;
  for (const auto& [field, v] : value.object) {
    if (!apply_field(spec, field, v, source, path + "." + field)) {
      fail_at(source, v.line, path + "." + field,
              std::string("unknown field (known: ") + kKnownFields + ")");
    }
  }
  return spec;
}

ScenarioSpec parse_spec(const std::string& text, const std::string& source) {
  return spec_from_json(parse_json(text, source), source);
}

std::string spec_to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "{\n";
  const auto str = [&os](const char* key, const std::string& v) {
    os << "  \"" << key << "\": \"" << v << "\",\n";
  };
  const auto num = [&os](const char* key, const std::string& v, bool last = false) {
    os << "  \"" << key << "\": " << v << (last ? "\n" : ",\n");
  };
  str("protocol", spec.protocol);
  num("n", std::to_string(spec.cfg.n));
  num("f", std::to_string(spec.cfg.f));
  num("rho", fmt_double(spec.cfg.rho));
  num("tdel", fmt_double(spec.cfg.tdel));
  num("period", fmt_double(spec.cfg.period));
  num("alpha", fmt_double(spec.cfg.alpha));
  num("initial_sync", fmt_double(spec.cfg.initial_sync));
  os << "  \"allow_unsynchronized_start\": "
     << (spec.cfg.allow_unsynchronized_start ? "true" : "false") << ",\n";
  str("adjust", enum_name(kAdjustModeNames, spec.cfg.adjust));
  num("amortize_window", fmt_double(spec.cfg.amortize_window));
  num("delta", fmt_double(spec.delta));
  num("seed", std::to_string(spec.seed));
  num("horizon", fmt_double(spec.horizon));
  str("drift", drift_name(spec.drift));
  str("delay", delay_name(spec.delay));
  str("attack", attack_name(spec.attack));
  str("topology", topology_kind_name(spec.topology));
  num("gnp_p", fmt_double(spec.gnp_p));
  num("topology_seed", std::to_string(spec.topology_seed));
  num("expander_k", std::to_string(spec.expander_k));
  str("broadcast_mode", broadcast_mode_name(spec.broadcast_mode));
  num("sample_size", std::to_string(spec.sample_size));
  os << "  \"topology_events\": [";
  for (std::size_t i = 0; i < spec.topology_events.size(); ++i) {
    const experiment::TopologyEventSpec& ev = spec.topology_events[i];
    if (i > 0) os << ", ";
    os << "{\"at\": " << fmt_double(ev.at) << ", ";
    switch (ev.kind) {
      case experiment::TopologyEventSpec::Kind::kAddEdge:
        os << "\"add\": [" << ev.a << ", " << ev.b << "]";
        break;
      case experiment::TopologyEventSpec::Kind::kRemoveEdge:
        os << "\"remove\": [" << ev.a << ", " << ev.b << "]";
        break;
      case experiment::TopologyEventSpec::Kind::kSetGraph:
        os << "\"set\": \"" << topology_kind_name(ev.set) << "\"";
        break;
    }
    os << "}";
  }
  os << "],\n";
  num("joiners", std::to_string(spec.joiners));
  num("join_time", fmt_double(spec.join_time));
  num("corrupt_override", std::to_string(spec.corrupt_override));
  os << "  \"corrupt_at\": [";
  for (std::size_t i = 0; i < spec.corrupt_at.size(); ++i) {
    if (i > 0) os << ", ";
    os << fmt_double(spec.corrupt_at[i]);
  }
  os << "],\n";
  num("corrupt_fraction", fmt_double(spec.corrupt_fraction));
  str("corrupt_kinds", corrupt_kinds_name(spec.corrupt_kinds));
  num("churn_nodes", std::to_string(spec.churn_nodes));
  num("churn_leave", fmt_double(spec.churn_leave));
  num("churn_rejoin", fmt_double(spec.churn_rejoin));
  num("partition_group", std::to_string(spec.partition_group));
  num("partition_start", fmt_double(spec.partition_start));
  num("partition_end", fmt_double(spec.partition_end));
  num("skew_series_interval", fmt_double(spec.skew_series_interval));
  num("envelope_interval", fmt_double(spec.envelope_interval));
  num("sim_threads", std::to_string(spec.sim_threads), /*last=*/true);
  os << "}\n";
  return os.str();
}

SweepGrid parse_grid(const std::string& text, const std::string& source) {
  const JsonValue doc = parse_json(text, source);
  require_kind(doc, JsonValue::Kind::kObject, "object", source, "grid");
  for (const auto& [key, v] : doc.object) {
    if (key != "base" && key != "axes" && key != "reseed_per_cell") {
      fail_at(source, v.line, key, "unknown key (known: base, axes, reseed_per_cell)");
    }
  }

  ScenarioSpec base;
  if (const JsonValue* b = doc.find("base")) base = spec_from_json(*b, source, "base");

  SweepGrid grid(base);
  if (const JsonValue* axes = doc.find("axes")) {
    require_kind(*axes, JsonValue::Kind::kArray, "array", source, "axes");
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < axes->array.size(); ++i) {
      const JsonValue& axis = axes->array[i];
      const std::string path = "axes[" + std::to_string(i) + "]";
      require_kind(axis, JsonValue::Kind::kObject, "object", source, path);
      for (const auto& [key, v] : axis.object) {
        if (key != "name" && key != "values") {
          fail_at(source, v.line, path + "." + key, "unknown key (known: name, values)");
        }
      }
      const JsonValue* name_v = axis.find("name");
      if (name_v == nullptr) fail_at(source, axis.line, path, "missing \"name\"");
      const std::string& name = as_string(*name_v, source, path + ".name");
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
        fail_at(source, name_v->line, path + ".name", "duplicate axis \"" + name + "\"");
      }
      seen.push_back(name);

      const JsonValue* values_v = axis.find("values");
      if (values_v == nullptr) fail_at(source, axis.line, path, "missing \"values\"");
      require_kind(*values_v, JsonValue::Kind::kArray, "array", source, path + ".values");
      if (values_v->array.empty()) {
        fail_at(source, values_v->line, path + ".values", "axis needs at least one value");
      }

      std::vector<SweepGrid::Value> values;
      values.reserve(values_v->array.size());
      for (std::size_t j = 0; j < values_v->array.size(); ++j) {
        const JsonValue& v = values_v->array[j];
        const std::string value_path = path + ".values[" + std::to_string(j) + "]";
        std::string label = value_label(v, source, value_path);
        // Dry-run the applier now so a bad value fails at its source line
        // (the mutator itself runs later, against each cell).
        ScenarioSpec probe = base;
        if (!apply_field(probe, name, v, source, value_path)) {
          fail_at(source, name_v->line, path + ".name",
                  "unknown axis field \"" + name + "\" (known: " + kKnownFields + ")");
        }
        JsonValue captured = v;
        std::string field = name;
        std::string src = source;
        values.emplace_back(std::move(label),
                            [captured, field, src, value_path](ScenarioSpec& spec) {
                              apply_field(spec, field, captured, src, value_path);
                            });
      }
      grid.axis(name, std::move(values));
    }
  }

  if (const JsonValue* reseed = doc.find("reseed_per_cell")) {
    grid.reseed_per_cell(as_bool(*reseed, source, "reseed_per_cell"));
  }

  validate_cells(grid, source);
  return grid;
}

SweepGrid load_grid_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioFileError(path + ": cannot open scenario file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_grid(buffer.str(), path);
}

std::pair<std::size_t, std::size_t> parse_cell_range(const std::string& range,
                                                     std::size_t total) {
  const std::size_t colon = range.find(':');
  const auto parse_index = [&range](const std::string& token) -> std::size_t {
    if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
      throw ScenarioFileError("--cells: malformed range \"" + range +
                              "\" (expected A:B with non-negative integers)");
    }
    return static_cast<std::size_t>(std::strtoull(token.c_str(), nullptr, 10));
  };
  if (colon == std::string::npos) {
    throw ScenarioFileError("--cells: malformed range \"" + range + "\" (expected A:B)");
  }
  const std::size_t lo = parse_index(range.substr(0, colon));
  const std::size_t hi = parse_index(range.substr(colon + 1));
  if (lo >= hi) {
    throw ScenarioFileError("--cells: empty range \"" + range + "\" (need A < B)");
  }
  if (hi > total) {
    throw ScenarioFileError("--cells: range \"" + range + "\" exceeds the grid (" +
                            std::to_string(total) + " cells)");
  }
  return {lo, hi};
}

std::string merge_json_sinks(const std::vector<std::string>& shards) {
  // One record per line is part of write_json's format contract; the merge
  // keeps each record's bytes untouched so the result is byte-identical to
  // an unsharded dump over the same cells.
  std::vector<std::pair<std::uint64_t, std::string>> records;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string source = "shard " + std::to_string(s);
    std::istringstream in(shards[s]);
    std::string line;
    if (!std::getline(in, line) || line != "[") {
      throw ScenarioFileError(source + ": not a JSON sink dump (expected \"[\" first line)");
    }
    bool closed = false;
    while (std::getline(in, line)) {
      if (line == "]") {
        closed = true;
        break;
      }
      std::string record = line;
      if (!record.empty() && record.back() == ',') record.pop_back();
      const JsonValue parsed = parse_json(record, source);
      const JsonValue* cell = parsed.find("cell");
      if (parsed.kind != JsonValue::Kind::kObject || cell == nullptr ||
          cell->kind != JsonValue::Kind::kNumber) {
        throw ScenarioFileError(source + ": record without a \"cell\" index: " + record);
      }
      records.emplace_back(as_u64(*cell, source, "cell"), std::move(record));
    }
    if (!closed) throw ScenarioFileError(source + ": truncated dump (missing \"]\")");
  }

  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].first == records[i - 1].first) {
      throw ScenarioFileError("duplicate cell " + std::to_string(records[i].first) +
                              " across shards");
    }
  }

  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += records[i].second;
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

std::string merge_csv_sinks(const std::vector<std::string>& shards) {
  std::string header;
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string source = "shard " + std::to_string(s);
    std::istringstream in(shards[s]);
    std::string line;
    if (!std::getline(in, line) || line.rfind("cell", 0) != 0) {
      throw ScenarioFileError(source + ": not a CSV sink dump (expected a header row)");
    }
    if (header.empty()) {
      header = line;
    } else if (line != header) {
      throw ScenarioFileError(source + ": CSV header differs from the first shard's");
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t comma = line.find(',');
      const std::string index = line.substr(0, comma);
      if (index.empty() || index.find_first_not_of("0123456789") != std::string::npos) {
        throw ScenarioFileError(source + ": CSV row without a cell index: " + line);
      }
      rows.emplace_back(std::strtoull(index.c_str(), nullptr, 10), line);
    }
  }

  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].first == rows[i - 1].first) {
      throw ScenarioFileError("duplicate cell " + std::to_string(rows[i].first) +
                              " across shards");
    }
  }

  std::string out = header + "\n";
  for (const auto& [index, row] : rows) {
    (void)index;
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace stclock::scenfile
