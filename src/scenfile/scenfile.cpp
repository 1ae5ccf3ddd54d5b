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

/// A JSON value with what its errors name: the input's source and the
/// value's path in the document.
struct Value {
  const JsonValue& json;
  const std::string& source;
  const std::string& path;

  [[noreturn]] void fail(const std::string& msg) const { fail_at(source, json.line, path, msg); }
};

// --- Typed readers -----------------------------------------------------------

void require_kind(Value v, JsonValue::Kind kind, const char* kind_name) {
  if (v.json.kind != kind) {
    v.fail(std::string("expected ") + kind_name + ", got " + v.json.kind_name());
  }
}

double as_double(Value v) {
  require_kind(v, JsonValue::Kind::kNumber, "number");
  return v.json.number;
}

bool as_bool(Value v) {
  require_kind(v, JsonValue::Kind::kBool, "bool");
  return v.json.boolean;
}

const std::string& as_string(Value v) {
  require_kind(v, JsonValue::Kind::kString, "string");
  return v.json.text;
}

std::uint64_t as_u64(Value v) {
  require_kind(v, JsonValue::Kind::kNumber, "number");
  const std::string& raw = v.json.raw;
  if (raw.find_first_of(".eE-") != std::string::npos) {
    v.fail("expected a non-negative integer, got " + raw);
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(raw.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') v.fail("integer out of range: " + raw);
  return out;
}

std::uint32_t as_u32(Value v) {
  const std::uint64_t out = as_u64(v);
  if (out > std::numeric_limits<std::uint32_t>::max()) {
    v.fail("integer out of range: " + v.json.raw);
  }
  return static_cast<std::uint32_t>(out);
}

/// Fails with "<what>, got <the value's text>" unless `ok`.
void require(Value v, bool ok, const std::string& what) {
  if (!ok) v.fail(what + ", got " + v.json.raw);
}

double as_positive(Value v) {
  const double out = as_double(v);
  require(v, out > 0, "must be positive");
  return out;
}

double as_non_negative(Value v) {
  const double out = as_double(v);
  require(v, out >= 0, "must be non-negative");
  return out;
}

// --- Enum names --------------------------------------------------------------

template <typename Enum, std::size_t N>
Enum enum_from_name(Value v, std::span<const EnumName<Enum>, N> table, const char* what) {
  const std::string& name = as_string(v);
  std::string known;
  for (const auto& [entry_name, value] : table) {
    if (name == entry_name) return value;
    known += known.empty() ? entry_name : std::string(", ") + entry_name;
  }
  v.fail(std::string("unknown ") + what + " \"" + name + "\" (known: " + known + ")");
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
experiment::TopologyEventSpec event_from_json(Value v) {
  using Kind = experiment::TopologyEventSpec::Kind;
  require_kind(v, JsonValue::Kind::kObject, "object");
  experiment::TopologyEventSpec event;
  const JsonValue* at = v.json.find("at");
  if (at == nullptr) v.fail("missing \"at\"");
  event.at = as_positive({*at, v.source, v.path + ".at"});

  const JsonValue* action = nullptr;
  for (const auto& [key, value] : v.json.object) {
    if (key == "at") continue;
    const std::string path = v.path + "." + key;
    if (key != "add" && key != "remove" && key != "set") {
      fail_at(v.source, value.line, path, "unknown key (known: at, add, remove, set)");
    }
    if (action != nullptr) {
      fail_at(v.source, value.line, v.path, "need exactly one of \"add\", \"remove\", \"set\"");
    }
    action = &value;
    const Value edge{value, v.source, path};
    if (key == "set") {
      event.kind = Kind::kSetGraph;
      event.set = enum_from_name(edge, kFileTopologyKinds, "topology kind");
    } else {
      event.kind = key == "add" ? Kind::kAddEdge : Kind::kRemoveEdge;
      require_kind(edge, JsonValue::Kind::kArray, "array");
      if (value.array.size() != 2) edge.fail("expected an edge [a, b]");
      event.a = as_u32({value.array[0], v.source, path + "[0]"});
      event.b = as_u32({value.array[1], v.source, path + "[1]"});
      if (event.a == event.b) edge.fail("edge endpoints must be distinct");
    }
  }
  if (action == nullptr) v.fail("need exactly one of \"add\", \"remove\", \"set\"");
  return event;
}

std::vector<experiment::TopologyEventSpec> events_from_json(Value v) {
  require_kind(v, JsonValue::Kind::kArray, "array");
  std::vector<experiment::TopologyEventSpec> events;
  events.reserve(v.json.array.size());
  for (std::size_t i = 0; i < v.json.array.size(); ++i) {
    const std::string element = v.path + "[" + std::to_string(i) + "]";
    events.push_back(event_from_json({v.json.array[i], v.source, element}));
    if (i > 0 && events[i].at < events[i - 1].at) {
      fail_at(v.source, v.json.array[i].line, element + ".at",
              "topology_events times must be non-decreasing");
    }
  }
  return events;
}

// --- Corruption fields -------------------------------------------------------

/// Parses "corrupt_at": a single positive number or a non-decreasing array of
/// them. A scalar means one corruption event, which also makes the field
/// usable as a plain sweep axis.
std::vector<RealTime> corrupt_at_from_json(Value v) {
  if (v.json.kind == JsonValue::Kind::kNumber) return {as_positive(v)};
  require_kind(v, JsonValue::Kind::kArray, "number or array");
  std::vector<RealTime> out;
  out.reserve(v.json.array.size());
  for (std::size_t i = 0; i < v.json.array.size(); ++i) {
    const std::string path = v.path + "[" + std::to_string(i) + "]";
    const Value element{v.json.array[i], v.source, path};
    out.push_back(as_positive(element));
    if (i > 0 && out[i] < out[i - 1]) element.fail("corrupt_at times must be non-decreasing");
  }
  return out;
}

/// Parses "corrupt_kinds": "all" or a comma-separated subset of
/// "clocks,timers,buffers,state". Unknown names and duplicates are errors.
std::uint32_t corrupt_kinds_from_json(Value v) {
  const std::string& text = as_string(v);
  std::uint32_t kinds = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string token =
        text.substr(begin, comma == std::string::npos ? std::string::npos : comma - begin);
    const std::uint32_t bit = corrupt_kind_bit(token);
    if (bit == 0) {
      v.fail("unknown corruption kind \"" + token +
             "\" (known: clocks, timers, buffers, state, all)");
    }
    if ((kinds & bit) == bit && bit != kCorruptAll) {
      v.fail("duplicate corruption kind \"" + token + "\"");
    }
    kinds |= bit;
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return kinds;
}

// --- Field table -------------------------------------------------------------

/// How a field's text is written as JSON: kString text is quoted and
/// escaped, every other type is written as it is.
enum class JsonType { kNumber, kBool, kString, kArray };

using Spec = ScenarioSpec;
using Text = std::string (*)(const Spec&);

/// One ScenarioSpec field. Its name is the key in scenario files and in
/// spec_to_json, and the column name in the sinks.
struct SpecField {
  const char* name;
  JsonType type;
  /// Whether the sinks print the field as a column.
  bool column;
  /// Reads and validates the value; throws ScenarioFileError naming it.
  void (*apply)(Spec&, Value);
  /// The canonical text spec_to_json writes, bit-exact through apply.
  Text text;
  /// The list fields' sink column, a summary in place of `text`.
  Text summary = nullptr;
  JsonType summary_type = JsonType::kNumber;
};

std::string times_text(const std::vector<RealTime>& times, const char* separator) {
  std::string out = "[";
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i > 0) out += separator;
    out += format_double(times[i]);
  }
  return out + "]";
}

std::string events_text(const std::vector<experiment::TopologyEventSpec>& events) {
  using Kind = experiment::TopologyEventSpec::Kind;
  std::string out = "[";
  for (const experiment::TopologyEventSpec& ev : events) {
    if (out.size() > 1) out += ", ";
    out += "{\"at\": " + format_double(ev.at) + ", ";
    if (ev.kind == Kind::kSetGraph) {
      out += std::string("\"set\": \"") + topology_kind_name(ev.set) + "\"}";
    } else {
      out += ev.kind == Kind::kAddEdge ? "\"add\": [" : "\"remove\": [";
      out += std::to_string(ev.a) + ", " + std::to_string(ev.b) + "]}";
    }
  }
  return out + "]";
}

std::string registered_protocol(Value v) {
  const std::string& name = as_string(v);
  if (ProtocolRegistry::global().find(name) == nullptr) {
    std::string known;
    for (const std::string& p : ProtocolRegistry::global().names()) {
      known += known.empty() ? p : ", " + p;
    }
    v.fail("unregistered protocol \"" + name + "\" (known: " + known + ")");
  }
  return name;
}

using enum JsonType;

/// Every ScenarioSpec field, in spec_to_json order. The parser, its
/// "unknown field" list, spec_to_json (the cache-key input) and the sinks'
/// spec columns all read this table and nothing else.
constexpr SpecField kSpecFields[] = {
    {"protocol", kString, true, [](Spec& s, Value v) { s.protocol = registered_protocol(v); },
     [](const Spec& s) { return s.protocol; }},
    {"n", kNumber, true,
     [](Spec& s, Value v) {
       s.cfg.n = as_u32(v);
       if (s.cfg.n == 0) v.fail("need at least one node");
     },
     [](const Spec& s) { return std::to_string(s.cfg.n); }},
    {"f", kNumber, true, [](Spec& s, Value v) { s.cfg.f = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.cfg.f); }},
    {"rho", kNumber, true, [](Spec& s, Value v) { s.cfg.rho = as_non_negative(v); },
     [](const Spec& s) { return format_double(s.cfg.rho); }},
    {"tdel", kNumber, true, [](Spec& s, Value v) { s.cfg.tdel = as_positive(v); },
     [](const Spec& s) { return format_double(s.cfg.tdel); }},
    {"period", kNumber, true, [](Spec& s, Value v) { s.cfg.period = as_positive(v); },
     [](const Spec& s) { return format_double(s.cfg.period); }},
    {"alpha", kNumber, false, [](Spec& s, Value v) { s.cfg.alpha = as_non_negative(v); },
     [](const Spec& s) { return format_double(s.cfg.alpha); }},
    {"initial_sync", kNumber, false,
     [](Spec& s, Value v) { s.cfg.initial_sync = as_non_negative(v); },
     [](const Spec& s) { return format_double(s.cfg.initial_sync); }},
    {"allow_unsynchronized_start", kBool, false,
     [](Spec& s, Value v) { s.cfg.allow_unsynchronized_start = as_bool(v); },
     [](const Spec& s) {
       return std::string(s.cfg.allow_unsynchronized_start ? "true" : "false");
     }},
    {"adjust", kString, false,
     [](Spec& s, Value v) {
       s.cfg.adjust = enum_from_name(v, std::span(kAdjustModeNames), "adjust mode");
     },
     [](const Spec& s) { return std::string(enum_name(kAdjustModeNames, s.cfg.adjust)); }},
    {"amortize_window", kNumber, false,
     [](Spec& s, Value v) { s.cfg.amortize_window = as_non_negative(v); },
     [](const Spec& s) { return format_double(s.cfg.amortize_window); }},
    {"delta", kNumber, true, [](Spec& s, Value v) { s.delta = as_positive(v); },
     [](const Spec& s) { return format_double(s.delta); }},
    {"seed", kNumber, true, [](Spec& s, Value v) { s.seed = as_u64(v); },
     [](const Spec& s) { return std::to_string(s.seed); }},
    {"horizon", kNumber, true, [](Spec& s, Value v) { s.horizon = as_positive(v); },
     [](const Spec& s) { return format_double(s.horizon); }},
    {"drift", kString, true,
     [](Spec& s, Value v) { s.drift = enum_from_name(v, std::span(kDriftNames), "drift kind"); },
     [](const Spec& s) { return std::string(drift_name(s.drift)); }},
    {"delay", kString, true,
     [](Spec& s, Value v) { s.delay = enum_from_name(v, std::span(kDelayNames), "delay kind"); },
     [](const Spec& s) { return std::string(delay_name(s.delay)); }},
    {"attack", kString, true,
     [](Spec& s, Value v) { s.attack = enum_from_name(v, std::span(kAttackNames), "attack kind"); },
     [](const Spec& s) { return std::string(attack_name(s.attack)); }},
    {"topology", kString, true,
     [](Spec& s, Value v) { s.topology = enum_from_name(v, kFileTopologyKinds, "topology kind"); },
     [](const Spec& s) { return std::string(topology_kind_name(s.topology)); }},
    {"gnp_p", kNumber, true,
     [](Spec& s, Value v) {
       s.gnp_p = as_double(v);
       require(v, s.gnp_p > 0 && s.gnp_p <= 1, "edge probability must lie in (0, 1]");
     },
     [](const Spec& s) { return format_double(s.gnp_p); }},
    {"topology_seed", kNumber, true, [](Spec& s, Value v) { s.topology_seed = as_u64(v); },
     [](const Spec& s) { return std::to_string(s.topology_seed); }},
    {"expander_k", kNumber, true,
     [](Spec& s, Value v) {
       s.expander_k = as_u32(v);
       require(v, s.expander_k >= 2 && s.expander_k % 2 == 0,
               "expander degree must be even and >= 2");
     },
     [](const Spec& s) { return std::to_string(s.expander_k); }},
    {"broadcast_mode", kString, true,
     [](Spec& s, Value v) {
       s.broadcast_mode = enum_from_name(v, std::span(kBroadcastModeNames), "broadcast mode");
     },
     [](const Spec& s) { return std::string(broadcast_mode_name(s.broadcast_mode)); }},
    {"sample_size", kNumber, true, [](Spec& s, Value v) { s.sample_size = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.sample_size); }},
    {"topology_events", kArray, true,
     [](Spec& s, Value v) { s.topology_events = events_from_json(v); },
     [](const Spec& s) { return events_text(s.topology_events); },
     [](const Spec& s) { return std::to_string(s.topology_events.size()); }, kNumber},
    {"joiners", kNumber, true, [](Spec& s, Value v) { s.joiners = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.joiners); }},
    {"join_time", kNumber, false, [](Spec& s, Value v) { s.join_time = as_positive(v); },
     [](const Spec& s) { return format_double(s.join_time); }},
    {"corrupt_override", kNumber, true, [](Spec& s, Value v) { s.corrupt_override = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.corrupt_override); }},
    // The sink column joins the times with ';' so CSV cells need no quotes.
    {"corrupt_at", kArray, true,
     [](Spec& s, Value v) { s.corrupt_at = corrupt_at_from_json(v); },
     [](const Spec& s) { return times_text(s.corrupt_at, ", "); },
     [](const Spec& s) { return times_text(s.corrupt_at, ";"); }, kString},
    {"corrupt_fraction", kNumber, true,
     [](Spec& s, Value v) {
       s.corrupt_fraction = as_double(v);
       require(v, s.corrupt_fraction > 0 && s.corrupt_fraction <= 1,
               "corrupt_fraction must lie in (0, 1]");
     },
     [](const Spec& s) { return format_double(s.corrupt_fraction); }},
    {"corrupt_kinds", kString, true,
     [](Spec& s, Value v) { s.corrupt_kinds = corrupt_kinds_from_json(v); },
     [](const Spec& s) { return corrupt_kinds_name(s.corrupt_kinds); }},
    {"churn_nodes", kNumber, true, [](Spec& s, Value v) { s.churn_nodes = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.churn_nodes); }},
    {"churn_leave", kNumber, true, [](Spec& s, Value v) { s.churn_leave = as_positive(v); },
     [](const Spec& s) { return format_double(s.churn_leave); }},
    {"churn_rejoin", kNumber, true, [](Spec& s, Value v) { s.churn_rejoin = as_positive(v); },
     [](const Spec& s) { return format_double(s.churn_rejoin); }},
    {"partition_group", kNumber, true, [](Spec& s, Value v) { s.partition_group = as_u32(v); },
     [](const Spec& s) { return std::to_string(s.partition_group); }},
    {"partition_start", kNumber, true,
     [](Spec& s, Value v) { s.partition_start = as_non_negative(v); },
     [](const Spec& s) { return format_double(s.partition_start); }},
    {"partition_end", kNumber, true, [](Spec& s, Value v) { s.partition_end = as_positive(v); },
     [](const Spec& s) { return format_double(s.partition_end); }},
    {"skew_series_interval", kNumber, false,
     [](Spec& s, Value v) { s.skew_series_interval = as_positive(v); },
     [](const Spec& s) { return format_double(s.skew_series_interval); }},
    {"envelope_interval", kNumber, false,
     [](Spec& s, Value v) { s.envelope_interval = as_positive(v); },
     [](const Spec& s) { return format_double(s.envelope_interval); }},
    {"sim_threads", kNumber, false,
     [](Spec& s, Value v) {
       s.sim_threads = as_u32(v);
       require(v, s.sim_threads >= 1 && s.sim_threads <= 64, "sim_threads must lie in [1, 64]");
     },
     [](const Spec& s) { return std::to_string(s.sim_threads); }},
};

const SpecField* find_field(const std::string& name) {
  for (const SpecField& field : kSpecFields) {
    if (name == field.name) return &field;
  }
  return nullptr;
}

/// "protocol, n, f, ...": the names every unknown-field error lists.
std::string known_fields() {
  std::string out;
  for (const SpecField& field : kSpecFields) {
    if (!out.empty()) out += ", ";
    out += field.name;
  }
  return out;
}

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

/// One sink record (a JSON line or a CSV row) and its global cell index.
using Record = std::pair<std::uint64_t, std::string>;

/// The half of a shard merge both sink formats share: sorts the records by
/// cell index, rejects an index two shards both hold, and joins the records
/// between `head` and `tail`, with `separator` after all but the last.
std::string join_records(std::vector<Record> records, std::string head, const char* separator,
                         const char* tail) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.first < b.first; });
  std::string out = std::move(head);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0 && records[i].first == records[i - 1].first) {
      throw ScenarioFileError("duplicate cell " + std::to_string(records[i].first) +
                              " across shards");
    }
    out += records[i].second;
    out += i + 1 < records.size() ? separator : "\n";
  }
  return out + tail;
}

}  // namespace

ScenarioSpec spec_from_json(const JsonValue& value, const std::string& source,
                            const std::string& path) {
  require_kind({value, source, path}, JsonValue::Kind::kObject, "object");
  ScenarioSpec spec;
  for (const auto& [name, v] : value.object) {
    const std::string field_path = path + "." + name;
    const SpecField* field = find_field(name);
    if (field == nullptr) {
      fail_at(source, v.line, field_path, "unknown field (known: " + known_fields() + ")");
    }
    field->apply(spec, {v, source, field_path});
  }
  return spec;
}

ScenarioSpec parse_spec(const std::string& text, const std::string& source) {
  return spec_from_json(parse_json(text, source), source);
}

std::string spec_to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  const char* separator = "{\n";
  for (const SpecField& field : kSpecFields) {
    os << separator << "  \"" << field.name << "\": ";
    separator = ",\n";
    if (field.type == kString) {
      os << '"' << json_escape(field.text(spec)) << '"';
    } else {
      os << field.text(spec);
    }
  }
  os << "\n}\n";
  return os.str();
}

std::vector<experiment::SinkField> spec_columns(const ScenarioSpec& spec) {
  std::vector<experiment::SinkField> out;
  for (const SpecField& field : kSpecFields) {
    if (!field.column) continue;
    if (field.summary != nullptr) {
      out.push_back({field.name, field.summary(spec), field.summary_type == kString});
    } else {
      out.push_back({field.name, field.text(spec), field.type == kString});
    }
  }
  return out;
}

SweepGrid parse_grid(const std::string& text, const std::string& source) {
  const JsonValue doc = parse_json(text, source);
  require_kind({doc, source, "grid"}, JsonValue::Kind::kObject, "object");
  for (const auto& [key, v] : doc.object) {
    if (key != "base" && key != "axes" && key != "reseed_per_cell") {
      fail_at(source, v.line, key, "unknown key (known: base, axes, reseed_per_cell)");
    }
  }

  ScenarioSpec base;
  if (const JsonValue* b = doc.find("base")) base = spec_from_json(*b, source, "base");

  SweepGrid grid(base);
  if (const JsonValue* axes = doc.find("axes")) {
    require_kind({*axes, source, "axes"}, JsonValue::Kind::kArray, "array");
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < axes->array.size(); ++i) {
      const JsonValue& axis = axes->array[i];
      const std::string path = "axes[" + std::to_string(i) + "]";
      require_kind({axis, source, path}, JsonValue::Kind::kObject, "object");
      for (const auto& [key, v] : axis.object) {
        if (key != "name" && key != "values") {
          fail_at(source, v.line, path + "." + key, "unknown key (known: name, values)");
        }
      }
      const JsonValue* name_v = axis.find("name");
      if (name_v == nullptr) fail_at(source, axis.line, path, "missing \"name\"");
      const std::string& name = as_string({*name_v, source, path + ".name"});
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
        fail_at(source, name_v->line, path + ".name", "duplicate axis \"" + name + "\"");
      }
      seen.push_back(name);

      const JsonValue* values_v = axis.find("values");
      if (values_v == nullptr) fail_at(source, axis.line, path, "missing \"values\"");
      require_kind({*values_v, source, path + ".values"}, JsonValue::Kind::kArray, "array");
      if (values_v->array.empty()) {
        fail_at(source, values_v->line, path + ".values", "axis needs at least one value");
      }

      const SpecField* field = find_field(name);
      std::vector<SweepGrid::Value> values;
      values.reserve(values_v->array.size());
      for (std::size_t j = 0; j < values_v->array.size(); ++j) {
        const JsonValue& v = values_v->array[j];
        const std::string value_path = path + ".values[" + std::to_string(j) + "]";
        std::string label = value_label(v, source, value_path);
        if (field == nullptr) {
          fail_at(source, name_v->line, path + ".name",
                  "unknown axis field \"" + name + "\" (known: " + known_fields() + ")");
        }
        // Dry-run the applier now so a bad value fails at its source line
        // (the mutator itself runs later, against each cell).
        ScenarioSpec probe = base;
        field->apply(probe, {v, source, value_path});
        values.emplace_back(std::move(label), [field, v, source, value_path](ScenarioSpec& spec) {
          field->apply(spec, {v, source, value_path});
        });
      }
      grid.axis(name, std::move(values));
    }
  }

  if (const JsonValue* reseed = doc.find("reseed_per_cell")) {
    grid.reseed_per_cell(as_bool({*reseed, source, "reseed_per_cell"}));
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
  std::vector<Record> records;
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
      records.emplace_back(as_u64({*cell, source, "cell"}), std::move(record));
    }
    if (!closed) throw ScenarioFileError(source + ": truncated dump (missing \"]\")");
  }

  return join_records(std::move(records), "[\n", ",\n", "]\n");
}

std::string merge_csv_sinks(const std::vector<std::string>& shards) {
  std::string header;
  std::vector<Record> rows;
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

  return join_records(std::move(rows), header + "\n", "\n", "");
}

}  // namespace stclock::scenfile
