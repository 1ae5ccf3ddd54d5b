#include "experiment/scenario.h"

#include <algorithm>
#include <map>

#include "adversary/delay_policies.h"
#include "broadcast/primitive.h"
#include "core/sync_protocol.h"
#include "experiment/registry.h"
#include "sim/simulator.h"
#include "trace/skew_tracker.h"
#include "util/contracts.h"

namespace stclock::experiment {

namespace {

struct PulseLog {
  // pulse real times per node, indexed by round.
  std::vector<std::map<Round, RealTime>> by_node;
  std::vector<RealTime> first_pulse;  // -1 until seen
};

/// Pulse / liveness / joiner metrics, collected only for kSyncProtocol
/// scenarios (baselines have no acceptance events to observe).
void collect_pulse_metrics(const ScenarioSpec& spec, const PulseLog& pulses,
                           const std::vector<SyncProtocol*>& protocols,
                           std::uint32_t honest_count, NodeId first_joiner,
                           ScenarioResult& result) {
  // A node is "regular" if it is up for the whole run: not a late joiner and
  // not scheduled to churn out. Only regular nodes anchor the liveness /
  // period / pulse-count metrics; joiners and churners are judged by their
  // integration metrics instead.
  const auto regular = [&spec, first_joiner](NodeId id) {
    return id >= spec.churn_nodes && id < first_joiner;
  };

  // Pulse spread per round: only rounds every regular honest node completed.
  std::map<Round, std::pair<RealTime, RealTime>> round_window;  // min,max
  std::map<Round, std::uint32_t> round_count;
  std::uint64_t regular_nodes = 0;
  for (NodeId id = 0; id < honest_count; ++id) {
    if (regular(id)) ++regular_nodes;
    for (const auto& [round, t] : pulses.by_node[id]) {
      auto [it, inserted] = round_window.try_emplace(round, t, t);
      if (!inserted) {
        it->second.first = std::min(it->second.first, t);
        it->second.second = std::max(it->second.second, t);
      }
      if (regular(id)) ++round_count[round];
    }
  }
  for (const auto& [round, window] : round_window) {
    if (round_count[round] == regular_nodes) {
      result.pulse_spread = std::max(result.pulse_spread, window.second - window.first);
    }
  }

  // Per-node periods and pulse counts. A churned node's gap across its own
  // downtime is not an inter-pulse period of a running clock, so period
  // stats come from regular nodes only.
  result.min_period = kTimeInfinity;
  bool any_period = false;
  result.min_pulses = UINT64_MAX;
  for (NodeId id = 0; id < honest_count; ++id) {
    if (!regular(id)) continue;
    const auto& log = pulses.by_node[id];
    RealTime prev = -1;
    for (const auto& [round, t] : log) {
      if (prev >= 0) {
        result.min_period = std::min(result.min_period, t - prev);
        result.max_period = std::max(result.max_period, t - prev);
        any_period = true;
      }
      prev = t;
    }
    result.min_pulses = std::min<std::uint64_t>(result.min_pulses, log.size());
    result.max_pulses = std::max<std::uint64_t>(result.max_pulses, log.size());
  }
  if (!any_period) result.min_period = 0;
  if (result.min_pulses == UINT64_MAX) result.min_pulses = 0;

  // Liveness: nobody stalls — every regular honest node is within one round
  // of the front, and everyone pulsed at least twice.
  Round front = 0, back = UINT64_MAX;
  result.rounds_completed = UINT64_MAX;
  for (NodeId id = 0; id < honest_count; ++id) {
    if (!regular(id)) continue;
    const Round last = protocols[id]->last_round();
    front = std::max(front, last);
    back = std::min(back, last);
    result.rounds_completed = std::min<std::uint64_t>(result.rounds_completed, last);
  }
  result.live = result.min_pulses >= 2 && front <= back + 1;

  if (spec.joiners > 0) {
    result.joiners_integrated = true;
    for (NodeId id = first_joiner; id < honest_count; ++id) {
      if (!protocols[id]->integrated() || pulses.first_pulse[id] < 0) {
        result.joiners_integrated = false;
        continue;
      }
      result.join_latency =
          std::max(result.join_latency, pulses.first_pulse[id] - spec.join_time);
    }
    result.live = result.live && result.joiners_integrated;
  }

  if (spec.churn_nodes > 0) {
    result.churned_rejoined = true;
    for (NodeId id = 0; id < spec.churn_nodes; ++id) {
      // protocols[id] points at the post-rejoin incarnation; it must have
      // re-integrated and pulsed after the rejoin time.
      RealTime first_back = -1;
      for (const auto& [round, t] : pulses.by_node[id]) {
        (void)round;
        if (t >= spec.churn_rejoin) {
          first_back = t;
          break;
        }
      }
      if (!protocols[id]->integrated() || first_back < 0) {
        result.churned_rejoined = false;
        continue;
      }
      result.rejoin_latency =
          std::max(result.rejoin_latency, first_back - spec.churn_rejoin);
    }
    result.live = result.live && result.churned_rejoined;
  }
}

/// How many nodes the adversary drives: none without an attack, the
/// override when set, cfg.f otherwise. Shared by validate_spec and the
/// engine so load-time validation can never drift from run-time sizing.
std::uint32_t corrupt_count_for(const ScenarioSpec& spec) {
  return spec.attack == AttackKind::kNone ? 0
         : spec.corrupt_override > 0      ? spec.corrupt_override
                                          : spec.cfg.f;
}

/// The validated topology block: the base graph plus the compiled dynamic
/// schedule (null when the spec has no topology events).
struct CheckedTopology {
  std::shared_ptr<const Topology> base;
  std::shared_ptr<const CompiledTopologySchedule> schedule;
};

/// Validates the topology block and returns the built graph and compiled
/// schedule: shape errors (e.g. a 2-node ring) surface from the generator, a
/// sampled G(n, p) must come out connected, topology events must name real
/// nodes and keep every epoch connected — or liveness claims are vacuous.
/// Shared by validate_spec (scenario files fail at load time) and the
/// engine, which reuses the returned instances instead of building twice.
CheckedTopology checked_topology(const ScenarioSpec& spec) {
  if (spec.topology == TopologyKind::kGnp) {
    ST_REQUIRE(spec.gnp_p > 0 && spec.gnp_p <= 1, "run_scenario: gnp_p must lie in (0, 1]");
  }
  CheckedTopology out;
  out.base = build_topology(spec.topology, spec.cfg.n, spec.gnp_p, spec.topology_seed,
                            spec.expander_k);
  if (!out.base->is_complete()) {
    ST_REQUIRE(out.base->is_connected(),
               "run_scenario: topology is disconnected (raise gnp_p or change topology_seed)");
  }
  if (spec.topology_events.empty()) return out;

  TopologySchedule schedule;
  for (const TopologyEventSpec& ev : spec.topology_events) {
    switch (ev.kind) {
      case TopologyEventSpec::Kind::kAddEdge:
      case TopologyEventSpec::Kind::kRemoveEdge:
        // Mirrors the partition_group check: a dedicated load-time error for
        // events naming nodes the fleet does not have.
        ST_REQUIRE(ev.a < spec.cfg.n && ev.b < spec.cfg.n,
                   "run_scenario: topology_events names nodes outside [0, n)");
        if (ev.kind == TopologyEventSpec::Kind::kAddEdge) {
          schedule.add_edge(ev.at, ev.a, ev.b);
        } else {
          schedule.remove_edge(ev.at, ev.a, ev.b);
        }
        break;
      case TopologyEventSpec::Kind::kSetGraph:
        schedule.set_graph(ev.at, build_topology(ev.set, spec.cfg.n, spec.gnp_p,
                                                 spec.topology_seed, spec.expander_k));
        break;
    }
  }
  out.schedule =
      std::make_shared<const CompiledTopologySchedule>(schedule.compile(out.base));
  const std::size_t broken = out.schedule->first_disconnected_epoch();
  ST_REQUIRE(broken == CompiledTopologySchedule::kAllConnected,
             "run_scenario: topology_events epoch " + std::to_string(broken) +
                 " disconnects the topology (use partition_group for deliberate "
                 "partitions)");
  return out;
}

/// Everything validate_spec checks EXCEPT the topology block, so the engine
/// can run these and keep the topology instance from checked_topology.
void validate_spec_structure(const ScenarioSpec& spec, EngineMode mode) {
  const SyncConfig& cfg = spec.cfg;
  if (mode == EngineMode::kSyncProtocol) {
    cfg.validate();
    ST_REQUIRE(spec.horizon > 0, "run_scenario: horizon must be positive");
    ST_REQUIRE(spec.joiners + cfg.f < cfg.n,
               "run_scenario: need at least one regular honest node");
  } else {
    ST_REQUIRE(cfg.n > cfg.f, "run_scenario: need at least one honest node");
    ST_REQUIRE(spec.horizon > 0, "run_scenario: horizon must be positive");
    ST_REQUIRE(spec.joiners == 0, "run_scenario: baselines do not support joiners");
    ST_REQUIRE(spec.churn_nodes == 0, "run_scenario: baselines do not support churn");
  }
  if (spec.churn_nodes > 0) {
    ST_REQUIRE(spec.churn_leave > 0, "run_scenario: churn_leave must be positive");
    ST_REQUIRE(spec.churn_rejoin > spec.churn_leave,
               "run_scenario: churn_rejoin must come after churn_leave");
  }
  if (spec.partition_group > 0) {
    ST_REQUIRE(spec.partition_group <= cfg.n,
               "run_scenario: partition_group names nodes outside [0, n)");
    ST_REQUIRE(spec.partition_group < cfg.n,
               "run_scenario: partition_group must leave both sides non-empty");
    ST_REQUIRE(spec.partition_start >= 0 && spec.partition_end > spec.partition_start,
               "run_scenario: need 0 <= partition_start < partition_end");
  }
  if (spec.broadcast_mode == BroadcastMode::kSampled) {
    ST_REQUIRE(spec.sample_size >= 1,
               "run_scenario: broadcast_mode=sampled needs sample_size >= 1");
  }
  ST_REQUIRE(spec.sim_threads >= 1 && spec.sim_threads <= 64,
             "run_scenario: sim_threads must lie in [1, 64]");
  const std::uint32_t corrupt_count = corrupt_count_for(spec);
  ST_REQUIRE(corrupt_count + spec.joiners < cfg.n,
             "run_scenario: need at least one regular honest node");
  // Stopgap until the sparse fabric is sound under Byzantine faults: a
  // scaled quorum lets a few Byzantine signatures trigger acceptance. Crash
  // faults send nothing, and a fan-in of 0 (the full fleet) keeps the
  // paper's unscaled f+1 quorum, so both stay allowed.
  const std::uint32_t fanin = broadcast_fanin(spec);
  ST_REQUIRE(corrupt_count == 0 || spec.attack == AttackKind::kCrash || fanin == 0,
             std::string("run_scenario: broadcast_mode=") +
                 broadcast_mode_name(spec.broadcast_mode) + " with " +
                 std::to_string(corrupt_count) + " Byzantine nodes (attack=" +
                 attack_name(spec.attack) + ") is unsound: fan-in " + std::to_string(fanin) +
                 " scales the acceptance quorum to scaled_threshold(f+1, n, fanin) = " +
                 std::to_string(scaled_threshold(cfg.f + 1, cfg.n, fanin)) +
                 ", and 1 + floor(f*fanin/(n-1)) is 1 whenever f*fanin < n-1, so one "
                 "Byzantine signature triggers acceptance; use broadcast_mode=full or "
                 "attack=crash");
  const std::uint32_t honest_count = cfg.n - corrupt_count;
  ST_REQUIRE(spec.churn_nodes < honest_count - spec.joiners,
             "run_scenario: churn must leave at least one always-up honest node");
  if (!spec.corrupt_at.empty()) {
    RealTime prev = 0;
    for (const RealTime at : spec.corrupt_at) {
      ST_REQUIRE(at > 0, "run_scenario: corrupt_at times must be positive");
      ST_REQUIRE(at >= prev, "run_scenario: corrupt_at times must be non-decreasing");
      prev = at;
    }
    ST_REQUIRE(spec.corrupt_at.back() < spec.horizon,
               "run_scenario: corrupt_at must fall before the horizon (there is "
               "nothing to stabilize after it)");
    ST_REQUIRE(spec.corrupt_fraction > 0 && spec.corrupt_fraction <= 1,
               "run_scenario: corrupt_fraction must lie in (0, 1]");
    ST_REQUIRE(spec.corrupt_kinds != 0,
               "run_scenario: corrupt_kinds must name at least one kind");
    ST_REQUIRE((spec.corrupt_kinds & ~kCorruptAll) == 0,
               "run_scenario: corrupt_kinds has unknown bits");
  }
}

}  // namespace

ScenarioSpec resolved_spec(const ScenarioSpec& spec) {
  const ProtocolRegistry::Entry* entry = ProtocolRegistry::global().find(spec.protocol);
  if (entry == nullptr || !entry->prepare) return spec;
  ScenarioSpec adjusted = spec;
  entry->prepare(adjusted);
  return adjusted;
}

void validate_spec(const ScenarioSpec& spec, EngineMode mode) {
  validate_spec_structure(spec, mode);
  (void)checked_topology(spec);
}

std::uint32_t broadcast_fanin(const ScenarioSpec& spec) {
  const std::uint32_t n = spec.cfg.n;
  const std::uint32_t peers = n > 0 ? n - 1 : 0;
  // Design minimum degree of the generator families whose degree is known
  // without building the graph; 0 = the full fleet (complete) or a degree
  // the engine cannot bound by design (gnp, custom).
  std::uint32_t degree = 0;
  switch (spec.topology) {
    case TopologyKind::kRing: degree = 2; break;
    case TopologyKind::kStar: degree = 1; break;
    case TopologyKind::kTorus: {
      // Same near-square factorization the generator uses; the grid's
      // minimum degree counts each dimension's links with the <= 2 guards.
      std::uint32_t rows = 1;
      for (std::uint32_t d = 1; static_cast<std::uint64_t>(d) * d <= n; ++d) {
        if (n % d == 0) rows = d;
      }
      const std::uint32_t cols = rows > 0 ? n / rows : 0;
      const auto dim = [](std::uint32_t len) -> std::uint32_t {
        return len > 2 ? 2 : (len == 2 ? 1 : 0);
      };
      degree = dim(rows) + dim(cols);
      break;
    }
    case TopologyKind::kExpander: degree = std::min(spec.expander_k, peers); break;
    case TopologyKind::kComplete:
    case TopologyKind::kGnp:
    case TopologyKind::kCustom: degree = 0; break;
  }
  switch (spec.broadcast_mode) {
    case BroadcastMode::kFull: return 0;  // legacy thresholds, always
    case BroadcastMode::kNeighbors: return degree;
    case BroadcastMode::kSampled: {
      std::uint32_t s = spec.sample_size;
      if (degree > 0) s = std::min(s, degree);
      // A sample covering every peer is just the full fan-out.
      return s >= peers ? 0 : s;
    }
  }
  return 0;
}

ScenarioResult run_scenario(const ScenarioSpec& requested) {
  return run_scenario(requested, nullptr);
}

ScenarioResult run_scenario(const ScenarioSpec& requested, const SampleObserver& observe) {
  const ProtocolRegistry::Entry& entry = ProtocolRegistry::global().at(requested.protocol);
  const EngineMode mode = entry.mode;
  const ProcessFactory& factory = entry.factory;
  const ScenarioSpec spec = resolved_spec(requested);
  const SyncConfig& cfg = spec.cfg;
  const bool sync_mode = mode == EngineMode::kSyncProtocol;

  ScenarioResult result;
  result.protocol = spec.protocol;

  validate_spec_structure(spec, mode);
  // The schedule is only installed when the spec has topology events, so a
  // static spec arms no epoch machinery at all.
  const CheckedTopology topology = checked_topology(spec);
  result.topology_epochs = topology.schedule ? topology.schedule->epoch_count() : 1;
  if (sync_mode) result.bounds = theory::derive_bounds(cfg);

  Rng rng(spec.seed);
  std::vector<HardwareClock> clocks = build_clock_fleet(
      spec.drift, cfg.n, cfg.rho, cfg.initial_sync, spec.horizon, cfg.period, rng);

  const crypto::KeyRegistry registry(cfg.n, spec.seed ^ 0x5eedULL);

  SimParams params;
  params.n = cfg.n;
  params.tdel = cfg.tdel;
  params.seed = rng.next_u64();
  params.topology = topology.base;
  params.schedule = topology.schedule;
  params.broadcast_mode = spec.broadcast_mode;
  params.sample_size = spec.sample_size;
  params.sim_threads = spec.sim_threads;
  // The runaway-protocol valve, scaled to the run: a healthy protocol
  // dispatches O(fan-out) events per node per round, so give each
  // node-round 256 events before calling it runaway. The 50M floor keeps
  // small scenarios on the default; the product term admits sparse-fabric
  // runs at n = 10^6 (a few hundred million legitimate events) that the
  // flat default rejected.
  const auto rounds_budget = static_cast<std::uint64_t>(spec.horizon / cfg.period) + 2;
  params.max_events =
      std::max<std::uint64_t>(params.max_events, 256ULL * cfg.n * rounds_budget);
  for (const RealTime at : spec.corrupt_at) {
    CorruptionEvent ev;
    ev.at = at;
    ev.fraction = spec.corrupt_fraction;
    ev.kinds = spec.corrupt_kinds;
    // Scramble magnitude in the protocol's natural unit: several periods,
    // so a scrambled clock lands rounds away from where it belongs.
    ev.clock_range = 4.0 * cfg.period;
    params.corruptions.push_back(ev);
  }
  std::unique_ptr<DelayPolicy> delay_policy =
      build_delay_policy(spec.delay, cfg.n, cfg.period, spec.seed);
  if (spec.partition_group > 0) {
    delay_policy = std::make_unique<PartitionDelay>(
        spec.partition_group, spec.partition_start, spec.partition_end,
        std::move(delay_policy));
  }
  Simulator sim(params, std::move(clocks), std::move(delay_policy), &registry);

  // Corrupted nodes take the highest ids; joiners the highest honest ids.
  const std::uint32_t corrupt_count = corrupt_count_for(spec);
  std::vector<NodeId> corrupt;
  for (NodeId id = cfg.n - corrupt_count; id < cfg.n; ++id) corrupt.push_back(id);
  const std::uint32_t honest_count = cfg.n - corrupt_count;
  // Churners take the lowest ids, joiners the highest honest ids; validate_spec
  // guaranteed the groups are disjoint with a regular node in between.
  const NodeId first_joiner = honest_count - spec.joiners;

  AttackParams attack_params;
  attack_params.period = cfg.period;
  attack_params.nominal_delay = cfg.tdel / 2;
  if (sync_mode) {
    attack_params.max_round =
        static_cast<Round>(spec.horizon / result.bounds.min_period) + 8;
    attack_params.variant = cfg.variant;
  } else {
    attack_params.max_round = static_cast<Round>(spec.horizon / cfg.period) + 8;
    attack_params.cnv_delta = spec.delta;
  }

  if (!corrupt.empty()) {
    sim.set_adversary(corrupt, make_attack(spec.attack, attack_params));
  }

  // The per-node pulse log only feeds sync-mode metrics (precision between
  // simultaneous rounds, liveness, joiner integration); baselines never
  // pulse, so at scale the empty vectors would still cost O(n) maps.
  PulseLog pulses;
  if (sync_mode) {
    pulses.by_node.resize(cfg.n);
    pulses.first_pulse.assign(cfg.n, -1.0);
  }

  // Non-null only in sync mode (and only for honest ids).
  std::vector<SyncProtocol*> protocols(cfg.n, nullptr);
  for (NodeId id = 0; id < honest_count; ++id) {
    const bool joining = id >= first_joiner;
    std::unique_ptr<Process> process = factory(spec, id, joining);
    ST_REQUIRE(process != nullptr, "run_scenario: factory returned no process");
    if (sync_mode) {
      auto* sync = dynamic_cast<SyncProtocol*>(process.get());
      ST_REQUIRE(sync != nullptr,
                 "run_scenario: kSyncProtocol factories must build SyncProtocol instances");
      protocols[id] = sync;
      sync->set_pulse_observer([&pulses, &sim](NodeId node, Round round) {
        pulses.by_node[node][round] = sim.now();
        if (pulses.first_pulse[node] < 0) pulses.first_pulse[node] = sim.now();
      });
      if (joining) sim.set_start_time(id, spec.join_time);
    }
    sim.set_process(id, std::move(process));
  }

  // Churn: the scheduled nodes crash at churn_leave and come back at
  // churn_rejoin as passively integrating processes (the factory's joining
  // path — exactly how a repaired process re-enters in the paper).
  for (NodeId id = 0; id < spec.churn_nodes; ++id) {
    sim.schedule_restart(
        id, spec.churn_leave, spec.churn_rejoin,
        [&spec, &factory, &protocols, &pulses, &sim, id]() -> std::unique_ptr<Process> {
          std::unique_ptr<Process> process = factory(spec, id, /*joining=*/true);
          ST_REQUIRE(process != nullptr, "run_scenario: factory returned no process");
          auto* sync = dynamic_cast<SyncProtocol*>(process.get());
          ST_REQUIRE(sync != nullptr,
                     "run_scenario: churn factories must build SyncProtocol instances");
          protocols[id] = sync;
          sync->set_pulse_observer([&pulses, &sim](NodeId node, Round round) {
            pulses.by_node[node][round] = sim.now();
            if (pulses.first_pulse[node] < 0) pulses.first_pulse[node] = sim.now();
          });
          return process;
        });
  }

  // Joiners only count toward skew once integrated (their pre-integration
  // clock is arbitrary by definition). The tracker reads the simulator's
  // CURRENT graph at every sample, so local skew is always measured against
  // the adjacency live at measurement time.
  // Metric-granularity floor for the explicit stepping loop below; hoisted
  // here because the scale policy derives the skew sampling gap from it.
  const Duration step = std::max(spec.skew_series_interval, 1e-3);
  const bool scale_mode = cfg.n >= kScaleMetricThreshold;

  // The integration predicate goes through the simulator's include probe (not
  // a tracker-private functor) so the parallel engine can answer it from the
  // committed pre-state when a hook samples mid-window.
  if (sync_mode) {
    sim.set_include_probe([&protocols](NodeId id) {
      return protocols[id] == nullptr || protocols[id]->integrated();
    });
  }
  SkewTracker skew(spec.skew_series_interval, nullptr);
  skew.set_steady_start(sync_mode ? 2 * result.bounds.max_period : 3 * cfg.period);
  // At scale, per-event O(n) sweeps dominate the run; decimate to half the
  // stepping granularity so every explicit step-loop sample still lands.
  if (scale_mode) skew.set_min_sample_gap(step * 0.5);
  if (!spec.corrupt_at.empty()) {
    // Recovery is judged from the LAST corruption event: the paper's
    // stabilization time is "from the last transient fault". Sync protocols
    // must re-enter their derived precision bound; baselines must get back
    // to however tight they were before the fault (threshold <= 0 = auto).
    skew.set_stabilization(spec.corrupt_at.back(),
                           sync_mode ? result.bounds.precision : 0.0);
  }
  // The envelope parameters the eventual report() call will use are fully
  // determined here (bounds are derived before the run), which is what lets
  // streaming mode fix them up-front and keep only O(1) sums per node.
  const double env_lo = sync_mode ? result.bounds.rate_lo : 1.0 / (1.0 + cfg.rho);
  const double env_hi = sync_mode ? result.bounds.rate_hi : 1.0 + cfg.rho;
  const RealTime env_steady = sync_mode ? 2 * result.bounds.max_period : 3 * cfg.period;
  EnvelopeTracker envelope(spec.envelope_interval);
  if (scale_mode) envelope.enable_streaming(env_lo, env_hi, env_steady);
  sim.set_post_event_hook([&skew, &envelope, &observe](const Simulator& s) {
    skew.sample(s);
    if (observe) observe(s, skew);
    envelope.sample(s);
  });

  // Step the simulation so metrics get sampled at a bounded real-time
  // granularity even through event-quiet stretches (e.g. the unsynchronized
  // control generates no events at all).
  for (RealTime t = step; t < spec.horizon + step; t += step) {
    sim.run_until(std::min(t, spec.horizon));
    skew.sample(sim);
    if (observe) observe(sim, skew);
    envelope.sample(sim);
  }

  // --- Collect metrics ---
  result.max_skew = skew.max_skew();
  result.steady_skew = skew.steady_max_skew();
  result.local_skew = skew.local_skew();
  result.steady_local_skew = skew.steady_local_skew();
  result.skew_series = skew.series();

  if (sync_mode) {
    collect_pulse_metrics(spec, pulses, protocols, honest_count, first_joiner, result);

    // The envelope fit needs a few samples past the convergence prefix.
    if (spec.horizon > env_steady + 3 * spec.envelope_interval) {
      result.envelope = envelope.report(env_lo, env_hi, env_steady);
      result.rate_fit_tolerance =
          2 * result.bounds.precision / (spec.horizon - env_steady);
    }
  } else if (spec.horizon > 3 * cfg.period + 1.0) {
    // Baselines are judged against the raw hardware envelope.
    result.envelope = envelope.report(env_lo, env_hi, env_steady);
  }

  result.messages_sent = sim.counters().total_sent();
  result.bytes_sent = sim.counters().total_bytes();
  result.messages_dropped = sim.messages_dropped();
  result.events_dispatched = sim.events_dispatched();
  result.corruption_events = sim.corruption_events_fired();
  result.nodes_corrupted = sim.nodes_corrupted();
  result.parallel_windows = sim.parallel_windows();
  if (!spec.corrupt_at.empty()) {
    result.stabilized = skew.stabilized();
    result.stabilization_time = skew.stabilization_time();
  }
  return result;
}

}  // namespace stclock::experiment
