#pragma once

#include "experiment/scenario.h"

/// Records with every field set to a distinct non-default value, so a field
/// that a serializer drops, reorders or misspells cannot cancel out. The
/// byte-pinning tests (spec_to_json, the CSV/JSON sinks, the result codec and
/// the cell key) all read these.
namespace stclock::experiment::dense {

/// Every one of ScenarioSpec's 39 scenario-file fields away from its default,
/// including all three topology event kinds, a two-entry corrupt_at, a
/// corrupt_kinds subset and sim_threads.
inline ScenarioSpec spec() {
  using Kind = TopologyEventSpec::Kind;
  ScenarioSpec spec;
  spec.protocol = "echo";
  spec.cfg.n = 10;
  spec.cfg.f = 3;
  spec.cfg.rho = 1.25e-3;
  spec.cfg.tdel = 0.0125;
  spec.cfg.period = 1.5;
  spec.cfg.alpha = 0.1;  // not a dyadic fraction: prints all 17 digits
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
  spec.topology_events = {{Kind::kRemoveEdge, 2.5, 0, 1, TopologyKind::kRing},
                          {Kind::kAddEdge, 4.0, 1, 2, TopologyKind::kRing},
                          {Kind::kSetGraph, 6.25, 0, 0, TopologyKind::kTorus}};
  spec.joiners = 2;
  spec.join_time = 7.25;
  spec.corrupt_override = 1;
  spec.corrupt_at = {3.5, 8.75};
  spec.corrupt_fraction = 0.5;
  spec.corrupt_kinds = kCorruptClocks | kCorruptState;
  spec.churn_nodes = 1;
  spec.churn_leave = 3.125;
  spec.churn_rejoin = 9.875;
  spec.partition_group = 4;
  spec.partition_start = 2.75;
  spec.partition_end = 5.5;
  spec.skew_series_interval = 0.025;
  spec.envelope_interval = 0.125;
  spec.sim_threads = 4;
  return spec;
}

/// Every ScenarioResult field distinct and nonzero.
inline ScenarioResult result() {
  ScenarioResult r;
  r.protocol = "auth";
  r.bounds.accept_spread = 0.01;
  r.bounds.alpha = 0.011;
  r.bounds.gamma = 2e-4;
  r.bounds.precision = 0.031;
  r.bounds.pulse_spread = 0.012;
  r.bounds.min_period = 0.9;
  r.bounds.max_period = 1.1;
  r.bounds.rate_lo = 0.9997;
  r.bounds.rate_hi = 1.0003;
  r.max_skew = 0.0123;
  r.steady_skew = 0.0045;
  r.local_skew = 0.0101;
  r.steady_local_skew = 0.0040;
  r.skew_series = {{0.1, 0.004}, {0.2, 0.0041}, {0.3, 0.0039}, {5.5, 0.0038}};
  r.pulse_spread = 0.008;
  r.min_period = 0.95;
  r.max_period = 1.05;
  r.min_pulses = 5;
  r.max_pulses = 6;
  r.live = true;
  r.envelope.min_rate = 0.99985;
  r.envelope.max_rate = 1.00015;
  r.envelope.upper_offset = 0.002;
  r.envelope.lower_offset = 0.003;
  r.rate_fit_tolerance = 0.0007;
  r.join_latency = 1.25;
  r.joiners_integrated = true;
  r.rejoin_latency = 2.5;
  r.churned_rejoined = true;
  r.topology_epochs = 3;
  r.messages_sent = 1234;
  r.bytes_sent = 56789;
  r.messages_dropped = 17;
  r.events_dispatched = 99999;
  r.rounds_completed = 6;
  r.corruption_events = 2;
  r.nodes_corrupted = 13;
  r.stabilized = true;
  r.stabilization_time = 3.75;
  return r;
}

}  // namespace stclock::experiment::dense
