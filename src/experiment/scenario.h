#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategies.h"
#include "core/config.h"
#include "core/theory.h"
#include "experiment/environment.h"
#include "sim/broadcast_mode.h"
#include "sim/corruption.h"
#include "sim/process.h"
#include "trace/envelope.h"

namespace stclock {
class SkewTracker;
}  // namespace stclock

/// The unified experiment API: one engine runs every protocol — both
/// Srikanth–Toueg variants and all prior-work baselines — on an identical
/// substrate (clocks, delays, adversary, metric sampling), so comparison
/// tables measure algorithms, not harness differences.
///
/// A `ScenarioSpec` names a protocol (resolved through the ProtocolRegistry,
/// see experiment/registry.h) and describes the environment and adversary;
/// `run_scenario` builds the simulation, runs it, and reports every metric
/// the paper's claims are checked against in one `ScenarioResult`.
namespace stclock::experiment {

/// Fleet size at which the runner switches metric collection to its O(n)
/// scale policy: streaming envelope sums instead of per-node sample series,
/// a minimum skew-sample gap (per-event O(n) sweeps decimated to the step
/// granularity), and no per-node pulse log for baselines. Everything the
/// golden suite pins runs at n <= 9, far below this, so the policy can
/// never perturb a pinned row.
inline constexpr std::uint32_t kScaleMetricThreshold = 4096;

/// How the engine treats the protocol under test.
enum class EngineMode {
  /// A Srikanth–Toueg variant: the engine derives the paper's theoretical
  /// bounds, tracks pulses/liveness, supports late joiners and
  /// over-corruption, and fits the accuracy envelope against the derived
  /// rate bounds.
  kSyncProtocol,
  /// A prior-work baseline: skew / accuracy / cost metrics only; the
  /// accuracy envelope is fitted against the raw hardware drift bounds.
  kBaseline,
};

/// One timed topology mutation in a scenario (the engine compiles the list
/// into a sim::TopologySchedule). Edge events name the endpoints; set-graph
/// events name a generator family, built with the spec's own n / gnp_p /
/// topology_seed. Times must be positive and non-decreasing, endpoints must
/// lie in [0, n), and no compiled epoch may disconnect the graph — all
/// validated at load time for scenario files.
struct TopologyEventSpec {
  enum class Kind : std::uint8_t { kAddEdge, kRemoveEdge, kSetGraph };

  Kind kind = Kind::kAddEdge;
  RealTime at = 0;
  NodeId a = 0;  ///< edge endpoints (edge events only)
  NodeId b = 0;
  TopologyKind set = TopologyKind::kRing;  ///< generator (set-graph only)
};

/// Everything needed to run one experiment cell.
struct ScenarioSpec {
  /// Protocol name resolved via the ProtocolRegistry: "auth", "echo",
  /// "lundelius_welch", "interactive_convergence", "gradient", "hssd",
  /// "leader", "leader_corrupt", "unsynchronized", or any custom
  /// registration.
  std::string protocol = "auth";

  /// System parameters (n, f, rho, tdel, period, alpha, initial_sync, ...).
  /// Baselines read the subset they need; `variant` is forced by the
  /// "auth"/"echo" registry entries.
  SyncConfig cfg;

  /// Baseline collection threshold: CNV's discard threshold, HSSD's
  /// plausibility window, and the sizing of LW's collection window.
  Duration delta = 0.05;

  std::uint64_t seed = 1;
  RealTime horizon = 30.0;
  DriftKind drift = DriftKind::kRandomWalk;
  DelayKind delay = DelayKind::kUniform;
  AttackKind attack = AttackKind::kNone;

  /// Network graph the fleet runs on. The default complete graph is the
  /// paper's implicit topology and reproduces the legacy (pre-topology)
  /// engine bit for bit; any other kind restricts broadcasts to neighbors.
  /// `gnp_p` and `topology_seed` only feed the "gnp" kind, which is
  /// connectivity-checked at validation time.
  TopologyKind topology = TopologyKind::kComplete;
  double gnp_p = 0.5;
  std::uint64_t topology_seed = 1;
  /// Degree of the "expander" topology kind (even, 2 <= k < n); ignored by
  /// every other kind. Sweepable as a scenfile axis.
  std::uint32_t expander_k = 8;

  /// Broadcast fabric (see sim/broadcast_mode.h). "full" — the default,
  /// pinned bit-identical by the golden suite — floods the whole domain with
  /// the paper's absolute thresholds. "neighbors" keeps the same fan-out but
  /// scales the auth/echo acceptance thresholds to the topology's design
  /// degree. "sampled" sends each broadcast to `sample_size` seeded-random
  /// peers (O(n * m) messages per round) with thresholds scaled to the
  /// sample size.
  BroadcastMode broadcast_mode = BroadcastMode::kFull;
  /// Peers per broadcast under sampled mode (>= 1 required then); ignored —
  /// but allowed, so grids can sweep broadcast_mode — in the other modes.
  std::uint32_t sample_size = 0;

  /// Dynamic topology: timed edge/graph events applied to the base
  /// `topology` as the run progresses (edges failing and healing, whole
  /// rewires). Empty — the default — keeps the static path bit-for-bit.
  std::vector<TopologyEventSpec> topology_events;

  /// The last `joiners` honest nodes boot at `join_time` and integrate
  /// passively instead of starting at time 0 (kSyncProtocol only).
  std::uint32_t joiners = 0;
  RealTime join_time = 10.0;

  /// Churn workload (kSyncProtocol only): the first `churn_nodes` honest
  /// nodes crash at `churn_leave` and reboot at `churn_rejoin` as fresh
  /// passively integrating processes (the paper's repaired-process path).
  /// Their pending timers die with them and messages to them are lost while
  /// down. At least one honest node must stay up throughout.
  std::uint32_t churn_nodes = 0;
  RealTime churn_leave = 5.0;
  RealTime churn_rejoin = 12.0;

  /// Partition/heal workload (outside the ST delivery model): during
  /// [partition_start, partition_end) every honest message crossing the cut
  /// between nodes [0, partition_group) and the rest is dropped; the base
  /// `delay` policy governs all other traffic and the healed network.
  /// 0 disables the partition.
  std::uint32_t partition_group = 0;
  RealTime partition_start = 5.0;
  RealTime partition_end = 10.0;

  /// If non-zero, the adversary controls this many nodes regardless of
  /// cfg.f (which the protocol still uses for its thresholds). Setting it
  /// above the variant's resilience bound demonstrates breakdown (T2).
  std::uint32_t corrupt_override = 0;

  /// State-corruption fault injection (the self-stabilization workload, see
  /// sim/corruption.h). At each listed real time — positive, non-decreasing,
  /// strictly before the horizon — a seeded random `corrupt_fraction` of the
  /// up honest nodes has the `corrupt_kinds` categories of its memory
  /// scrambled. Empty — the default — arms nothing and keeps the run
  /// bit-identical to a corruption-free engine.
  std::vector<RealTime> corrupt_at;
  double corrupt_fraction = 1.0;
  std::uint32_t corrupt_kinds = kCorruptAll;

  /// Metric sampling granularity.
  Duration skew_series_interval = 0.05;
  Duration envelope_interval = 0.1;

  /// Worker threads for the simulator core (1..64). 1 — the default — keeps
  /// the sequential engine; >= 2 turns on the lookahead-windowed parallel
  /// engine, which is bit-identical in every metric and so deliberately NOT
  /// part of the result cell key (a cached sequential result satisfies a
  /// parallel request and vice versa). Requires a delay policy with positive
  /// min_delay (delay=half/max); otherwise the run falls back to sequential
  /// with a stderr notice.
  std::uint32_t sim_threads = 1;
};

/// Every metric of one run. Fields that only make sense for kSyncProtocol
/// scenarios (bounds, pulses, liveness, joiners) keep their zero defaults
/// for baselines.
struct ScenarioResult {
  std::string protocol;

  theory::Bounds bounds;  ///< derived theoretical bounds (kSyncProtocol only)

  // Precision.
  double max_skew = 0;     ///< sup spread of honest logical clocks, whole run
  double steady_skew = 0;  ///< same, after the convergence prefix
  /// Local skew (Kuhn/Lenzen/Locher/Oshman): sup over *adjacent* pairs of
  /// the clock difference. Equals the global spread on a complete topology;
  /// on sparse graphs it is the gradient property's figure of merit.
  double local_skew = 0;
  double steady_local_skew = 0;  ///< same, after the convergence prefix
  std::vector<std::pair<RealTime, double>> skew_series;

  // Pulses (acceptance events; kSyncProtocol only).
  double pulse_spread = 0;   ///< max over rounds of acceptance real-time spread
  double min_period = 0;     ///< min observed per-node inter-pulse gap
  double max_period = 0;     ///< max observed per-node inter-pulse gap
  std::uint64_t min_pulses = 0;
  std::uint64_t max_pulses = 0;
  bool live = false;  ///< every honest node keeps pulsing (no stall / split)

  // Accuracy.
  EnvelopeTracker::Report envelope;
  /// Least-squares slopes over a finite window carry O(precision / window)
  /// noise from the sawtooth of corrections; compare fitted rates against
  /// [rate_lo - tol, rate_hi + tol] with this tol (kSyncProtocol only).
  double rate_fit_tolerance = 0;

  // Integration (when spec.joiners > 0).
  double join_latency = -1;  ///< worst joiner: first pulse time - boot time
  bool joiners_integrated = false;

  // Churn (when spec.churn_nodes > 0).
  double rejoin_latency = -1;  ///< worst churned node: first post-rejoin pulse - rejoin time
  bool churned_rejoined = false;  ///< every churned node re-integrated and pulsed again

  // Topology.
  std::uint64_t topology_epochs = 1;  ///< compiled schedule epochs (1 = static)

  // Fault injection (when spec.corrupt_at is non-empty).
  std::uint64_t corruption_events = 0;  ///< corruption events that fired
  std::uint64_t nodes_corrupted = 0;    ///< total victims across those events
  /// Did the skew re-enter — and stay inside — the envelope after the last
  /// corruption event? (Threshold: the derived precision bound for sync
  /// protocols, the pre-corruption steady spread for baselines.)
  bool stabilized = false;
  /// First time after the last corruption event from which the spread
  /// stayed inside the threshold, minus that event's time; 0 when it never
  /// left, -1 when it never re-entered (or no corruption was scheduled).
  double stabilization_time = -1;

  // Cost.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_dropped = 0;  ///< sends lost to a partition window
  std::uint64_t events_dispatched = 0;  ///< simulator events (timers + deliveries)
  std::uint64_t rounds_completed = 0;  ///< min over honest nodes of last round

  /// Lookahead windows the parallel engine committed; 0 on the sequential
  /// engine (or after a loud fallback). Execution diagnostic only: NOT part
  /// of the resultstore codec, so a run's encoded bytes stay identical
  /// whichever engine produced them.
  std::uint64_t parallel_windows = 0;
};

/// Builds one honest protocol instance. `joining` is true for late joiners
/// (kSyncProtocol scenarios only; baselines never see it set).
using ProcessFactory =
    std::function<std::unique_ptr<Process>(const ScenarioSpec&, NodeId, bool joining)>;

/// Runs the scenario with the protocol resolved through the global
/// ProtocolRegistry. Throws std::out_of_range for unknown protocol names and
/// std::logic_error for inconsistent specs.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Called after every skew sample of a run, at each post-event hook call
/// and each stepping-loop sample, with the simulator and the skew tracker;
/// tests cross-check the tracker against a brute-force scan through it.
using SampleObserver = std::function<void(const Simulator&, const SkewTracker&)>;

/// run_scenario with `observe` called after every skew sample (null: none).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const SampleObserver& observe);

/// The effective per-node broadcast fan-in of the spec's fabric, for
/// quorum-aware primitive thresholds (see scaled_threshold in
/// broadcast/primitive.h). 0 means "the full fleet": full mode always,
/// and any mode whose fan-out the engine cannot bound by design (complete /
/// gnp / custom under neighbors mode). Sampled mode returns sample_size
/// capped at the topology's design degree; neighbors mode returns the
/// design degree of the regular families (ring 2, star 1, torus grid
/// degree, expander k). Cheap — never builds the graph — so registry
/// factories may call it per node.
[[nodiscard]] std::uint32_t broadcast_fanin(const ScenarioSpec& spec);

/// Everything run_scenario would reject, checked WITHOUT running the
/// scenario: model requirements (SyncConfig::validate) plus the engine's
/// structural constraints (joiner / churn / partition / corruption counts).
/// Throws std::logic_error naming the violated requirement. The scenario-file
/// loader calls this per grid cell so a bad file fails at load time with the
/// same rules the engine enforces at run time.
void validate_spec(const ScenarioSpec& spec, EngineMode mode);

/// The spec as the engine actually runs it: the registry entry's prepare
/// hook applied (e.g. "leader_corrupt" forces attack = kLeaderLie and
/// f >= 1). Unknown protocols come back unchanged. The sinks record this,
/// so dumps reflect the run, not the request.
[[nodiscard]] ScenarioSpec resolved_spec(const ScenarioSpec& spec);

}  // namespace stclock::experiment
