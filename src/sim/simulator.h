#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clocks/hardware_clock.h"
#include "clocks/logical_clock.h"
#include "crypto/signature.h"
#include "sim/broadcast_mode.h"
#include "sim/corruption.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/topology.h"
#include "sim/topology_schedule.h"
#include "trace/counters.h"
#include "util/rng.h"
#include "util/types.h"

/// The discrete-event simulator: the "testbed" substrate on which every
/// protocol and experiment in this repository runs.
///
/// A Simulator owns n nodes, each with a fixed hardware-clock trajectory and
/// a logical clock. Honest nodes run a `Process`; corrupted nodes are driven
/// collectively by one `Adversary`. All scheduling is deterministic given the
/// seed: ties in event time break by insertion order, and every node gets an
/// independent forked RNG stream.
namespace stclock {

struct SimParams {
  std::uint32_t n = 0;
  /// Maximum end-to-end delay between correct processes (the model's tdel).
  Duration tdel = 0.01;
  std::uint64_t seed = 1;
  /// Safety valve against runaway protocols.
  std::uint64_t max_events = 50'000'000;
  /// Network graph. Null makes the constructor install Topology::complete(n),
  /// the paper's fully connected system. Any other graph restricts
  /// broadcasts to neighbors and drops sends on missing links.
  std::shared_ptr<const Topology> topology;
  /// Timed topology changes (compile a TopologySchedule against `topology`).
  /// Null — or a single-epoch compilation of an empty schedule — keeps the
  /// static path bit-for-bit: no epoch events are armed and every send
  /// consults the same graph. With later epochs, each boundary becomes a
  /// simulator event that swaps the live graph; link existence is checked at
  /// send time, so in-flight messages survive a switch. Requires `topology`
  /// to be the schedule's epoch-0 graph (same object).
  std::shared_ptr<const CompiledTopologySchedule> schedule;
  /// Scheduled state-corruption events (see sim/corruption.h). Times must be
  /// positive and non-decreasing. Empty — the default — arms no corruption
  /// machinery and leaves every RNG stream untouched, so the disabled path
  /// is bit-identical to a build without fault injection.
  std::vector<CorruptionEvent> corruptions;
  /// Broadcast fan-out policy (see sim/broadcast_mode.h). kFull and
  /// kNeighbors take exactly the legacy fan-out path; kSampled draws
  /// sample_size peers per broadcast from a dedicated RNG stream.
  BroadcastMode broadcast_mode = BroadcastMode::kFull;
  /// Peers per broadcast under kSampled (>= 1 required then); ignored in the
  /// other modes.
  std::uint32_t sample_size = 0;
  /// Worker threads for the lookahead-windowed parallel engine. 1 — the
  /// default — is the sequential engine, bit-for-bit. Values > 1 execute
  /// each window [t, t + lookahead) of events on a worker pool, where the
  /// lookahead is the delay policy's min_delay(): events closer together
  /// than the minimum message delay cannot causally interact across nodes,
  /// and a deterministic commit phase replays buffered side effects in the
  /// exact sequential (time, seq) order, so every metric is bit-identical
  /// to sim_threads = 1. Runs that cannot parallelize (zero lookahead, or a
  /// Byzantine adversary, whose deliveries to corrupted nodes are immediate
  /// and so cross nodes within any window) fall back to the sequential
  /// engine with a loud stderr note — never silently, never a deadlock.
  std::uint32_t sim_threads = 1;
};

class Simulator {
 public:
  /// `clocks` must have exactly params.n entries. The registry (for the
  /// authenticated variants) may be null when no protocol signs anything.
  Simulator(SimParams params, std::vector<HardwareClock> clocks,
            std::unique_ptr<DelayPolicy> delays, const crypto::KeyRegistry* registry);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Installs the honest protocol instance for node `id`. Must not be called
  /// for corrupted nodes.
  void set_process(NodeId id, std::unique_ptr<Process> process);

  /// Marks `ids` as corrupted and installs the Byzantine strategy driving
  /// them. Call at most once, before start().
  void set_adversary(std::vector<NodeId> ids, std::unique_ptr<Adversary> adversary);

  /// Delays the on_start of node `id` until real time `t` (models a node
  /// that boots late and must integrate — see core/joiner.h).
  void set_start_time(NodeId id, RealTime t);

  /// Builds the replacement process for a node rejoining after churn.
  using ProcessBuilder = std::function<std::unique_ptr<Process>()>;

  /// Schedules honest node `id` to crash at `down_at` and reboot at `up_at`
  /// as a fresh process built by `rebuild` (typically a passively integrating
  /// joiner — see core/joiner.h). While down, the node's pending timers are
  /// cancelled and deliveries to it are lost; the rebuilt process gets
  /// on_start at `up_at`. Call before start(); at most once per node.
  void schedule_restart(NodeId id, RealTime down_at, RealTime up_at,
                        ProcessBuilder rebuild);

  /// Dispatches on_start for every installed process and the adversary, then
  /// runs events until `horizon` (inclusive). May be called repeatedly with
  /// increasing horizons.
  void run_until(RealTime horizon);

  // --- Introspection (used by metrics, adversaries, and tests) ---
  /// Current simulation time. Inside a parallel worker this is the executing
  /// event's time for the calling thread (each node's handlers observe the
  /// same "now" they would sequentially); everywhere else it is the global
  /// clock, which the commit replay advances event by event.
  [[nodiscard]] RealTime now() const;
  [[nodiscard]] const SimParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t n() const { return params_.n; }
  [[nodiscard]] bool is_corrupt(NodeId id) const;
  /// Honest node ids, ascending.
  [[nodiscard]] const std::vector<NodeId>& honest_ids() const { return honest_ids_; }
  /// True once node `id` has been started (relevant for late joiners).
  [[nodiscard]] bool is_started(NodeId id) const;

  // --- Tracker-facing observation API ---
  // The trace layer (skew tracker, envelope) reads fleet state from the
  // post-event hook. Sequentially these are plain live reads. During a
  // parallel commit replay the workers have already executed the whole
  // window, so a live read could see a node's *future*; these accessors
  // instead return the value the node had at the replay point (the recorded
  // pre-state of its first uncommitted change), keeping every hook
  // observation bit-identical to the sequential schedule.
  [[nodiscard]] bool observe_started(NodeId id) const {
    return par_ == nullptr ? nodes_[id].started : observe_started_slow(id);
  }
  [[nodiscard]] LocalTime observe_logical(NodeId id, RealTime t) const {
    return par_ == nullptr ? nodes_[id].logical->read(t) : observe_logical_slow(id, t);
  }
  /// The include predicate (set_include_probe) evaluated at the observation
  /// point; true when no probe is installed.
  [[nodiscard]] bool observe_include(NodeId id) const {
    if (par_ != nullptr) return observe_include_slow(id);
    return include_probe_ == nullptr || include_probe_(id);
  }
  /// Installs the predicate behind observe_include (the scenario engine uses
  /// it for "protocol instance is integrated"). Must be node-local: in a
  /// parallel run it is evaluated from the worker that owns the node.
  void set_include_probe(std::function<bool(NodeId)> probe);

  /// Lookahead windows executed on the worker pool so far. Stays 0 for
  /// sequential runs and for sim_threads > 1 runs that fell back; tests use
  /// it to assert the parallel engine actually engaged.
  [[nodiscard]] std::uint64_t parallel_windows() const { return parallel_windows_; }

  /// The base (epoch-0) network graph; never null.
  [[nodiscard]] const Topology* topology() const { return params_.topology.get(); }

  /// The graph live right now: the base graph until the first epoch switch,
  /// then the current epoch's snapshot; never null. The skew tracker samples
  /// local skew against this, so the metric always reflects the adjacency
  /// that was live at measurement time.
  [[nodiscard]] const Topology* current_topology() const { return topo_now_; }

  /// Index of the live epoch (0 until the first switch; static runs stay 0).
  [[nodiscard]] std::size_t topology_epoch() const { return epoch_; }

  [[nodiscard]] const HardwareClock& hardware(NodeId id) const;
  [[nodiscard]] const LogicalClock& logical(NodeId id) const;
  [[nodiscard]] LogicalClock& logical(NodeId id);

  [[nodiscard]] const MessageCounters& counters() const { return counters_; }
  [[nodiscard]] MessageCounters& counters() { return counters_; }

  /// Returned by last_event_node when the last event belonged to no node.
  static constexpr NodeId kNoNode = 0xffffffffu;

  /// The node whose own event was dispatched last: a delivery's recipient,
  /// or the owner of a start, tick, process or cancelled timer. Such an
  /// event changes no other node's clock, start flag or integration state.
  /// kNoNode after a fleet-wide event (churn stop, epoch switch, corruption,
  /// adversary timer), before the first event, and during a parallel commit.
  [[nodiscard]] NodeId last_event_node() const { return last_event_node_; }

  /// Total events dispatched so far (timers + deliveries, cancelled timer
  /// pops included). Part of the determinism contract: for a fixed spec the
  /// count is reproducible bit-for-bit, which the golden trace test pins.
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }

  /// Sends lost in transit: the delay policy chose kDropMessage (partitions),
  /// the sender has no link to the recipient in the topology, or the
  /// recipient's in-flight buffer was wiped by a corruption event.
  [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Corruption events that fired (== params.corruptions entries reached
  /// before the horizon) and the total victim count across them.
  [[nodiscard]] std::uint64_t corruption_events_fired() const {
    return corruption_events_fired_;
  }
  [[nodiscard]] std::uint64_t nodes_corrupted() const { return nodes_corrupted_; }

  /// Called after every dispatched event; used by the skew tracker to sample
  /// at exactly the moments state can change.
  void set_post_event_hook(std::function<void(const Simulator&)> hook);

 private:
  friend class Context;
  friend class AdversaryContext;

  /// Lifecycle of one timer in its table. Armed states encode the dispatch
  /// target; a fired or cancel-consumed timer is retired to kFired, so a
  /// table holds exactly one byte per timer ever armed and no tombstone set
  /// can grow unboundedly.
  enum class TimerState : std::uint8_t {
    kArmedProcess,
    kArmedStart,
    kArmedStop,  // churn: node goes down, replacement armed for the rejoin
    kArmedAdversary,
    kArmedEpoch,    // topology schedule: TimerEvent::node holds the epoch index
    kArmedCorrupt,  // corruption event: TimerEvent::node holds the event index
    kArmedTick,     // hardware ticker: auto re-arms, immune to corruption
    kCancelled,
    kFired,
  };

  static constexpr std::uint32_t kNoRestart = 0xffffffffu;

  struct Node {
    std::optional<HardwareClock> hw;
    std::optional<LogicalClock> logical;
    std::unique_ptr<Process> process;
    std::optional<Context> ctx;
    std::optional<Rng> rng;
    bool corrupt = false;
    /// Index of this node's churn restart in restarts_ (kNoRestart = none).
    std::uint32_t restart = kNoRestart;
    RealTime start_time = 0;
    bool started = false;
    /// Corrupted receive buffer: deliveries sent strictly before this real
    /// time are dropped on arrival (-1 = never; the corruption-free path
    /// costs one always-false compare).
    RealTime purge_before = -1;
    /// Hardware ticker interval (0 = no ticker; see Context::start_ticker).
    Duration ticker_interval = 0;
    /// This node's timer table: the state of every process, start, stop
    /// and tick timer armed for it. Inside a parallel window only the
    /// node's own handlers arm into it, so the worker that owns the node is
    /// its only writer; a churn stop or a corruption victim walks just this.
    std::vector<TimerState> timers;
  };

  /// Timer ids are (owner, index) handles in both engines: the owner in the
  /// high 32 bits, index + 1 into the owner's table in the low 32 (so no id
  /// is 0). The owner is a node, or kFleetOwner for fleet_timers_. Ids are
  /// opaque and never surface in any metric.
  static constexpr NodeId kFleetOwner = 0xffffffffu;

  /// One scheduled churn restart (schedule_restart).
  struct Restart {
    NodeId node = 0;
    RealTime down_at = 0;
    RealTime up_at = 0;
    ProcessBuilder rebuild;
  };

  /// Counts `ev` against the budget, advances the clock to it, dispatches
  /// it and runs the post-event hook: the one sequential step, shared by
  /// run_until, the parallel engine's barriers and its no-window fallback.
  void step(const Event& ev);
  void dispatch(const Event& ev);
  /// The node-local event path, shared by both engines: a delivery to an
  /// honest node, or one of its start, tick, process or cancelled timers.
  /// Returns false when a delivery hit a wiped receive buffer (the caller
  /// counts the drop).
  bool run_node_event(const Event& ev);

  // Context plumbing.
  /// Unicast entry point: checks the topology link (off-graph sends drop).
  void honest_send(NodeId from, NodeId to, const Message& m);
  /// Pre-shared overload: Context::broadcast interns the message once and
  /// fans the same immutable payload out to every recipient. Trusts the
  /// caller to respect the topology (the recipient walk visits neighbors
  /// only), keeping the per-recipient path free of adjacency checks.
  void honest_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg);
  /// kSampled: fills sample_scratch_ with this broadcast's recipients —
  /// params.sample_size distinct Floyd draws from the sender's domain
  /// (neighbor row, or everyone else on the complete graph), sorted
  /// ascending, self excluded. Returns false WITHOUT consuming draws when
  /// the domain is no larger than the sample; the walk then falls back to
  /// the full fan-out.
  bool sample_broadcast_targets(NodeId from);
  /// The one broadcast recipient walk, shared by honest broadcasts, the
  /// adversary's flood and both engines. Recipients are the sampled peer set
  /// when the mode is kSampled and sample_broadcast_targets draws one;
  /// otherwise every id on the complete graph, or else the sender's CSR row.
  /// Calls visit(to) for each in ascending id order, `from` itself included
  /// at its ascending slot, so same-time delivery ties break by the same
  /// insertion order in every fan-out.
  template <typename Visit>
  void for_each_recipient(NodeId from, Visit&& visit);
  /// True when `to` is a corrupted node, whose deliveries are immediate. A
  /// run without corrupted nodes answers without reading `to`'s Node, a
  /// cache miss per send at scale.
  [[nodiscard]] bool corrupt_recipient(NodeId to) const {
    return honest_ids_.size() != params_.n && nodes_[to].corrupt;
  }
  void adversary_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg,
                      RealTime deliver_at);
  /// Arms a timer of `kind`. Node-owned kinds go into node `node`'s table;
  /// epoch, corruption and adversary timers go into fleet_timers_, and
  /// `node` is then their payload index (TimerEvent::node carries it).
  TimerId arm_timer(NodeId node, RealTime fire_at,
                    TimerState kind = TimerState::kArmedProcess);
  void cancel_timer(TimerId id);
  [[nodiscard]] TimerState& timer_state(TimerId id);
  /// Reads and retires a timer's state: each armed timer pops exactly once.
  TimerState take_timer(TimerId id);
  /// True for the timers that act on the whole fleet (fleet-owned, or a
  /// churn stop): the sequential path dispatches them, and in a parallel
  /// run they close the window.
  [[nodiscard]] bool fleet_wide(TimerId id);
  void start_ticker(NodeId id, Duration hw_interval);
  /// Fires corruption event `idx`: picks the victim subset with the
  /// dedicated corruption stream and scrambles each victim's memory.
  void apply_corruption(std::size_t idx);

  // --- Parallel engine (simulator_parallel.cpp) ---
  /// True on a worker thread currently executing this simulator's window.
  [[nodiscard]] bool in_worker() const;
  /// Decides once, at the first run_until, whether sim_threads > 1 can be
  /// honored (positive lookahead, no adversary); falls back loudly if not.
  void maybe_enable_parallel();
  /// The parallel main loop: drains lookahead windows until the horizon.
  void run_parallel(RealTime horizon);
  // Worker-phase counterparts of the sequential side-effect entry points:
  // they buffer ops into the owning worker instead of touching shared state.
  void par_unicast(NodeId from, NodeId to, const Message& m);
  void par_broadcast(NodeId from, const Message& m);
  void par_schedule_timer(NodeId node, RealTime fire_at, TimerId id);
  // Slow paths of the observation API (parallel runs only).
  [[nodiscard]] bool observe_started_slow(NodeId id) const;
  [[nodiscard]] LocalTime observe_logical_slow(NodeId id, RealTime t) const;
  [[nodiscard]] bool observe_include_slow(NodeId id) const;
  // Thread-local worker marking (now() routes through it); const because
  // only thread-local state moves.
  void tls_enter_worker() const;
  void tls_set_worker_now(RealTime t) const;
  void tls_leave_worker() const;

  SimParams params_;
  /// Graph live right now (params_.topology until the first epoch switch);
  /// every broadcast fan-out, link check, and adversary send reads this one
  /// pointer, so the static path costs exactly what it did pre-schedule.
  const Topology* topo_now_ = nullptr;
  std::size_t epoch_ = 0;
  std::vector<Node> nodes_;
  std::vector<NodeId> honest_ids_;
  std::unique_ptr<DelayPolicy> delays_;
  const crypto::KeyRegistry* registry_;
  std::vector<crypto::Signer> signers_;  // index = node id

  std::unique_ptr<Adversary> adversary_;
  std::optional<AdversaryContext> adv_ctx_;
  std::optional<Rng> adv_rng_;

  EventQueue queue_;
  RealTime now_ = 0;
  bool started_ = false;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t messages_dropped_ = 0;
  /// Epoch, corruption and adversary timers (a handful per run).
  std::vector<TimerState> fleet_timers_;
  std::vector<Restart> restarts_;
  std::optional<Rng> net_rng_;
  /// Corruption draws come from their own stream, derived from the seed but
  /// OUTSIDE the root fork sequence (net, adversary, per-node): enabling
  /// corruption must not perturb any other stream, and with it disabled no
  /// stream is even created. Engaged only when params.corruptions is
  /// non-empty.
  std::optional<Rng> corrupt_rng_;
  /// Peer draws for kSampled broadcasts, likewise derived from the seed
  /// outside the root fork sequence and created only in sampled mode — full
  /// and neighbors runs stay bit-identical to the pre-fabric engine.
  std::optional<Rng> bcast_rng_;
  /// Recipient scratch for sampled fan-outs (capacity sample_size, reused).
  std::vector<NodeId> sample_scratch_;
  std::uint64_t corruption_events_fired_ = 0;
  std::uint64_t nodes_corrupted_ = 0;

  MessageCounters counters_;
  std::function<void(const Simulator&)> post_event_hook_;
  std::function<bool(NodeId)> include_probe_;

  /// Worker pool, per-window buffers, and commit-replay state. Created only
  /// when the parallel engine actually engages, so par_ == nullptr doubles
  /// as the sequential fast-path test in the observation API.
  struct ParEngine;
  /// Out-of-line deleter so every TU can destroy a Simulator (and its
  /// members, on constructor-exception paths) without ParEngine's definition.
  struct ParEngineDeleter {
    void operator()(ParEngine* e) const;
  };
  std::unique_ptr<ParEngine, ParEngineDeleter> par_;
  /// The parallel window length, delay_->min_delay(tdel); 0 when the run is
  /// sequential. Every honest cross-node delay must reach it.
  Duration lookahead_ = 0;
  bool par_checked_ = false;
  std::uint64_t parallel_windows_ = 0;
  NodeId last_event_node_ = kNoNode;
};

template <typename Visit>
void Simulator::for_each_recipient(NodeId from, Visit&& visit) {
  // An explicit peer list (a CSR row or the sampled set) is ascending and
  // never holds self, so self's slot is where the list crosses `from`. Kept
  // out of line: inlining this second loop next to the complete-graph one
  // measurably slows the latter (BM_Broadcast_*) through worse code layout.
  const auto walk_list = [&](const NodeId* first, const NodeId* last)
                             __attribute__((noinline)) {
    const NodeId* split = std::lower_bound(first, last, from);
    for (const NodeId* p = first; p != split; ++p) visit(*p);
    visit(from);
    for (const NodeId* p = split; p != last; ++p) visit(*p);
  };
  if (params_.broadcast_mode == BroadcastMode::kSampled && sample_broadcast_targets(from)) {
    walk_list(sample_scratch_.data(), sample_scratch_.data() + sample_scratch_.size());
  } else if (!topo_now_->is_complete()) {
    const auto [nbrs, degree] = topo_now_->neighbor_span(from);
    walk_list(nbrs, nbrs + degree);
  } else {
    for (NodeId to = 0; to < params_.n; ++to) visit(to);
  }
}

}  // namespace stclock
