#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "sim/broadcast_sample.h"
#include "util/contracts.h"

namespace stclock {

namespace {

/// Worker-thread marker for the parallel engine: while a worker executes a
/// window, `now()` on that thread reports the executing event's time, so
/// protocol handlers observe exactly the "now" they would sequentially.
thread_local const Simulator* t_worker_sim = nullptr;
thread_local RealTime t_worker_now = 0;

}  // namespace

RealTime Simulator::now() const { return t_worker_sim == this ? t_worker_now : now_; }

bool Simulator::in_worker() const { return t_worker_sim == this; }

void Simulator::tls_enter_worker() const {
  t_worker_sim = this;
  t_worker_now = 0;
}

void Simulator::tls_set_worker_now(RealTime t) const { t_worker_now = t; }

void Simulator::tls_leave_worker() const { t_worker_sim = nullptr; }

Simulator::Simulator(SimParams params, std::vector<HardwareClock> clocks,
                     std::unique_ptr<DelayPolicy> delays, const crypto::KeyRegistry* registry)
    : params_(params), delays_(std::move(delays)), registry_(registry) {
  ST_REQUIRE(params_.n > 0, "Simulator: need at least one node");
  ST_REQUIRE(clocks.size() == params_.n, "Simulator: clock count must equal n");
  ST_REQUIRE(params_.tdel > 0, "Simulator: tdel must be positive");
  ST_REQUIRE(delays_ != nullptr, "Simulator: delay policy required");
  if (params_.topology == nullptr) {
    params_.topology = std::make_shared<const Topology>(Topology::complete(params_.n));
  }
  ST_REQUIRE(params_.topology->n() == params_.n, "Simulator: topology size must equal n");
  delays_->on_topology(*params_.topology);
  topo_now_ = params_.topology.get();
  if (params_.schedule != nullptr) {
    ST_REQUIRE(params_.schedule->epoch_graph(0).get() == params_.topology.get(),
               "Simulator: schedule must be compiled against params.topology");
    ST_REQUIRE(params_.schedule->n() == params_.n,
               "Simulator: schedule size must equal n");
  }

  RealTime prev_corrupt = 0;
  for (const CorruptionEvent& ev : params_.corruptions) {
    ST_REQUIRE(ev.at > 0, "Simulator: corruption times must be positive");
    ST_REQUIRE(ev.at >= prev_corrupt, "Simulator: corruption times must be non-decreasing");
    prev_corrupt = ev.at;
    ST_REQUIRE(ev.fraction > 0 && ev.fraction <= 1,
               "Simulator: corruption fraction must lie in (0, 1]");
    ST_REQUIRE(ev.kinds != 0 && (ev.kinds & ~kCorruptAll) == 0,
               "Simulator: corruption kinds must be a non-empty subset of the known kinds");
    ST_REQUIRE((ev.kinds & kCorruptClocks) == 0 || ev.clock_range > 0,
               "Simulator: clock corruption needs a positive clock_range");
  }

  Rng root(params_.seed);
  net_rng_.emplace(root.fork());
  adv_rng_.emplace(root.fork());
  if (!params_.corruptions.empty()) {
    // A derived stream of its own (NOT a fork of root): the fork sequence
    // net -> adversary -> per-node is pinned by the golden suite, and the
    // corruption-disabled path must not create this stream at all.
    corrupt_rng_.emplace(params_.seed ^ 0x5e1f57ab1eULL);
  }
  if (params_.broadcast_mode == BroadcastMode::kSampled) {
    ST_REQUIRE(params_.sample_size >= 1,
               "Simulator: sampled broadcast mode needs sample_size >= 1");
    // Same derived-stream discipline as corruption: peer sampling draws from
    // its own stream so full/neighbors runs never create it and stay
    // bit-identical to the pre-fabric engine.
    bcast_rng_.emplace(params_.seed ^ 0xfab10ca575a321ULL);
    sample_scratch_.reserve(params_.sample_size);
  }

  // Queue reservation, sized by the graph actually installed: a broadcast
  // round is ~n^2 resident deliveries on a complete graph but only ~2E on a
  // sparse one — and an unconditional n*(n+2) would ask for terabytes at
  // n = 10^6. Reservation is a pure pre-size (the queue grows past it
  // fine), so the cap cannot change behavior, only first-touch allocation
  // timing.
  const auto n = static_cast<std::size_t>(params_.n);
  const std::size_t reserve = params_.topology->is_complete()
                                  ? n * (n + 2)
                                  : 2 * params_.topology->edge_count() + 4 * n;
  constexpr std::size_t kQueueReserveCap = std::size_t{1} << 22;  // ~128 MB of slab
  queue_.reserve(std::min(reserve, kQueueReserveCap));

  // nodes_ is sized exactly once; LogicalClock instances hold pointers into
  // their own Node's HardwareClock, so the vector must never reallocate.
  nodes_.resize(params_.n);
  for (NodeId id = 0; id < params_.n; ++id) {
    Node& node = nodes_[id];
    node.hw.emplace(std::move(clocks[id]));
    node.logical.emplace(*node.hw);
    node.rng.emplace(root.fork());
    node.ctx.emplace(Context(this, id));
    honest_ids_.push_back(id);
  }

  if (registry_ != nullptr) {
    ST_REQUIRE(registry_->size() >= params_.n, "Simulator: registry smaller than n");
    signers_.reserve(params_.n);
    for (NodeId id = 0; id < params_.n; ++id) signers_.push_back(registry_->signer_for(id));
  }
}

// ~Simulator lives in simulator_parallel.cpp, where ParEngine is complete
// (the destructor joins the worker pool).

void Simulator::set_process(NodeId id, std::unique_ptr<Process> process) {
  ST_REQUIRE(id < params_.n, "set_process: node id out of range");
  ST_REQUIRE(!started_, "set_process: simulation already started");
  ST_REQUIRE(!nodes_[id].corrupt, "set_process: node is corrupted");
  nodes_[id].process = std::move(process);
}

void Simulator::set_adversary(std::vector<NodeId> ids, std::unique_ptr<Adversary> adversary) {
  ST_REQUIRE(!started_, "set_adversary: simulation already started");
  ST_REQUIRE(adversary_ == nullptr, "set_adversary: adversary already installed");
  for (NodeId id : ids) {
    ST_REQUIRE(id < params_.n, "set_adversary: node id out of range");
    ST_REQUIRE(nodes_[id].process == nullptr, "set_adversary: node already has a process");
    nodes_[id].corrupt = true;
    nodes_[id].started = true;  // the adversary is always "up"
  }
  adversary_ = std::move(adversary);
  adv_ctx_.emplace(AdversaryContext(this));
  honest_ids_.clear();
  for (NodeId id = 0; id < params_.n; ++id) {
    if (!nodes_[id].corrupt) honest_ids_.push_back(id);
  }
}

void Simulator::set_start_time(NodeId id, RealTime t) {
  ST_REQUIRE(id < params_.n, "set_start_time: node id out of range");
  ST_REQUIRE(!started_, "set_start_time: simulation already started");
  ST_REQUIRE(t >= 0, "set_start_time: negative start time");
  nodes_[id].start_time = t;
}

void Simulator::schedule_restart(NodeId id, RealTime down_at, RealTime up_at,
                                 ProcessBuilder rebuild) {
  ST_REQUIRE(id < params_.n, "schedule_restart: node id out of range");
  ST_REQUIRE(!started_, "schedule_restart: simulation already started");
  ST_REQUIRE(!nodes_[id].corrupt, "schedule_restart: node is corrupted");
  ST_REQUIRE(down_at > nodes_[id].start_time,
             "schedule_restart: node must go down after it boots");
  ST_REQUIRE(up_at > down_at, "schedule_restart: rejoin must come after the crash");
  ST_REQUIRE(rebuild != nullptr, "schedule_restart: rebuild callback required");
  ST_REQUIRE(nodes_[id].restart == kNoRestart,
             "schedule_restart: node already has a restart scheduled");
  nodes_[id].restart = static_cast<std::uint32_t>(restarts_.size());
  restarts_.push_back(Restart{id, down_at, up_at, std::move(rebuild)});
}

bool Simulator::is_corrupt(NodeId id) const {
  ST_REQUIRE(id < params_.n, "is_corrupt: node id out of range");
  return nodes_[id].corrupt;
}

bool Simulator::is_started(NodeId id) const {
  ST_REQUIRE(id < params_.n, "is_started: node id out of range");
  return nodes_[id].started;
}

const HardwareClock& Simulator::hardware(NodeId id) const {
  ST_REQUIRE(id < params_.n, "hardware: node id out of range");
  return *nodes_[id].hw;
}

const LogicalClock& Simulator::logical(NodeId id) const {
  ST_REQUIRE(id < params_.n, "logical: node id out of range");
  return *nodes_[id].logical;
}

LogicalClock& Simulator::logical(NodeId id) {
  ST_REQUIRE(id < params_.n, "logical: node id out of range");
  return *nodes_[id].logical;
}

void Simulator::set_post_event_hook(std::function<void(const Simulator&)> hook) {
  post_event_hook_ = std::move(hook);
}

void Simulator::set_include_probe(std::function<bool(NodeId)> probe) {
  include_probe_ = std::move(probe);
}

void Simulator::run_until(RealTime horizon) {
  if (!started_) {
    started_ = true;
    // Epoch switches are ordinary timer events. They are armed FIRST, so a
    // boundary that ties with a node start or a delivery applies before it
    // (ties break by insertion order): traffic at time t always sees the
    // graph of the epoch that starts at t.
    if (params_.schedule != nullptr) {
      for (std::size_t e = 1; e < params_.schedule->epoch_count(); ++e) {
        (void)arm_timer(static_cast<NodeId>(e), params_.schedule->epoch_start(e),
                        TimerState::kArmedEpoch);
      }
    }
    // Node starts are ordinary timer events so they interleave correctly
    // with message deliveries (late joiners may start mid-protocol). They
    // are enqueued BEFORE the adversary runs, so time-0 attack messages
    // reach nodes that boot at time 0 (ties break by insertion order).
    for (NodeId id = 0; id < params_.n; ++id) {
      Node& node = nodes_[id];
      if (node.corrupt || node.process == nullptr) continue;
      (void)arm_timer(id, node.start_time, TimerState::kArmedStart);
    }
    for (const Restart& restart : restarts_) {
      ST_REQUIRE(nodes_[restart.node].process != nullptr,
                 "schedule_restart: node has no process installed");
      (void)arm_timer(restart.node, restart.down_at, TimerState::kArmedStop);
    }
    // Corruption events are armed LAST among the internal timers: at a time
    // tie with a boot or a churn stop, the lifecycle transition applies
    // first and corruption scrambles the post-transition state (ties break
    // by insertion order). TimerEvent::node carries the event's index.
    for (std::size_t c = 0; c < params_.corruptions.size(); ++c) {
      (void)arm_timer(static_cast<NodeId>(c), params_.corruptions[c].at,
                      TimerState::kArmedCorrupt);
    }
    if (adversary_ != nullptr) adversary_->on_start(*adv_ctx_);
  }

  if (!par_checked_) maybe_enable_parallel();
  if (par_ != nullptr) {
    run_parallel(horizon);
  } else {
    while (!queue_.empty() && queue_.next_time() <= horizon) step(queue_.pop());
  }
  now_ = std::max(now_, horizon);
}

void Simulator::step(const Event& ev) {
  ST_REQUIRE(++events_dispatched_ <= params_.max_events,
             "Simulator: event budget exhausted (runaway protocol?)");
  ST_ASSERT(ev.time >= now_, "Simulator: time went backwards");
  now_ = ev.time;
  dispatch(ev);
  if (post_event_hook_) post_event_hook_(*this);
}

void Simulator::dispatch(const Event& ev) {
  if (!ev.is_timer) {
    const DeliveryEvent& d = ev.delivery;
    last_event_node_ = d.to;
    counters_.on_deliver(message_kind(*d.msg));
    if (!nodes_[d.to].corrupt) {
      if (!run_node_event(ev)) ++messages_dropped_;
    } else if (adversary_ != nullptr) {
      adversary_->on_message(*adv_ctx_, d.to, d.from, *d.msg);
    }
    return;
  }
  if (!fleet_wide(ev.timer.id)) {
    last_event_node_ = ev.timer.node;
    (void)run_node_event(ev);
    return;
  }
  last_event_node_ = kNoNode;
  switch (take_timer(ev.timer.id)) {
    case TimerState::kArmedStop: {
      // Churn: the node crashes. Its pending timers die with it, messages
      // addressed to it are lost while it is down (the `started` check in
      // the delivery path), and a fresh process — built now, booted at the
      // rejoin time through the ordinary start path — takes its place.
      const NodeId id = ev.timer.node;
      Node& node = nodes_[id];
      const Restart& restart = restarts_[node.restart];
      node.started = false;
      // Protocol timers AND the hardware ticker die with the node: the
      // ticker survives state corruption (it is hardware) but not the
      // machine itself going down. A rebuilt process restarts its own.
      for (TimerState& st : node.timers) {
        if (st == TimerState::kArmedProcess || st == TimerState::kArmedTick) {
          st = TimerState::kCancelled;
        }
      }
      node.ticker_interval = 0;
      node.process = restart.rebuild();
      ST_REQUIRE(node.process != nullptr, "schedule_restart: rebuild returned no process");
      (void)arm_timer(id, restart.up_at, TimerState::kArmedStart);
      return;
    }
    case TimerState::kArmedEpoch:
      // Topology epoch boundary: swap the live graph and tell the delay
      // policy. Boundaries fire in epoch order (armed ascending at start),
      // so the epoch index only ever moves forward.
      epoch_ = ev.timer.node;
      topo_now_ = params_.schedule->epoch_graph(epoch_).get();
      delays_->on_topology_change(*topo_now_, now_);
      return;
    case TimerState::kArmedCorrupt:
      apply_corruption(ev.timer.node);
      return;
    case TimerState::kArmedAdversary:
      if (adversary_ != nullptr) adversary_->on_timer(*adv_ctx_, ev.timer.id);
      return;
    default:  // a cancelled adversary timer
      return;
  }
}

bool Simulator::run_node_event(const Event& ev) {
  if (!ev.is_timer) {
    const DeliveryEvent& d = ev.delivery;
    Node& node = nodes_[d.to];
    // A wiped receive buffer: messages already in flight toward this node
    // when a corruption event hit were part of the scrambled memory image
    // and are lost on arrival.
    if (d.sent_at < node.purge_before) return false;
    // Messages addressed to a node that has not booted yet are lost (the
    // node was down); the integration protocol exists precisely for this.
    if (node.process != nullptr && node.started) {
      node.process->on_message(*node.ctx, d.from, *d.msg);
    }
    return true;
  }
  const NodeId id = ev.timer.node;
  Node& node = nodes_[id];
  switch (take_timer(ev.timer.id)) {
    case TimerState::kCancelled:
      break;  // still an event: counted and hooked
    case TimerState::kArmedStart:
      node.started = true;
      node.process->on_start(*node.ctx);
      break;
    case TimerState::kArmedTick:
      if (node.process == nullptr || !node.started || node.ticker_interval <= 0) break;
      // Re-arm BEFORE the callback (a periodic interrupt, not a one-shot):
      // the protocol cannot cancel or corrupt it away.
      (void)arm_timer(id, node.hw->when_reads(node.hw->read(ev.time) + node.ticker_interval),
                      TimerState::kArmedTick);
      node.process->on_tick(*node.ctx);
      break;
    case TimerState::kArmedProcess:
      if (node.process != nullptr && node.started) node.process->on_timer(*node.ctx, ev.timer.id);
      break;
    default:
      ST_ASSERT(false, "Simulator: fleet-wide timer on the node-local path");
  }
  return true;
}

void Simulator::honest_send(NodeId from, NodeId to, const Message& m) {
  if (in_worker()) {
    par_unicast(from, to, m);
    return;
  }
  // This overload is the unicast entry point (Context::send), so the link
  // check lives here: a send off the graph physically cannot be carried and
  // is lost like partitioned traffic. Broadcast traffic never needs the
  // check — its recipient walk only visits neighbors — which keeps the
  // per-recipient hot path below free of it.
  if (to != from && !topo_now_->adjacent(from, to)) {
    counters_.on_send(message_kind(m), message_size_bytes(m));
    ++messages_dropped_;
    return;
  }
  honest_send(from, to, std::make_shared<const Message>(m));
}

void Simulator::honest_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg) {
  counters_.on_send(message_kind(*msg), message_size_bytes(*msg));

  Duration delay = 0;
  if (to != from && !corrupt_recipient(to)) {
    delay = delays_->delay(from, to, now_, params_.tdel, *net_rng_);
    if (delay == kDropMessage) {
      // The policy partitioned this link: the message is lost in transit.
      ++messages_dropped_;
      return;
    }
    ST_ASSERT(delay >= 0 && delay <= params_.tdel,
              "DelayPolicy returned a delay outside [0, tdel]");
    ST_ASSERT(delay >= lookahead_, "DelayPolicy violated its min_delay() lookahead contract");
  }
  // Self-delivery and delivery to corrupted nodes (rushing adversary) are
  // immediate; both are within the model's [0, tdel].
  queue_.push_delivery(now_ + delay, DeliveryEvent{to, from, std::move(msg), now_});
}

void Simulator::adversary_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg,
                               RealTime deliver_at) {
  ST_REQUIRE(nodes_[from].corrupt, "adversary_send: sender must be corrupted (channels are "
                                   "authenticated)");
  ST_REQUIRE(deliver_at >= now_, "adversary_send: cannot deliver in the past");
  ST_REQUIRE(to < params_.n, "adversary_send: recipient out of range");
  counters_.on_send(message_kind(*msg), message_size_bytes(*msg));
  if (to != from && !topo_now_->adjacent(from, to)) {
    // Even an omniscient adversary is bound by the graph: a corrupted node
    // can only inject traffic on links it actually has.
    ++messages_dropped_;
    return;
  }
  queue_.push_delivery(deliver_at, DeliveryEvent{to, from, std::move(msg), now_});
}

TimerId Simulator::arm_timer(NodeId node, RealTime fire_at, TimerState kind) {
  const bool fleet = kind == TimerState::kArmedEpoch || kind == TimerState::kArmedCorrupt ||
                     kind == TimerState::kArmedAdversary;
  std::vector<TimerState>& table = fleet ? fleet_timers_ : nodes_[node].timers;
  const TimerId id = (TimerId{fleet ? kFleetOwner : node} << 32) | (table.size() + 1);
  table.push_back(kind);
  if (in_worker()) {
    par_schedule_timer(node, fire_at, id);
  } else {
    queue_.push_timer(std::max(fire_at, now_), TimerEvent{node, id});
  }
  return id;
}

void Simulator::cancel_timer(TimerId id) {
  TimerState& state = timer_state(id);
  ST_REQUIRE(state != TimerState::kArmedStart && state != TimerState::kArmedStop &&
                 state != TimerState::kArmedEpoch && state != TimerState::kArmedCorrupt &&
                 state != TimerState::kArmedTick,
             "cancel_timer: start/stop/epoch/corruption/ticker timers are internal");
  // Cancelling a timer that already fired (or was already cancelled) is a
  // harmless no-op — and leaves no tombstone behind.
  if (state == TimerState::kArmedProcess || state == TimerState::kArmedAdversary) {
    state = TimerState::kCancelled;
  }
}

Simulator::TimerState& Simulator::timer_state(TimerId id) {
  const auto owner = static_cast<NodeId>(id >> 32);
  // Index + 1 sits in the low half: an id of 0 wraps to an index no table has.
  const std::size_t index = static_cast<std::size_t>(id & 0xffffffffu) - 1;
  ST_REQUIRE(owner == kFleetOwner || owner < params_.n, "Simulator: unknown timer id");
  std::vector<TimerState>& table = owner == kFleetOwner ? fleet_timers_ : nodes_[owner].timers;
  ST_REQUIRE(index < table.size(), "Simulator: unknown timer id");
  return table[index];
}

Simulator::TimerState Simulator::take_timer(TimerId id) {
  TimerState& slot = timer_state(id);
  const TimerState kind = slot;
  ST_ASSERT(kind != TimerState::kFired, "Simulator: timer dispatched twice");
  slot = TimerState::kFired;
  return kind;
}

bool Simulator::fleet_wide(TimerId id) {
  return (id >> 32) == kFleetOwner || timer_state(id) == TimerState::kArmedStop;
}

void Simulator::start_ticker(NodeId id, Duration hw_interval) {
  ST_REQUIRE(id < params_.n, "start_ticker: node id out of range");
  ST_REQUIRE(hw_interval > 0, "start_ticker: interval must be positive");
  Node& node = nodes_[id];
  ST_REQUIRE(!node.corrupt, "start_ticker: node is corrupted");
  ST_REQUIRE(node.ticker_interval == 0, "start_ticker: ticker already running");
  node.ticker_interval = hw_interval;
  (void)arm_timer(id, node.hw->when_reads(node.hw->read(now()) + hw_interval),
                  TimerState::kArmedTick);
}

void Simulator::apply_corruption(std::size_t idx) {
  const CorruptionEvent& ev = params_.corruptions[idx];
  // Victims: a seeded random subset of the honest nodes that are up. Every
  // draw below comes from the dedicated corruption stream, in a canonical
  // order (subset first, then per victim ascending by id), so the whole
  // event is a pure function of (seed, event index, fleet state).
  std::vector<NodeId> victims;
  for (const NodeId id : honest_ids_) {
    if (nodes_[id].started && nodes_[id].process != nullptr) victims.push_back(id);
  }
  if (victims.empty()) return;
  const auto want = static_cast<std::size_t>(
      std::ceil(ev.fraction * static_cast<double>(victims.size())));
  const std::size_t count = std::clamp<std::size_t>(want, 1, victims.size());
  corrupt_rng_->shuffle(victims);
  victims.resize(count);
  std::sort(victims.begin(), victims.end());

  ++corruption_events_fired_;
  nodes_corrupted_ += count;
  for (const NodeId id : victims) {
    Node& node = nodes_[id];
    if (ev.kinds & kCorruptClocks) {
      // Shift the correction state by a uniform draw; the HARDWARE clock is
      // untouched (it is an oscillator, not memory) — which is exactly the
      // anchor a self-stabilizing protocol recovers from.
      const Duration delta = corrupt_rng_->uniform(-ev.clock_range, ev.clock_range);
      node.logical->adjust_override(node.hw->read(now_), delta);
    }
    if (ev.kinds & kCorruptTimers) {
      // Pending protocol timers are memory; they vanish exactly like on a
      // churn crash. The hardware ticker (kArmedTick) survives.
      for (TimerState& st : node.timers) {
        if (st == TimerState::kArmedProcess) st = TimerState::kCancelled;
      }
    }
    if (ev.kinds & kCorruptBuffers) node.purge_before = now_;
    if (ev.kinds & kCorruptState) node.process->corrupt_state(*corrupt_rng_);
  }
}

// --- Context ---

std::uint32_t Context::n() const { return sim_->params_.n; }

LocalTime Context::hardware_now() const { return sim_->nodes_[id_].hw->read(sim_->now()); }

LocalTime Context::logical_now() const { return sim_->nodes_[id_].logical->read(sim_->now()); }

LogicalClock& Context::logical() { return *sim_->nodes_[id_].logical; }

void Context::broadcast(const Message& m) {
  if (sim_->in_worker()) {
    // Parallel window execution: the fan-out is buffered and replayed at
    // commit, where delay draws (and sampled-mode peer draws) happen in the
    // sequential engine's canonical order.
    sim_->par_broadcast(id_, m);
    return;
  }
  // Intern the payload once for the whole fan-out: n refcount bumps instead
  // of n deep copies (a RoundMsg relay bundle carries Theta(n) signatures).
  const auto msg = std::make_shared<const Message>(m);
  sim_->for_each_recipient(id_, [&](NodeId to) { sim_->honest_send(id_, to, msg); });
}

bool Simulator::sample_broadcast_targets(NodeId from) {
  const Topology* topo = topo_now_;
  const std::uint32_t m = params_.sample_size;
  const NodeId* domain = nullptr;  // null = implicit all-but-self (complete)
  std::uint32_t domain_size = 0;
  if (topo->is_complete()) {
    domain_size = params_.n - 1;
  } else {
    const auto [nbrs, degree] = topo->neighbor_span(from);
    domain = nbrs;
    domain_size = static_cast<std::uint32_t>(degree);
  }
  if (domain_size <= m) return false;  // degenerate: the full fan-out, no draws
  sample_scratch_.clear();
  // Floyd's algorithm: m distinct indices in [0, domain_size), exactly m
  // draws from the dedicated stream regardless of domain size.
  broadcast_sample::floyd_indices(*bcast_rng_, domain_size, m, sample_scratch_);
  // Map indices to node ids: the implicit complete domain is 0..n-1 minus
  // self, a CSR row already holds ids (and never contains self).
  for (NodeId& id : sample_scratch_) {
    id = domain != nullptr ? domain[id] : (id < from ? id : id + 1);
  }
  // Ascending, as the recipient walk requires.
  std::sort(sample_scratch_.begin(), sample_scratch_.end());
  return true;
}

void Context::send(NodeId to, const Message& m) { sim_->honest_send(id_, to, m); }

TimerId Context::set_timer_at_logical(LocalTime target) {
  const RealTime fire_at = sim_->nodes_[id_].logical->when_reads(sim_->now(), target);
  return sim_->arm_timer(id_, fire_at);
}

TimerId Context::set_timer_at_hardware(LocalTime target) {
  const HardwareClock& hw = *sim_->nodes_[id_].hw;
  const RealTime now = sim_->now();
  const RealTime fire_at = target <= hw.read(now) ? now : hw.when_reads(target);
  return sim_->arm_timer(id_, fire_at);
}

void Context::cancel_timer(TimerId id) { sim_->cancel_timer(id); }

void Context::start_ticker(Duration hw_interval) { sim_->start_ticker(id_, hw_interval); }

const crypto::KeyRegistry& Context::registry() const {
  ST_REQUIRE(sim_->registry_ != nullptr, "Context::registry: no key registry installed");
  return *sim_->registry_;
}

const crypto::Signer& Context::signer() const {
  ST_REQUIRE(!sim_->signers_.empty(), "Context::signer: no key registry installed");
  return sim_->signers_[id_];
}

Rng& Context::rng() { return *sim_->nodes_[id_].rng; }

// --- AdversaryContext ---

RealTime AdversaryContext::real_now() const { return sim_->now_; }

std::uint32_t AdversaryContext::n() const { return sim_->params_.n; }

Duration AdversaryContext::tdel() const { return sim_->params_.tdel; }

bool AdversaryContext::is_corrupt(NodeId id) const { return sim_->is_corrupt(id); }

const Simulator& AdversaryContext::observe() const { return *sim_; }

void AdversaryContext::send_from(NodeId from, NodeId to, const Message& m,
                                 RealTime deliver_at) {
  sim_->adversary_send(from, to, std::make_shared<const Message>(m), deliver_at);
}

void AdversaryContext::send_from_to_all(NodeId from, const Message& m, RealTime deliver_at) {
  // The flood walks the same recipients an honest broadcast from `from`
  // would (under kSampled: the same stream and domain, so traffic patterns
  // stay comparable). Corrupted recipients, the sender among them, are
  // simply not sent to.
  const auto msg = std::make_shared<const Message>(m);
  sim_->for_each_recipient(from, [&](NodeId to) {
    if (!sim_->is_corrupt(to)) sim_->adversary_send(from, to, msg, deliver_at);
  });
}

const crypto::Signer& AdversaryContext::signer_for(NodeId corrupt_id) const {
  ST_REQUIRE(sim_->is_corrupt(corrupt_id),
             "AdversaryContext::signer_for: honest keys are unforgeable");
  ST_REQUIRE(!sim_->signers_.empty(), "AdversaryContext::signer_for: no key registry");
  return sim_->signers_[corrupt_id];
}

const crypto::KeyRegistry& AdversaryContext::registry() const {
  ST_REQUIRE(sim_->registry_ != nullptr, "AdversaryContext::registry: no key registry");
  return *sim_->registry_;
}

TimerId AdversaryContext::set_timer_at_real(RealTime t) {
  return sim_->arm_timer(0, std::max(t, sim_->now_), Simulator::TimerState::kArmedAdversary);
}

Rng& AdversaryContext::rng() { return *sim_->adv_rng_; }

}  // namespace stclock
