#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/contracts.h"

/// The lookahead-windowed parallel engine (SimParams::sim_threads > 1).
///
/// Conservative PDES, specialized to this simulator's model: every honest
/// cross-node message takes at least DelayPolicy::min_delay(tdel) to arrive,
/// so the events inside one window [t, t + min_delay) cannot causally reach
/// a *different* node within the same window. The engine therefore
///
///  1. drains one window of events off the queue (the "roots"),
///  2. groups them by owning node and executes each node's share on a worker
///     pool through the sequential engine's own node-local path
///     (Simulator::run_node_event) — handlers run for real against
///     node-local state (clocks, process memory, RNG, the node's timer
///     table), while every side effect that touches shared state (sends,
///     timer pushes, counters, RNG draws from the shared net/bcast streams)
///     is buffered into per-worker op logs, and
///  3. replays the logs on the main thread in the exact (time, seq) order
///     the sequential engine would have used, with the clock at each
///     event's time, assigning queue sequence numbers at replay time — so
///     sends go through honest_send and draw their delays in the canonical
///     order, pushes get the canonical seqs, counters advance event by
///     event, and the post-event hook observes the same intermediate states.
///
/// Same-node effects that land inside the window (self-deliveries, timers
/// firing before the window closes) are executed *in* the window by the
/// owning worker, merged into its per-node order; at replay they consume a
/// sequence number via EventQueue::take_seq() at exactly the moment the
/// sequential engine would have pushed them, keeping every later (time, seq)
/// comparison bit-identical.
///
/// Fleet-wide events — churn stops, topology epochs, corruption events —
/// are barriers: the drain stops at one, everything before it runs in
/// parallel, and the barrier itself runs as one sequential step after the
/// commit. Children spawned at or past the barrier's time are deferred to
/// commit-time queue pushes rather than executed locally, because
/// sequentially they would run after the barrier (its seq is older).
///
/// Byzantine adversaries break the premise outright (rushing deliveries to
/// corrupted nodes are immediate), so the engine refuses to engage and the
/// run falls back — loudly — to the sequential path, as it does when the
/// delay policy's min_delay() is zero.
namespace stclock {

namespace {

constexpr std::uint32_t kNoIndex = 0xffffffffu;

/// Which worker slot the current thread is executing (valid only while
/// in_worker() holds for the owning simulator).
thread_local std::uint32_t t_worker_index = 0;

}  // namespace

struct Simulator::ParEngine {
  /// One buffered side effect, replayed on the main thread at commit in the
  /// recording order (which is the handler's issuing order).
  enum class OpKind : std::uint8_t {
    kSendPush,       ///< replayed through honest_send: a cross-node send, or a
                     ///< self-delivery at or past a barrier's time
    kSendDropNoLink, ///< unicast without a link: honest_send's link check drops it
    kSendLocal,      ///< self-delivery executed in-window: on_send, take_seq
    kTimerPush,      ///< timer beyond the window: push_timer with its id
    kTimerLocal,     ///< timer executed in-window: take_seq
    kSampledBcast,   ///< sampled fan-out: peer draws happen at commit
  };

  struct Op {
    OpKind kind;
    NodeId to = 0;                  ///< recipient / timer owner
    std::uint32_t child = kNoIndex; ///< in-window child rec (kSendLocal/kTimerLocal/self of kSampledBcast)
    RealTime fire_at = 0;           ///< kTimerPush: push time
    TimerId timer = 0;              ///< kTimerPush: the timer id
    std::shared_ptr<const Message> msg;
  };

  /// One executed event: a drained root or an in-window child. Roots carry
  /// their queue seq; children get theirs at commit (take_seq), exactly when
  /// the sequential engine would have pushed them.
  /// Kept flat rather than holding an Event: a window's recs are the
  /// engine's largest buffer, and an Event carries both payloads.
  struct Rec {
    RealTime time = 0;
    std::uint64_t seq = 0;
    NodeId node = 0;            ///< the node the event runs on
    NodeId from = 0;            ///< delivery sender
    TimerId timer_id = 0;
    RealTime sent_at = 0;
    std::shared_ptr<const Message> msg;  ///< delivery payload; null for timers
    std::uint32_t ops_begin = 0;
    std::uint32_t ops_end = 0;
    std::uint32_t next_in_node = kNoIndex; ///< root chain within the node
    bool purge_dropped = false; ///< delivery hit the node's wiped buffer
    bool has_obs = false;       ///< an ObsChange entry was recorded for this rec

    [[nodiscard]] bool is_timer() const { return msg == nullptr; }
    [[nodiscard]] Event event() const {
      if (is_timer()) return Event{time, seq, true, TimerEvent{node, timer_id}, {}};
      return Event{time, seq, false, {}, DeliveryEvent{node, from, msg, sent_at}};
    }
  };

  /// Pre-state snapshot taken whenever a rec changes the node's observable
  /// state (started flag, include predicate, logical clock). The replay
  /// cursor walks these so the post-event hook observes exactly the
  /// sequential intermediate values, never a worker's finished future.
  struct ObsChange {
    RealTime time = 0;
    LocalTime pre_value = 0;
    bool pre_started = false;
    bool pre_include = false;
    bool clock_changed = false;
  };

  /// Per-node exec-order heap entry for in-window children: spawn order
  /// stands in for the commit seq (children of one node are committed in
  /// spawn order, so the tie-break agrees).
  struct HeapEntry {
    RealTime time = 0;
    std::uint32_t rank = 0;
    std::uint32_t rec = 0;
  };

  struct ReplayEntry {
    RealTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t worker = 0;
    std::uint32_t rec = 0;
  };

  struct Worker {
    std::vector<Rec> recs;
    std::vector<Op> ops;
    std::vector<ObsChange> obs;
    std::vector<NodeId> nodes;  ///< owned this window, first-appearance order
    std::vector<HeapEntry> heap;
    std::uint32_t spawn_rank = 0;
    std::uint32_t cur_rec = kNoIndex;
    std::exception_ptr error;
  };

  /// Where a node's pending ObsChange entries live (gen-marked by obs_gen).
  struct ObsSpan {
    std::uint32_t worker = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t cursor = 0;
  };

  Simulator* sim;
  std::uint32_t nworkers;
  /// One slot per worker thread, plus workers[nworkers]: the commit phase's
  /// inert recs (deliveries to crashed nodes), which only ever replay.
  std::vector<Worker> workers;

  // Per-node routing state, generation-marked so a window touching k nodes
  // costs O(k) setup, not O(n).
  std::vector<std::uint32_t> node_worker, chain_head, chain_tail;
  std::vector<std::uint64_t> node_gen, obs_gen;
  std::vector<ObsSpan> obs_span;
  std::uint64_t gen = 0;
  std::uint32_t rr = 0;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> commit_order;  // (worker, rec)
  std::vector<ReplayEntry> replay_heap;
  RealTime window_bound = 0;    ///< exclusive local-execution bound (W, or the barrier time)
  RealTime window_horizon = 0;  ///< run_until horizon (events never execute past it)

  std::vector<std::thread> threads;
  std::mutex mu;
  std::condition_variable cv_start, cv_done;
  std::uint64_t start_gen = 0;
  std::uint32_t running = 0;
  bool shutdown = false;

  ParEngine(Simulator* s, std::uint32_t nthreads)
      : sim(s), nworkers(nthreads), workers(nthreads + 1) {
    const std::size_t n = s->params_.n;
    node_worker.resize(n);
    chain_head.resize(n);
    chain_tail.resize(n);
    node_gen.assign(n, 0);
    obs_gen.assign(n, 0);
    obs_span.resize(n);
    threads.reserve(nthreads - 1);
    for (std::uint32_t w = 1; w < nthreads; ++w) {
      threads.emplace_back([this, w] { thread_main(w); });
    }
  }

  ~ParEngine() {
    {
      std::lock_guard<std::mutex> lk(mu);
      shutdown = true;
    }
    cv_start.notify_all();
    for (std::thread& t : threads) t.join();
  }

  void thread_main(std::uint32_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_start.wait(lk, [&] { return shutdown || start_gen != seen; });
        if (shutdown) return;
        seen = start_gen;
      }
      exec_worker(w);
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--running == 0) cv_done.notify_all();
      }
    }
  }

  /// Kicks the pool, runs worker 0's share on the calling (main) thread,
  /// and waits for everyone. The mutex handoffs give the usual barrier
  /// happens-before in both directions.
  void release_and_join() {
    {
      std::lock_guard<std::mutex> lk(mu);
      running = nworkers - 1;
      ++start_gen;
    }
    cv_start.notify_all();
    exec_worker(0);
    if (nworkers > 1) {
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] { return running == 0; });
    }
  }

  // ---------------------------------------------------------------- window

  void run_window(RealTime horizon) {
    Simulator& S = *sim;
    ++gen;
    rr = 0;
    commit_order.clear();
    replay_heap.clear();
    for (Worker& wk : workers) {
      wk.recs.clear();
      wk.ops.clear();
      wk.obs.clear();
      wk.nodes.clear();
      wk.error = nullptr;
    }

    const RealTime t0 = S.queue_.next_time();
    RealTime bound = t0 + S.lookahead_;
    if (!(bound > t0)) {
      // Float edge: t0 so large the lookahead rounds away entirely. One
      // sequential step makes progress instead of spinning on empty windows.
      S.step(S.queue_.pop());
      return;
    }
    window_horizon = horizon;

    bool have_barrier = false;
    Event barrier_ev;
    Event ev;
    while (S.queue_.pop_window(bound, horizon, ev)) {
      if (ev.is_timer && S.fleet_wide(ev.timer.id)) {
        // Fleet-wide event: close the window here. Everything drained so
        // far precedes it in (time, seq) order; children at or past its
        // time defer to the queue (window_bound shrinks to the barrier).
        have_barrier = true;
        barrier_ev = ev;
        bound = ev.time;
        break;
      }
      route_root(std::move(ev));
    }
    window_bound = bound;

    if (!commit_order.empty()) {
      release_and_join();
      for (const Worker& wk : workers) {
        if (wk.error) std::rethrow_exception(wk.error);
      }
      replay();
    }

    if (have_barrier) S.step(barrier_ev);
  }

  void route_root(Event&& ev) {
    const NodeId v = ev.is_timer ? ev.timer.node : ev.delivery.to;
    if (node_gen[v] != gen) {
      node_gen[v] = gen;
      node_worker[v] = rr++ % nworkers;
      chain_head[v] = kNoIndex;
      chain_tail[v] = kNoIndex;
      workers[node_worker[v]].nodes.push_back(v);
    }
    const std::uint32_t w = node_worker[v];
    Worker& wk = workers[w];
    const auto idx = static_cast<std::uint32_t>(wk.recs.size());
    Rec rec;
    rec.time = ev.time;
    rec.seq = ev.seq;
    rec.node = v;
    if (ev.is_timer) {
      rec.timer_id = ev.timer.id;
    } else {
      rec.from = ev.delivery.from;
      rec.sent_at = ev.delivery.sent_at;
      rec.msg = std::move(ev.delivery.msg);
    }
    wk.recs.push_back(std::move(rec));
    if (chain_tail[v] == kNoIndex) {
      chain_head[v] = idx;
    } else {
      wk.recs[chain_tail[v]].next_in_node = idx;
    }
    chain_tail[v] = idx;
    commit_order.emplace_back(w, idx);
  }

  // ------------------------------------------------------------ worker phase

  void exec_worker(std::uint32_t w) {
    Worker& wk = workers[w];
    sim->tls_enter_worker();
    t_worker_index = w;
    try {
      for (const NodeId v : wk.nodes) run_node(w, v);
    } catch (...) {
      wk.error = std::current_exception();
    }
    sim->tls_leave_worker();
  }

  static bool heap_after(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time > b.time : a.rank > b.rank;
  }

  /// Executes node v's window share: the root chain (already (time, seq)
  /// sorted — drain order) merged with the in-window children it spawns.
  /// Roots win time ties (their seqs predate any commit-assigned child seq);
  /// children tie-break by spawn rank, which equals their commit seq order.
  void run_node(std::uint32_t w, NodeId v) {
    Worker& wk = workers[w];
    const auto obs_begin = static_cast<std::uint32_t>(wk.obs.size());
    wk.heap.clear();
    std::uint32_t root = chain_head[v];
    while (root != kNoIndex || !wk.heap.empty()) {
      std::uint32_t r;
      bool from_root;
      if (root != kNoIndex &&
          (wk.heap.empty() || wk.recs[root].time <= wk.heap.front().time)) {
        r = root;
        from_root = true;
      } else {
        r = wk.heap.front().rec;
        std::pop_heap(wk.heap.begin(), wk.heap.end(), heap_after);
        wk.heap.pop_back();
        from_root = false;
      }
      exec_rec(w, r);
      if (from_root) root = wk.recs[r].next_in_node;
    }
    obs_span[v] = ObsSpan{w, obs_begin, static_cast<std::uint32_t>(wk.obs.size()), obs_begin};
    obs_gen[v] = gen;
  }

  /// Runs one rec through the shared node-local path, bracketed by the
  /// observable-state snapshot the replay needs.
  void exec_rec(std::uint32_t w, std::uint32_t r) {
    Worker& wk = workers[w];
    const Event ev = wk.recs[r].event();  // a copy: spawns may grow wk.recs
    const NodeId v = wk.recs[r].node;
    sim->tls_set_worker_now(ev.time);
    Node& node = sim->nodes_[v];

    const bool pre_started = node.started;
    const bool pre_include = sim->include_probe_ == nullptr || sim->include_probe_(v);
    const std::uint64_t pre_adj = node.logical->adjustment_count();
    const LocalTime pre_value = node.logical->read(ev.time);
    wk.cur_rec = r;
    wk.recs[r].ops_begin = static_cast<std::uint32_t>(wk.ops.size());
    // A wiped-buffer drop is *counted* at replay, so messages_dropped_
    // advances in sequential order.
    wk.recs[r].purge_dropped = !sim->run_node_event(ev);
    wk.recs[r].ops_end = static_cast<std::uint32_t>(wk.ops.size());

    const bool post_include = sim->include_probe_ == nullptr || sim->include_probe_(v);
    const bool clock_changed = node.logical->adjustment_count() != pre_adj;
    if (node.started != pre_started || post_include != pre_include || clock_changed) {
      wk.obs.push_back(ObsChange{ev.time, pre_value, pre_started, pre_include, clock_changed});
      wk.recs[r].has_obs = true;
    }
  }

  // Worker-side effect recording (reached via Simulator::par_*).

  Worker& cur() { return workers[t_worker_index]; }

  /// Appends an in-window child rec and queues it in the worker's exec
  /// order.
  std::uint32_t spawn(Worker& wk, Rec rec) {
    const auto idx = static_cast<std::uint32_t>(wk.recs.size());
    wk.heap.push_back(HeapEntry{rec.time, wk.spawn_rank++, idx});
    std::push_heap(wk.heap.begin(), wk.heap.end(), heap_after);
    wk.recs.push_back(std::move(rec));
    return idx;
  }

  /// A delivery sent at `time` and due at once: a self-delivery, or one to
  /// a crashed node.
  static Rec immediate_delivery(NodeId to, NodeId from, RealTime time,
                                std::shared_ptr<const Message> msg) {
    Rec rec;
    rec.time = time;
    rec.node = to;
    rec.from = from;
    rec.sent_at = time;
    rec.msg = std::move(msg);
    return rec;
  }

  /// The self-delivery of a send made now. Inside the window it executes
  /// here, in this node's order, and the commit assigns its seq at the
  /// moment the push would have happened. At or past a barrier's time it
  /// sequentially runs after the barrier (whose seq is older), so it goes
  /// through the queue instead: kNoIndex.
  std::uint32_t spawn_self(Worker& wk, NodeId self, const std::shared_ptr<const Message>& msg) {
    const RealTime time = wk.recs[wk.cur_rec].time;
    if (!(time < window_bound)) return kNoIndex;
    return spawn(wk, immediate_delivery(self, self, time, msg));
  }

  void op_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg) {
    Worker& wk = cur();
    const std::uint32_t child = to == from ? spawn_self(wk, from, msg) : kNoIndex;
    const OpKind kind = child != kNoIndex ? OpKind::kSendLocal : OpKind::kSendPush;
    wk.ops.push_back(Op{kind, to, child, 0, 0, std::move(msg)});
  }

  void worker_unicast(NodeId from, NodeId to, const Message& m) {
    auto msg = std::make_shared<const Message>(m);
    if (to != from && !sim->topo_now_->adjacent(from, to)) {
      cur().ops.push_back(Op{OpKind::kSendDropNoLink, to, kNoIndex, 0, 0, std::move(msg)});
    } else {
      op_send(from, to, std::move(msg));
    }
  }

  void worker_broadcast(NodeId from, const Message& m) {
    auto msg = std::make_shared<const Message>(m);
    if (sim->params_.broadcast_mode == BroadcastMode::kSampled) {
      // Peer draws come from the shared bcast stream, so the whole fan-out
      // defers to commit; only the self-delivery (always part of a sampled
      // fan-out) is classified now so the window can execute it.
      Worker& wk = cur();
      const std::uint32_t child = spawn_self(wk, from, msg);
      wk.ops.push_back(Op{OpKind::kSampledBcast, from, child, 0, 0, std::move(msg)});
      return;
    }
    sim->for_each_recipient(from, [&](NodeId to) { op_send(from, to, msg); });
  }

  void worker_schedule_timer(NodeId v, RealTime fire_at, TimerId id) {
    Worker& wk = cur();
    const RealTime fire = std::max(fire_at, wk.recs[wk.cur_rec].time);
    if (fire < window_bound && fire <= window_horizon) {
      Rec rec;
      rec.time = fire;
      rec.node = v;
      rec.timer_id = id;
      const std::uint32_t child = spawn(wk, std::move(rec));
      wk.ops.push_back(Op{OpKind::kTimerLocal, v, child, 0, 0, nullptr});
    } else {
      wk.ops.push_back(Op{OpKind::kTimerPush, v, kNoIndex, fire, id, nullptr});
    }
  }

  // ------------------------------------------------------------ commit phase

  void replay() {
    std::size_t ri = 0;
    while (ri < commit_order.size() || !replay_heap.empty()) {
      bool take_root = ri < commit_order.size();
      if (take_root && !replay_heap.empty()) {
        const Rec& root = workers[commit_order[ri].first].recs[commit_order[ri].second];
        const ReplayEntry& top = replay_heap.front();
        take_root = root.time != top.time ? root.time < top.time : root.seq < top.seq;
      }
      if (take_root) {
        replay_rec(commit_order[ri].first, commit_order[ri].second);
        ++ri;
      } else {
        const ReplayEntry top = replay_heap.front();
        std::pop_heap(replay_heap.begin(), replay_heap.end(), replay_after);
        replay_heap.pop_back();
        replay_rec(top.worker, top.rec);
      }
    }
  }

  static bool replay_after(const ReplayEntry& a, const ReplayEntry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  void replay_rec(std::uint32_t w, std::uint32_t r) {
    Simulator& S = *sim;
    Worker& wk = workers[w];
    // Only inert recs are appended during replay, and into workers[nworkers],
    // whose recs carry no ops: this reference stays valid.
    const Rec& rec = wk.recs[r];
    ST_REQUIRE(++S.events_dispatched_ <= S.params_.max_events,
               "Simulator: event budget exhausted (runaway protocol?)");
    S.now_ = rec.time;
    S.last_event_node_ = kNoNode;
    if (!rec.is_timer()) {
      S.counters_.on_deliver(message_kind(*rec.msg));
      if (rec.purge_dropped) ++S.messages_dropped_;
    }
    for (std::uint32_t oi = rec.ops_begin; oi < rec.ops_end; ++oi) {
      apply_op(w, rec, wk.ops[oi]);
    }
    if (rec.has_obs) ++obs_span[rec.node].cursor;  // the change is now committed
    if (S.post_event_hook_) S.post_event_hook_(S);
  }

  void schedule_child(std::uint32_t w, std::uint32_t child) {
    Rec& c = workers[w].recs[child];
    c.seq = sim->queue_.take_seq();
    replay_heap.push_back(ReplayEntry{c.time, c.seq, w, child});
    std::push_heap(replay_heap.begin(), replay_heap.end(), replay_after);
  }

  /// Commits a send whose delivery is an in-window child rec.
  void send_child(std::uint32_t w, std::uint32_t child, const Message& m) {
    sim->counters_.on_send(message_kind(m), message_size_bytes(m));
    schedule_child(w, child);
  }

  /// Replays one send through honest_send, with `now` at the sender's event
  /// time. A crashed recipient (corrupted, no adversary) gets the message
  /// immediately; inside the window the queue has already drained past that
  /// time, and the delivery runs no handler, so it only takes its seq and
  /// its place in the replay order, as an inert rec.
  void commit_send(const Rec& rec, NodeId to, const std::shared_ptr<const Message>& msg) {
    Simulator& S = *sim;
    if (!S.corrupt_recipient(to) || rec.time >= window_bound) {
      S.honest_send(rec.node, to, msg);
      return;
    }
    Worker& inert = workers[nworkers];
    inert.recs.push_back(immediate_delivery(to, rec.node, rec.time, msg));
    send_child(nworkers, static_cast<std::uint32_t>(inert.recs.size() - 1), *msg);
  }

  void apply_op(std::uint32_t w, const Rec& rec, const Op& op) {
    Simulator& S = *sim;
    switch (op.kind) {
      case OpKind::kSendPush:
        commit_send(rec, op.to, op.msg);
        break;
      case OpKind::kSendDropNoLink:
        S.honest_send(rec.node, op.to, *op.msg);
        break;
      case OpKind::kSendLocal:
        send_child(w, op.child, *op.msg);
        break;
      case OpKind::kTimerPush:
        S.queue_.push_timer(op.fire_at, TimerEvent{op.to, op.timer});
        break;
      case OpKind::kTimerLocal:
        schedule_child(w, op.child);
        break;
      case OpKind::kSampledBcast:
        // The peer draws happen here, in canonical commit order; a domain no
        // larger than the sample takes the walk's full fan-out, no draws.
        S.for_each_recipient(rec.node, [&](NodeId to) {
          if (to == rec.node && op.child != kNoIndex) {
            send_child(w, op.child, *op.msg);
          } else {
            commit_send(rec, to, op.msg);
          }
        });
        break;
    }
  }
};

// ------------------------------------------------------------ Simulator glue

Simulator::~Simulator() = default;

void Simulator::ParEngineDeleter::operator()(ParEngine* e) const { delete e; }

void Simulator::maybe_enable_parallel() {
  par_checked_ = true;
  if (params_.sim_threads <= 1) return;
  if (adversary_ != nullptr) {
    std::fprintf(stderr,
                 "stclock: sim_threads=%u requested but a Byzantine adversary is installed "
                 "(rushing deliveries are immediate, so no lookahead window exists); "
                 "falling back to the sequential engine\n",
                 params_.sim_threads);
    return;
  }
  const Duration look = delays_->min_delay(params_.tdel);
  ST_REQUIRE(look >= 0 && look <= params_.tdel,
             "DelayPolicy::min_delay must lie in [0, tdel]");
  if (!(look > 0)) {
    std::fprintf(stderr,
                 "stclock: sim_threads=%u requested but the delay policy's min_delay() is "
                 "zero (no lookahead window); falling back to the sequential engine\n",
                 params_.sim_threads);
    return;
  }
  lookahead_ = look;
  par_.reset(new ParEngine(this, params_.sim_threads));
}

void Simulator::run_parallel(RealTime horizon) {
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    par_->run_window(horizon);
    ++parallel_windows_;
  }
}

void Simulator::par_unicast(NodeId from, NodeId to, const Message& m) {
  par_->worker_unicast(from, to, m);
}

void Simulator::par_broadcast(NodeId from, const Message& m) {
  par_->worker_broadcast(from, m);
}

void Simulator::par_schedule_timer(NodeId node, RealTime fire_at, TimerId id) {
  par_->worker_schedule_timer(node, fire_at, id);
}

bool Simulator::observe_started_slow(NodeId id) const {
  const ParEngine& e = *par_;
  if (e.obs_gen[id] == e.gen) {
    const ParEngine::ObsSpan& s = e.obs_span[id];
    if (s.cursor < s.end) return e.workers[s.worker].obs[s.cursor].pre_started;
  }
  return nodes_[id].started;
}

bool Simulator::observe_include_slow(NodeId id) const {
  const ParEngine& e = *par_;
  if (e.obs_gen[id] == e.gen) {
    const ParEngine::ObsSpan& s = e.obs_span[id];
    if (s.cursor < s.end) return e.workers[s.worker].obs[s.cursor].pre_include;
  }
  return include_probe_ == nullptr || include_probe_(id);
}

LocalTime Simulator::observe_logical_slow(NodeId id, RealTime t) const {
  const ParEngine& e = *par_;
  if (e.obs_gen[id] == e.gen) {
    const ParEngine::ObsSpan& s = e.obs_span[id];
    const auto& obs = e.workers[s.worker].obs;
    // Pending entries have time >= the replay point. Only an uncommitted
    // adjustment at exactly t could pollute a live read (later pieces start
    // past t and cannot affect read(t)); the first such entry's pre-state is
    // the sequential value.
    for (std::uint32_t i = s.cursor; i < s.end && obs[i].time <= t; ++i) {
      if (obs[i].clock_changed) return obs[i].pre_value;
    }
  }
  return nodes_[id].logical->read(t);
}

}  // namespace stclock
