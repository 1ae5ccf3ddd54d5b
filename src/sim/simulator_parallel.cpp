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
///     pool — handlers run for real against node-local state (clocks,
///     process memory, RNG), while every side effect that touches shared
///     state (sends, timer pushes, counters, RNG draws from the shared
///     net/bcast streams) is buffered into per-worker op logs, and
///  3. replays the logs on the main thread in the exact (time, seq) order
///     the sequential engine would have used, assigning queue sequence
///     numbers at replay time — so delays are drawn in the canonical order,
///     pushes get the canonical seqs, counters advance event by event, and
///     the post-event hook observes the same intermediate states.
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
/// parallel, and the barrier itself dispatches sequentially after the
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
    kSendLink,       ///< cross-node send: on_send, delay draw, push or drop
    kSendSelfPush,   ///< self-delivery deferred past a barrier: on_send, push
    kSendLocal,      ///< self-delivery executed in-window: on_send, take_seq
    kSendDropNoLink, ///< unicast without a link: on_send, count the drop
    kTimerPush,      ///< timer beyond the window: push_timer with its par id
    kTimerLocal,     ///< timer executed in-window: take_seq
    kSampledBcast,   ///< sampled fan-out: peer draws happen at commit
  };

  struct Op {
    OpKind kind;
    NodeId to = 0;                  ///< recipient / timer owner
    std::uint32_t child = kNoIndex; ///< in-window child rec (kSendLocal/kTimerLocal/self of kSampledBcast)
    RealTime fire_at = 0;           ///< push time for deferred pushes
    TimerId timer = 0;              ///< kTimerPush/kTimerLocal: the parallel timer id
    std::shared_ptr<const Message> msg;
  };

  /// One executed event: a drained root or an in-window child. Roots carry
  /// their queue seq; children get theirs at commit (take_seq), exactly when
  /// the sequential engine would have pushed them.
  struct Rec {
    RealTime time = 0;
    std::uint64_t seq = 0;
    NodeId node = 0;
    bool is_timer = false;
    bool purge_dropped = false; ///< delivery hit the node's wiped buffer
    bool has_obs = false;       ///< an ObsChange entry was recorded for this rec
    TimerId timer_id = 0;
    NodeId from = 0;
    RealTime sent_at = 0;
    std::shared_ptr<const Message> msg;
    std::uint32_t ops_begin = 0;
    std::uint32_t ops_end = 0;
    std::uint32_t next_in_node = kNoIndex; ///< root chain within the node
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
  Duration lookahead;
  std::uint32_t nworkers;
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

  ParEngine(Simulator* s, Duration look, std::uint32_t nthreads)
      : sim(s), lookahead(look), nworkers(nthreads), workers(nthreads) {
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
    RealTime bound = t0 + lookahead;
    if (!(bound > t0)) {
      // Float edge: t0 so large the lookahead rounds away entirely. One
      // sequential step makes progress instead of spinning on empty windows.
      sequential_step();
      return;
    }
    window_horizon = horizon;

    bool have_barrier = false;
    Event barrier_ev;
    Event ev;
    while (S.queue_.pop_window(bound, horizon, ev)) {
      if (ev.is_timer) {
        const TimerState st = S.timer_state(ev.timer.id);
        if (st == TimerState::kArmedStop || st == TimerState::kArmedEpoch ||
            st == TimerState::kArmedCorrupt || st == TimerState::kArmedAdversary) {
          // Fleet-wide event: close the window here. Everything drained so
          // far precedes it in (time, seq) order; children at or past its
          // time defer to the queue (window_bound shrinks to the barrier).
          have_barrier = true;
          barrier_ev = ev;
          bound = ev.time;
          break;
        }
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

    if (have_barrier) {
      ST_REQUIRE(++S.events_dispatched_ <= S.params_.max_events,
                 "Simulator: event budget exhausted (runaway protocol?)");
      S.now_ = barrier_ev.time;
      S.dispatch(barrier_ev);
      if (S.post_event_hook_) S.post_event_hook_(S);
    }
  }

  /// The sequential engine's step, verbatim, for windows that cannot open.
  void sequential_step() {
    Simulator& S = *sim;
    ST_REQUIRE(++S.events_dispatched_ <= S.params_.max_events,
               "Simulator: event budget exhausted (runaway protocol?)");
    const Event ev = S.queue_.pop();
    S.now_ = ev.time;
    S.dispatch(ev);
    if (S.post_event_hook_) S.post_event_hook_(S);
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
    rec.is_timer = ev.is_timer;
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

  /// Executes node v's window share: the root chain (already (time, seq)
  /// sorted — drain order) merged with the in-window children it spawns.
  /// Roots win time ties (their seqs predate any commit-assigned child seq);
  /// children tie-break by spawn rank, which equals their commit seq order.
  void run_node(std::uint32_t w, NodeId v) {
    Worker& wk = workers[w];
    const auto obs_begin = static_cast<std::uint32_t>(wk.obs.size());
    wk.heap.clear();
    const auto heap_after = [](const HeapEntry& a, const HeapEntry& b) {
      return a.time != b.time ? a.time > b.time : a.rank > b.rank;
    };
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

  void exec_rec(std::uint32_t w, std::uint32_t r) {
    Worker& wk = workers[w];
    const RealTime time = wk.recs[r].time;
    const NodeId v = wk.recs[r].node;
    sim->tls_set_worker_now(time);
    Node& node = sim->nodes_[v];

    const bool pre_started = node.started;
    const bool pre_include = sim->include_probe_ == nullptr || sim->include_probe_(v);
    const std::uint64_t pre_adj = node.logical->adjustment_count();
    const LocalTime pre_value = node.logical->read(time);
    wk.cur_rec = r;
    wk.recs[r].ops_begin = static_cast<std::uint32_t>(wk.ops.size());

    if (!wk.recs[r].is_timer) {
      if (wk.recs[r].sent_at < node.purge_before) {
        // Wiped in-flight buffer; the drop is *counted* at replay so
        // messages_dropped_ advances in sequential order.
        wk.recs[r].purge_dropped = true;
      } else if (node.process != nullptr && node.started) {
        // Keep the payload alive across rec-vector growth from spawns.
        const std::shared_ptr<const Message> msg = wk.recs[r].msg;
        const NodeId from = wk.recs[r].from;
        node.process->on_message(*node.ctx, from, *msg);
      }
    } else {
      const TimerId id = wk.recs[r].timer_id;
      TimerState& slot = sim->timer_state(id);
      const TimerState kind = slot;
      slot = TimerState::kFired;  // owner-only byte write; each id pops once
      switch (kind) {
        case TimerState::kCancelled:
          break;  // still an event: counted and hooked at replay
        case TimerState::kArmedStart:
          node.started = true;
          node.process->on_start(*node.ctx);
          break;
        case TimerState::kArmedTick:
          if (node.process != nullptr && node.started && node.ticker_interval > 0) {
            // Re-arm before the callback, like the sequential dispatcher.
            (void)sim->arm_timer(
                v, node.hw->when_reads(node.hw->read(time) + node.ticker_interval),
                TimerState::kArmedTick);
            node.process->on_tick(*node.ctx);
          }
          break;
        case TimerState::kArmedProcess:
          if (node.process != nullptr && node.started) {
            node.process->on_timer(*node.ctx, id);
          }
          break;
        default:
          ST_ASSERT(kind == TimerState::kCancelled,
                    "parallel worker executed a fleet-wide (barrier) timer");
          break;
      }
    }

    wk.recs[r].ops_end = static_cast<std::uint32_t>(wk.ops.size());
    const bool post_include = sim->include_probe_ == nullptr || sim->include_probe_(v);
    const bool clock_changed = node.logical->adjustment_count() != pre_adj;
    if (node.started != pre_started || post_include != pre_include || clock_changed) {
      wk.obs.push_back(ObsChange{time, pre_value, pre_started, pre_include, clock_changed});
      wk.recs[r].has_obs = true;
    }
  }

  // Worker-side effect recording (reached via Simulator::par_*).

  Worker& cur() { return workers[t_worker_index]; }

  std::uint32_t spawn_delivery(Worker& wk, NodeId to, NodeId from, RealTime time,
                               const std::shared_ptr<const Message>& msg) {
    const auto idx = static_cast<std::uint32_t>(wk.recs.size());
    Rec rec;
    rec.time = time;
    rec.node = to;
    rec.is_timer = false;
    rec.from = from;
    rec.sent_at = time;
    rec.msg = msg;
    wk.recs.push_back(std::move(rec));
    wk.heap.push_back(HeapEntry{time, wk.spawn_rank++, idx});
    std::push_heap(wk.heap.begin(), wk.heap.end(), [](const HeapEntry& a, const HeapEntry& b) {
      return a.time != b.time ? a.time > b.time : a.rank > b.rank;
    });
    return idx;
  }

  std::uint32_t spawn_timer(Worker& wk, NodeId v, RealTime fire, TimerId id) {
    const auto idx = static_cast<std::uint32_t>(wk.recs.size());
    Rec rec;
    rec.time = fire;
    rec.node = v;
    rec.is_timer = true;
    rec.timer_id = id;
    wk.recs.push_back(std::move(rec));
    wk.heap.push_back(HeapEntry{fire, wk.spawn_rank++, idx});
    std::push_heap(wk.heap.begin(), wk.heap.end(), [](const HeapEntry& a, const HeapEntry& b) {
      return a.time != b.time ? a.time > b.time : a.rank > b.rank;
    });
    return idx;
  }

  void op_send_peer(NodeId to, std::shared_ptr<const Message> msg) {
    cur().ops.push_back(Op{OpKind::kSendLink, to, kNoIndex, 0, 0, std::move(msg)});
  }

  void op_send_self(NodeId self, std::shared_ptr<const Message> msg) {
    Worker& wk = cur();
    const RealTime time = wk.recs[wk.cur_rec].time;
    if (time < window_bound) {
      // Lands inside the window: execute it here, in this node's order; the
      // commit assigns its seq at the moment the push would have happened.
      const std::uint32_t child = spawn_delivery(wk, self, self, time, msg);
      wk.ops.push_back(Op{OpKind::kSendLocal, self, child, time, 0, std::move(msg)});
    } else {
      // At or past a barrier's time: sequentially this runs after the
      // barrier (its seq is older), so it must go through the queue.
      wk.ops.push_back(Op{OpKind::kSendSelfPush, self, kNoIndex, time, 0, std::move(msg)});
    }
  }

  void worker_unicast(NodeId from, NodeId to, const Message& m) {
    if (to != from && !sim->topo_now_->adjacent(from, to)) {
      cur().ops.push_back(
          Op{OpKind::kSendDropNoLink, to, kNoIndex, 0, 0, std::make_shared<const Message>(m)});
      return;
    }
    auto msg = std::make_shared<const Message>(m);
    if (to == from) {
      op_send_self(from, std::move(msg));
    } else {
      op_send_peer(to, std::move(msg));
    }
  }

  void worker_broadcast(NodeId from, const Message& m) {
    auto msg = std::make_shared<const Message>(m);
    if (sim->params_.broadcast_mode == BroadcastMode::kSampled) {
      // Peer draws come from the shared bcast stream, so the whole fan-out
      // defers to commit; only the self-delivery (always part of a sampled
      // fan-out) is classified now so the window can execute it.
      Worker& wk = cur();
      const RealTime time = wk.recs[wk.cur_rec].time;
      std::uint32_t child = kNoIndex;
      if (time < window_bound) child = spawn_delivery(wk, from, from, time, msg);
      wk.ops.push_back(Op{OpKind::kSampledBcast, from, child, time, 0, std::move(msg)});
      return;
    }
    sim->for_each_recipient(from, [&](NodeId to) {
      if (to == from) {
        op_send_self(from, msg);
      } else {
        op_send_peer(to, msg);
      }
    });
  }

  TimerId worker_arm_timer(NodeId v, RealTime fire_at, TimerState kind) {
    Worker& wk = cur();
    Node& node = sim->nodes_[v];
    const std::size_t index = node.par_timers.size();
    node.par_timers.push_back(kind);
    const TimerId id = par_timer_id(v, index);
    const RealTime fire = std::max(fire_at, wk.recs[wk.cur_rec].time);
    if (fire < window_bound && fire <= window_horizon) {
      const std::uint32_t child = spawn_timer(wk, v, fire, id);
      wk.ops.push_back(Op{OpKind::kTimerLocal, v, child, fire, id, nullptr});
    } else {
      wk.ops.push_back(Op{OpKind::kTimerPush, v, kNoIndex, fire, id, nullptr});
    }
    return id;
  }

  // ------------------------------------------------------------ commit phase

  void replay() {
    Simulator& S = *sim;
    std::size_t ri = 0;
    while (ri < commit_order.size() || !replay_heap.empty()) {
      bool take_root;
      if (ri >= commit_order.size()) {
        take_root = false;
      } else if (replay_heap.empty()) {
        take_root = true;
      } else {
        const Rec& root = workers[commit_order[ri].first].recs[commit_order[ri].second];
        const ReplayEntry& top = replay_heap.front();
        take_root = root.time != top.time ? root.time < top.time : root.seq < top.seq;
      }
      std::uint32_t w, r;
      if (take_root) {
        w = commit_order[ri].first;
        r = commit_order[ri].second;
        ++ri;
      } else {
        w = replay_heap.front().worker;
        r = replay_heap.front().rec;
        std::pop_heap(replay_heap.begin(), replay_heap.end(), replay_after);
        replay_heap.pop_back();
      }
      replay_rec(w, r);
    }
    (void)S;
  }

  static bool replay_after(const ReplayEntry& a, const ReplayEntry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  void replay_rec(std::uint32_t w, std::uint32_t r) {
    Simulator& S = *sim;
    Worker& wk = workers[w];
    Rec& rec = wk.recs[r];
    ST_REQUIRE(++S.events_dispatched_ <= S.params_.max_events,
               "Simulator: event budget exhausted (runaway protocol?)");
    S.now_ = rec.time;
    if (!rec.is_timer) {
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

  void send_peer_commit(const Rec& rec, NodeId to, const std::shared_ptr<const Message>& msg) {
    Simulator& S = *sim;
    S.counters_.on_send(message_kind(*msg), message_size_bytes(*msg));
    const Duration delay = S.delays_->delay(rec.node, to, rec.time, S.params_.tdel, *S.net_rng_);
    if (delay == kDropMessage) {
      ++S.messages_dropped_;
      return;
    }
    ST_ASSERT(delay >= 0 && delay <= S.params_.tdel,
              "DelayPolicy returned a delay outside [0, tdel]");
    ST_ASSERT(delay >= lookahead,
              "DelayPolicy violated its min_delay() lookahead contract");
    S.queue_.push_delivery(rec.time + delay, DeliveryEvent{to, rec.node, msg, rec.time});
  }

  void apply_op(std::uint32_t w, const Rec& rec, Op& op) {
    Simulator& S = *sim;
    switch (op.kind) {
      case OpKind::kSendLink:
        send_peer_commit(rec, op.to, op.msg);
        break;
      case OpKind::kSendDropNoLink:
        S.counters_.on_send(message_kind(*op.msg), message_size_bytes(*op.msg));
        ++S.messages_dropped_;
        break;
      case OpKind::kSendSelfPush:
        S.counters_.on_send(message_kind(*op.msg), message_size_bytes(*op.msg));
        S.queue_.push_delivery(op.fire_at,
                               DeliveryEvent{rec.node, rec.node, op.msg, op.fire_at});
        break;
      case OpKind::kSendLocal:
        S.counters_.on_send(message_kind(*op.msg), message_size_bytes(*op.msg));
        schedule_child(w, op.child);
        break;
      case OpKind::kTimerPush:
        S.queue_.push_timer(op.fire_at, TimerEvent{op.to, op.timer});
        break;
      case OpKind::kTimerLocal:
        schedule_child(w, op.child);
        break;
      case OpKind::kSampledBcast:
        apply_sampled(w, rec, op);
        break;
    }
  }

  void apply_sampled(std::uint32_t w, const Rec& rec, const Op& op) {
    Simulator& S = *sim;
    const NodeId from = rec.node;
    const auto self_commit = [&] {
      S.counters_.on_send(message_kind(*op.msg), message_size_bytes(*op.msg));
      if (op.child != kNoIndex) {
        schedule_child(w, op.child);
      } else {
        S.queue_.push_delivery(rec.time, DeliveryEvent{from, from, op.msg, rec.time});
      }
    };
    // The peer draws happen here, in canonical commit order; a domain no
    // larger than the sample takes the walk's full fan-out, no draws.
    S.for_each_recipient(from, [&](NodeId to) {
      if (to == from) {
        self_commit();
      } else {
        send_peer_commit(rec, to, op.msg);
      }
    });
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
  par_.reset(new ParEngine(this, look, params_.sim_threads));
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

TimerId Simulator::par_arm_timer(NodeId node, RealTime fire_at, TimerState kind) {
  return par_->worker_arm_timer(node, fire_at, kind);
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
