#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "clocks/drift_models.h"
#include "sim/simulator.h"

namespace stclock {
namespace {

std::vector<HardwareClock> identity_clocks(std::uint32_t n) {
  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < n; ++i) clocks.emplace_back(0.0, 1.0);
  return clocks;
}

Simulator make_sim(std::uint32_t n, Duration tdel, double delay_fraction,
                   const crypto::KeyRegistry* registry = nullptr) {
  SimParams params;
  params.n = n;
  params.tdel = tdel;
  params.seed = 1;
  return Simulator(params, identity_clocks(n), std::make_unique<FixedDelay>(delay_fraction),
                   registry);
}

/// Records deliveries with their receive times.
class Recorder final : public Process {
 public:
  struct Received {
    RealTime at;
    NodeId from;
    Round round;
  };

  explicit Recorder(const Simulator& sim) : sim_(&sim) {}

  void on_start(Context&) override { started_ = true; }
  void on_message(Context&, NodeId from, const Message& m) override {
    log_.push_back({sim_->now(), from, message_round(m)});
  }
  void on_timer(Context&, TimerId) override {}

  [[nodiscard]] const std::vector<Received>& log() const { return log_; }
  [[nodiscard]] bool started() const { return started_; }

 private:
  const Simulator* sim_;
  std::vector<Received> log_;
  bool started_ = false;
};

/// Broadcasts one InitMsg at start.
class OneShotBroadcaster final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast(Message(InitMsg{1})); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

TEST(Simulator, BroadcastReachesEveryoneWithConfiguredDelay) {
  Simulator sim = make_sim(3, 0.01, 1.0);  // full tdel delay
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  auto r1 = std::make_unique<Recorder>(sim);
  auto r2 = std::make_unique<Recorder>(sim);
  const Recorder* p1 = r1.get();
  const Recorder* p2 = r2.get();
  sim.set_process(1, std::move(r1));
  sim.set_process(2, std::move(r2));

  sim.run_until(1.0);

  ASSERT_EQ(p1->log().size(), 1u);
  ASSERT_EQ(p2->log().size(), 1u);
  EXPECT_DOUBLE_EQ(p1->log()[0].at, 0.01);
  EXPECT_EQ(p1->log()[0].from, 0u);
  EXPECT_DOUBLE_EQ(p2->log()[0].at, 0.01);
}

TEST(Simulator, SelfDeliveryIsImmediate) {
  Simulator sim = make_sim(2, 0.01, 1.0);

  class SelfBroadcaster final : public Process {
   public:
    explicit SelfBroadcaster(const Simulator& sim) : sim_(&sim) {}
    void on_start(Context& ctx) override { ctx.broadcast(Message(InitMsg{1})); }
    void on_message(Context& ctx, NodeId from, const Message&) override {
      if (from == ctx.self()) self_delivery_time_ = sim_->now();
    }
    void on_timer(Context&, TimerId) override {}
    RealTime self_delivery_time_ = -1;

   private:
    const Simulator* sim_;
  };

  auto proc = std::make_unique<SelfBroadcaster>(sim);
  const SelfBroadcaster* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(p->self_delivery_time_, 0.0);
}

TEST(Simulator, LogicalTimerFiresAtRightRealTime) {
  SimParams params;
  params.n = 1;
  params.tdel = 0.01;
  params.seed = 1;
  std::vector<HardwareClock> clocks;
  clocks.push_back(HardwareClock(0.0, 2.0));  // runs double speed
  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(0.0), nullptr);

  class TimerProc final : public Process {
   public:
    explicit TimerProc(const Simulator& sim) : sim_(&sim) {}
    void on_start(Context& ctx) override { (void)ctx.set_timer_at_logical(4.0); }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context&, TimerId) override { fired_at_ = sim_->now(); }
    RealTime fired_at_ = -1;

   private:
    const Simulator* sim_;
  };

  auto proc = std::make_unique<TimerProc>(sim);
  const TimerProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(p->fired_at_, 2.0);  // logical 4 at double speed = real 2
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim = make_sim(1, 0.01, 0.0);

  class CancelProc final : public Process {
   public:
    void on_start(Context& ctx) override {
      const TimerId a = ctx.set_timer_at_logical(1.0);
      keep_ = ctx.set_timer_at_logical(2.0);
      ctx.cancel_timer(a);
    }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context&, TimerId id) override { fired_.push_back(id); }
    std::vector<TimerId> fired_;
    TimerId keep_ = 0;
  };

  auto proc = std::make_unique<CancelProc>();
  CancelProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(5.0);
  ASSERT_EQ(p->fired_.size(), 1u);
  EXPECT_EQ(p->fired_[0], p->keep_);
}

TEST(Simulator, CancelAfterFireIsANoOpAndUnknownIdsThrow) {
  Simulator sim = make_sim(1, 0.01, 0.0);

  class LateCancelProc final : public Process {
   public:
    void on_start(Context& ctx) override { first_ = ctx.set_timer_at_logical(1.0); }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context& ctx, TimerId id) override {
      ++fired_;
      if (id == first_) {
        // The timer just fired; cancelling it now must be accepted quietly
        // (the pre-refactor tombstone set leaked an entry here) ...
        EXPECT_NO_THROW(ctx.cancel_timer(first_));
        // ... and cancelling twice is equally harmless.
        EXPECT_NO_THROW(ctx.cancel_timer(first_));
        // A timer id never handed out is a caller bug.
        EXPECT_THROW(ctx.cancel_timer(9999), std::logic_error);
        (void)ctx.set_timer_at_logical(2.0);
      }
    }
    TimerId first_ = 0;
    int fired_ = 0;
  };

  auto proc = std::make_unique<LateCancelProc>();
  LateCancelProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(5.0);
  EXPECT_EQ(p->fired_, 2);  // the no-op cancels must not eat the second timer
}

// Pending timers are per-node memory: a churn stop or a timer-corruption
// victim loses its own, and nobody else's. Node 0 crashes at 1.25 and
// rejoins as a fresh process at 1.4, before its old ticker's next tick was
// due; at 1.75 a corruption event wipes the process timers of half the
// nodes. The run covers both engines (delay=half gives the parallel one its
// window) and a Byzantine adversary (its timers live outside every node's
// table; with it installed, sim_threads=2 falls back to the sequential
// engine).
TEST(Simulator, TimerCancellationIsPerNode) {
  /// What one node saw; kept outside the process, which a churn stop destroys.
  struct ProbeLog {
    std::vector<RealTime> timers;
    std::vector<RealTime> ticks;
    bool corrupted = false;
  };
  /// Ticks every 0.5 and arms one timer before the faults and one after.
  class TimerProbe final : public Process {
   public:
    TimerProbe(const Simulator& sim, ProbeLog& log) : sim_(&sim), log_(&log) {}
    void on_start(Context& ctx) override {
      ctx.start_ticker(0.5);
      (void)ctx.set_timer_at_hardware(1.0);
      (void)ctx.set_timer_at_hardware(3.0);
    }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context&, TimerId) override { log_->timers.push_back(sim_->now()); }
    void on_tick(Context&) override { log_->ticks.push_back(sim_->now()); }
    void corrupt_state(Rng&) override { log_->corrupted = true; }

   private:
    const Simulator* sim_;
    ProbeLog* log_;
  };

  class TimerAdversary final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override { (void)ctx.set_timer_at_real(3.0); }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext& ctx, TimerId) override { fired.push_back(ctx.real_now()); }
    std::vector<RealTime> fired;
  };

  const std::vector<RealTime> all_ticks{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0};
  for (const std::uint32_t threads : {1u, 2u}) {
    for (const bool with_adversary : {false, true}) {
      SCOPED_TRACE(testing::Message() << "sim_threads=" << threads
                                      << " adversary=" << with_adversary);
      SimParams params;
      params.n = 4;
      params.tdel = 0.01;
      params.seed = 7;
      params.sim_threads = threads;
      params.corruptions = {CorruptionEvent{1.75, 0.5, kCorruptTimers | kCorruptState, 5.0}};
      Simulator sim(params, identity_clocks(4), std::make_unique<FixedDelay>(0.5), nullptr);
      const NodeId honest = with_adversary ? 3 : 4;
      std::vector<ProbeLog> logs(honest);
      for (NodeId id = 0; id < honest; ++id) {
        sim.set_process(id, std::make_unique<TimerProbe>(sim, logs[id]));
      }
      TimerAdversary* adversary = nullptr;
      if (with_adversary) {
        auto adv = std::make_unique<TimerAdversary>();
        adversary = adv.get();
        sim.set_adversary({3}, std::move(adv));
      }
      ProbeLog rejoined;
      sim.schedule_restart(0, 1.25, 1.4, [&sim, &rejoined] {
        return std::make_unique<TimerProbe>(sim, rejoined);
      });
      sim.run_until(5.0);

      if (threads > 1 && !with_adversary) {
        EXPECT_GT(sim.parallel_windows(), 0u);
      }
      // Half of the honest nodes, rounded up.
      ASSERT_EQ(sim.nodes_corrupted(), (honest + 1) / 2);
      // The crashed process lost its late timer and its ticker. Had the old
      // ticker survived the crash, it would tick for the rebuilt process too.
      EXPECT_FALSE(logs[0].corrupted);
      EXPECT_EQ(logs[0].timers, (std::vector<RealTime>{1.0}));
      EXPECT_EQ(logs[0].ticks, (std::vector<RealTime>{0.5, 1.0}));
      EXPECT_EQ(rejoined.ticks.size(), 7u);  // 1.9, 2.4, ..., 4.9
      ASSERT_FALSE(rejoined.timers.empty());
      EXPECT_EQ(rejoined.timers[0], 1.4);  // hardware 1.0 had already passed
      std::size_t victims = rejoined.corrupted ? 1 : 0;
      EXPECT_EQ(rejoined.timers.size(), rejoined.corrupted ? 1u : 2u);
      for (NodeId id = 1; id < honest; ++id) {
        SCOPED_TRACE(testing::Message() << "node " << id);
        const ProbeLog& p = logs[id];
        victims += p.corrupted ? 1 : 0;
        // A victim keeps its hardware ticker but loses the pending 3.0 timer;
        // everyone else keeps both.
        const std::vector<RealTime> kept =
            p.corrupted ? std::vector<RealTime>{1.0} : std::vector<RealTime>{1.0, 3.0};
        EXPECT_EQ(p.timers, kept);
        EXPECT_EQ(p.ticks, all_ticks);
      }
      EXPECT_EQ(victims, sim.nodes_corrupted());
      if (adversary != nullptr) {
        EXPECT_EQ(adversary->fired, (std::vector<RealTime>{3.0}));
      }
    }
  }
}

// A crashed node (corrupted, no adversary strategy) receives honest sends
// immediately, like any corrupted node. The parallel engine stays engaged
// without a strategy object, and must schedule those deliveries at the same
// times as the sequential one, on full and on sampled fan-outs (whose
// recipients are only drawn at commit). Boots are staggered by 0.003, less
// than the 0.005 window, so a window holds events later than a send.
TEST(Simulator, SendsToCrashedNodesAreImmediateOnBothEngines) {
  const auto event_times = [](std::uint32_t n, std::uint32_t sample_size,
                              std::uint32_t threads) {
    SimParams params;
    params.n = n;
    params.tdel = 0.01;
    params.seed = 1;
    params.sim_threads = threads;
    if (sample_size > 0) {
      params.broadcast_mode = BroadcastMode::kSampled;
      params.sample_size = sample_size;
    }
    Simulator sim(params, identity_clocks(n), std::make_unique<FixedDelay>(0.5), nullptr);
    for (NodeId id = 0; id + 1 < n; ++id) {
      sim.set_process(id, std::make_unique<OneShotBroadcaster>());
      sim.set_start_time(id, 0.003 * id);
    }
    sim.set_adversary({n - 1}, nullptr);
    std::vector<RealTime> times;
    sim.set_post_event_hook([&times](const Simulator& s) { times.push_back(s.now()); });
    sim.run_until(1.0);
    if (threads > 1) {
      EXPECT_GT(sim.parallel_windows(), 0u);
    }
    return times;
  };
  // Node 0 boots at 0 and its broadcast reaches itself and the crashed node
  // 2 at once, node 1 after the 0.005 link delay; node 1 does the same at
  // 0.003.
  const std::vector<RealTime> expected{0.0, 0.0, 0.0, 0.003, 0.003, 0.003, 0.005, 0.008};
  EXPECT_EQ(event_times(3, 0, 1), expected);
  EXPECT_EQ(event_times(3, 0, 2), expected);
  EXPECT_EQ(event_times(8, 3, 2), event_times(8, 3, 1));
}

TEST(Simulator, LateStartDropsEarlierMessages) {
  Simulator sim = make_sim(2, 0.01, 0.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  auto rec = std::make_unique<Recorder>(sim);
  const Recorder* p = rec.get();
  sim.set_process(1, std::move(rec));
  sim.set_start_time(1, 5.0);  // boots long after the broadcast

  sim.run_until(10.0);
  EXPECT_TRUE(p->started());
  EXPECT_TRUE(p->log().empty());
}

TEST(Simulator, AdversaryCanScheduleFutureDelivery) {
  Simulator sim = make_sim(3, 0.01, 0.0);

  class DelayedSender final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      ctx.send_from(2, 0, Message(EchoMsg{9}), 0.5);
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  auto rec = std::make_unique<Recorder>(sim);
  const Recorder* p = rec.get();
  sim.set_process(0, std::move(rec));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<DelayedSender>());

  sim.run_until(1.0);
  ASSERT_EQ(p->log().size(), 1u);
  EXPECT_DOUBLE_EQ(p->log()[0].at, 0.5);
  EXPECT_EQ(p->log()[0].from, 2u);
  EXPECT_EQ(p->log()[0].round, 9u);
}

TEST(Simulator, AdversaryCannotImpersonateHonestNodes) {
  Simulator sim = make_sim(3, 0.01, 0.0);

  class Impersonator final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      // Node 0 is honest; sending "from" it must be rejected.
      EXPECT_THROW(ctx.send_from(0, 1, Message(InitMsg{1}), 0.0), std::logic_error);
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  sim.set_process(0, std::make_unique<Recorder>(sim));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<Impersonator>());
  sim.run_until(0.1);
}

TEST(Simulator, AdversaryCannotSignForHonestNodes) {
  const crypto::KeyRegistry registry(3, 7);
  Simulator sim = make_sim(3, 0.01, 0.0, &registry);

  class KeyThief final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      EXPECT_THROW((void)ctx.signer_for(0), std::logic_error);  // honest
      EXPECT_NO_THROW((void)ctx.signer_for(2));                 // corrupted
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  sim.set_process(0, std::make_unique<Recorder>(sim));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<KeyThief>());
  sim.run_until(0.1);
}

TEST(Simulator, HonestIdsExcludeCorrupted) {
  Simulator sim = make_sim(4, 0.01, 0.0);
  sim.set_adversary({1, 3}, nullptr);
  EXPECT_EQ(sim.honest_ids(), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(sim.is_corrupt(1));
  EXPECT_FALSE(sim.is_corrupt(0));
}

TEST(Simulator, MessagesToCrashedNodesVanish) {
  // Corrupted nodes with a null adversary model crash faults: messages to
  // them are swallowed, and they never send anything.
  Simulator sim = make_sim(2, 0.01, 0.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  sim.set_adversary({1}, nullptr);
  sim.run_until(1.0);
  EXPECT_GE(sim.counters().total_sent(), 2u);  // broadcast still sent n ways
}

TEST(Simulator, PostEventHookSeesMonotoneTime) {
  Simulator sim = make_sim(2, 0.01, 1.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  sim.set_process(1, std::make_unique<Recorder>(sim));

  RealTime last = -1;
  int calls = 0;
  sim.set_post_event_hook([&last, &calls](const Simulator& s) {
    EXPECT_GE(s.now(), last);
    last = s.now();
    ++calls;
  });
  sim.run_until(1.0);
  EXPECT_GT(calls, 0);
}

TEST(Simulator, EventBudgetGuardsRunaways) {
  SimParams params;
  params.n = 1;
  params.tdel = 0.01;
  params.seed = 1;
  params.max_events = 10;

  class Storm final : public Process {
   public:
    void on_start(Context& ctx) override { ctx.send(ctx.self(), Message(InitMsg{1})); }
    void on_message(Context& ctx, NodeId, const Message&) override {
      ctx.send(ctx.self(), Message(InitMsg{1}));  // infinite self-message loop
    }
    void on_timer(Context&, TimerId) override {}
  };

  Simulator sim(params, identity_clocks(1), std::make_unique<FixedDelay>(0.0), nullptr);
  sim.set_process(0, std::make_unique<Storm>());
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(Simulator, DeterministicGivenSeed) {
  auto run_once = [] {
    SimParams params;
    params.n = 3;
    params.tdel = 0.01;
    params.seed = 42;
    Simulator sim(params, identity_clocks(3), std::make_unique<UniformDelay>(0.0, 1.0),
                  nullptr);
    sim.set_process(0, std::make_unique<OneShotBroadcaster>());
    auto rec = std::make_unique<Recorder>(sim);
    const Recorder* p = rec.get();
    sim.set_process(1, std::move(rec));
    sim.set_process(2, std::make_unique<Recorder>(sim));
    sim.run_until(1.0);
    return p->log().at(0).at;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}


// --- The broadcast recipient walk ---
// Every fan-out (honest broadcast, adversary flood, both engines) visits its
// recipients in ascending id order. Deliveries that share a time dispatch in
// send order, so logging who receives a same-time fan-out reads the walk
// back in the order it was made.

/// Appends its own id to a shared log on every delivery from `watched`.
class WalkLog final : public Process {
 public:
  WalkLog(NodeId self, NodeId watched, std::vector<NodeId>* log)
      : self_(self), watched_(watched), log_(log) {}
  void on_start(Context&) override {}
  void on_message(Context&, NodeId from, const Message&) override {
    if (from == watched_) log_->push_back(self_);
  }
  void on_timer(Context&, TimerId) override {}

 private:
  NodeId self_;
  NodeId watched_;
  std::vector<NodeId>* log_;
};

/// One adversary flood from `from` at start, delivered at t = 0.5.
class Flooder final : public Adversary {
 public:
  explicit Flooder(NodeId from) : from_(from) {}
  void on_start(AdversaryContext& ctx) override {
    ctx.send_from_to_all(from_, Message(InitMsg{1}), 0.5);
  }
  void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
  void on_timer(AdversaryContext&, TimerId) override {}

 private:
  NodeId from_;
};

struct Fabric {
  std::shared_ptr<const Topology> topology;  // null = complete graph
  BroadcastMode mode = BroadcastMode::kFull;
  std::uint32_t sample_size = 0;
};

SimParams fabric_params(std::uint32_t n, const Fabric& fabric) {
  SimParams params;
  params.n = n;
  params.tdel = 0.01;
  params.seed = 17;
  params.topology = fabric.topology;
  params.broadcast_mode = fabric.mode;
  params.sample_size = fabric.sample_size;
  return params;
}

/// Runs one adversary flood from `from` (corrupted together with `others`)
/// and returns the recipients in delivery order plus the messages sent.
std::pair<std::vector<NodeId>, std::uint64_t> flood_recipients(
    std::uint32_t n, const Fabric& fabric, NodeId from, const std::vector<NodeId>& others) {
  Simulator sim(fabric_params(n, fabric), identity_clocks(n),
                std::make_unique<FixedDelay>(1.0), nullptr);
  std::vector<NodeId> corrupt = others;
  corrupt.push_back(from);
  std::vector<NodeId> log;
  for (NodeId id = 0; id < n; ++id) {
    if (std::find(corrupt.begin(), corrupt.end(), id) == corrupt.end()) {
      sim.set_process(id, std::make_unique<WalkLog>(id, from, &log));
    }
  }
  sim.set_adversary(corrupt, std::make_unique<Flooder>(from));
  sim.run_until(1.0);
  return {log, sim.counters().total_sent()};
}

/// Runs one honest broadcast from `from` (no adversary) and returns its
/// peers in delivery order (the immediate self-delivery is left out).
std::vector<NodeId> broadcast_peers(std::uint32_t n, const Fabric& fabric, NodeId from) {
  Simulator sim(fabric_params(n, fabric), identity_clocks(n),
                std::make_unique<FixedDelay>(1.0), nullptr);
  std::vector<NodeId> log;
  for (NodeId id = 0; id < n; ++id) {
    if (id == from) {
      sim.set_process(id, std::make_unique<OneShotBroadcaster>());
    } else {
      sim.set_process(id, std::make_unique<WalkLog>(id, from, &log));
    }
  }
  sim.run_until(1.0);
  return log;
}

bool is_corrupt_in(const std::vector<NodeId>& corrupt, NodeId id) {
  return std::find(corrupt.begin(), corrupt.end(), id) != corrupt.end();
}

TEST(SimulatorWalk, AdversaryFloodOnCompleteGraphReachesEveryHonestNodeAscending) {
  constexpr std::uint32_t kN = 12;
  const std::vector<NodeId> others = {2, 9};
  const auto [log, sent] = flood_recipients(kN, Fabric{}, 5, others);
  std::vector<NodeId> expected;
  for (NodeId id = 0; id < kN; ++id) {
    if (id != 5 && !is_corrupt_in(others, id)) expected.push_back(id);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sent, expected.size());
}

TEST(SimulatorWalk, AdversaryFloodOnExpanderReachesHonestNeighborsAscending) {
  constexpr std::uint32_t kN = 40;
  const auto topo = std::make_shared<const Topology>(Topology::expander(kN, 6, 3));
  const NodeId from = 17;
  // Corrupt two of the flooder's own neighbors: the flood must skip them.
  const auto [nbrs, degree] = topo->neighbor_span(from);
  ASSERT_GE(degree, 4u);
  const std::vector<NodeId> others = {nbrs[0], nbrs[degree - 1]};
  const auto [log, sent] =
      flood_recipients(kN, Fabric{topo, BroadcastMode::kNeighbors, 0}, from, others);
  std::vector<NodeId> expected;
  for (std::size_t i = 0; i < degree; ++i) {
    if (!is_corrupt_in(others, nbrs[i])) expected.push_back(nbrs[i]);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sent, degree - 2);
}

TEST(SimulatorWalk, AdversaryFloodUnderSampledModePicksTheHonestBroadcastSample) {
  constexpr std::uint32_t kN = 40;
  const auto topo = std::make_shared<const Topology>(Topology::expander(kN, 12, 3));
  const Fabric fabric{topo, BroadcastMode::kSampled, 4};
  const NodeId from = 17;

  // From identical simulator states (same seed, same graph, no earlier
  // draws), an honest broadcast and an adversary flood draw the same peers.
  const std::vector<NodeId> peers = broadcast_peers(kN, fabric, from);
  ASSERT_EQ(peers.size(), 4u);
  EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
  const auto [all_log, all_sent] = flood_recipients(kN, fabric, from, {});
  EXPECT_EQ(all_log, peers);
  EXPECT_EQ(all_sent, 4u);

  // Corrupted picks are drawn but not sent: the flood reaches the honest
  // part of the same sample, still ascending.
  const std::vector<NodeId> others = {peers[1], peers[3]};
  const auto [log, sent] = flood_recipients(kN, fabric, from, others);
  EXPECT_EQ(log, (std::vector<NodeId>{peers[0], peers[2]}));
  EXPECT_EQ(sent, 2u);
}

TEST(SimulatorWalk, LargeSamplesOverACsrRowAreDistinctAscendingNeighbors) {
  // Samples of 64 and 200 peers out of a row of more than 200 neighbors:
  // every pick must be a distinct neighbor, never self, sent in ascending
  // order.
  constexpr std::uint32_t kN = 4096;
  const auto topo = std::make_shared<const Topology>(Topology::expander(kN, 256, 5));
  const NodeId from = 1234;
  const auto [nbrs, degree] = topo->neighbor_span(from);
  ASSERT_GT(degree, 200u);
  for (const std::uint32_t m : {64u, 200u}) {
    SCOPED_TRACE(m);
    const std::vector<NodeId> peers =
        broadcast_peers(kN, Fabric{topo, BroadcastMode::kSampled, m}, from);
    ASSERT_EQ(peers.size(), m);
    EXPECT_TRUE(std::adjacent_find(peers.begin(), peers.end(),
                                   [](NodeId a, NodeId b) { return a >= b; }) == peers.end())
        << "peers must be strictly ascending (distinct)";
    for (const NodeId p : peers) {
      EXPECT_NE(p, from);
      EXPECT_TRUE(std::binary_search(nbrs, nbrs + degree, p)) << p << " is not a neighbor";
    }
  }
}

}  // namespace
}  // namespace stclock
