// M1 — Substrate micro-benchmarks (google-benchmark).
//
// Costs of the building blocks: hashing/signing (the per-message crypto
// cost of the authenticated variant), event-queue operations, clock reads
// and inversions, and whole simulated rounds end-to-end.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <string>

#include "clocks/drift_models.h"
#include "clocks/logical_clock.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "experiment/scenario.h"
#include "experiment/sweep.h"
#include "resultstore/cache_key.h"
#include "resultstore/store.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "trace/counters.h"

namespace stclock {
namespace {

void BM_Sha256_64B(benchmark::State& state) {
  const Bytes data(64, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  const Bytes data(4096, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes msg(17, 0x22);  // a round payload is this order of size
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg));
}
BENCHMARK(BM_HmacSha256);

void BM_SignRoundMessage(benchmark::State& state) {
  const crypto::KeyRegistry registry(16, 1);
  const crypto::Signer signer = registry.signer_for(3);
  const Bytes payload = round_signing_payload(42);
  for (auto _ : state) benchmark::DoNotOptimize(signer.sign(payload));
}
BENCHMARK(BM_SignRoundMessage);

void BM_VerifyRoundMessage(benchmark::State& state) {
  const crypto::KeyRegistry registry(16, 1);
  const Bytes payload = round_signing_payload(42);
  const crypto::Signature sig = registry.signer_for(3).sign(payload);
  for (auto _ : state) benchmark::DoNotOptimize(registry.verify(sig, payload));
}
BENCHMARK(BM_VerifyRoundMessage);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  Rng rng(1);
  // Keep a standing population of 1024 events; each iteration pops the
  // earliest and pushes one at a random future time.
  for (int i = 0; i < 1024; ++i) q.push_timer(rng.next_double(), TimerEvent{0, 0});
  for (auto _ : state) {
    const Event e = q.pop();
    q.push_timer(e.time + rng.next_double(), TimerEvent{0, 0});
  }
}
BENCHMARK(BM_EventQueuePushPop);

// --- Hot-path benches (the perf trajectory tracked by scripts/bench.sh) ---

/// Broadcasts a quorum-sized RoundMsg once per simulated second. The other
/// n-1 nodes sink deliveries, so one simulated second costs one broadcast
/// fan-out (n sends) plus n deliveries through the queue/counter path.
class BroadcastDriver final : public Process {
 public:
  explicit BroadcastDriver(Message msg) : msg_(std::move(msg)) {}
  void on_start(Context& ctx) override { (void)ctx.set_timer_at_hardware(1.0); }
  void on_timer(Context& ctx, TimerId) override {
    ctx.broadcast(msg_);
    (void)ctx.set_timer_at_hardware(ctx.hardware_now() + 1.0);
  }
  void on_message(Context&, NodeId, const Message&) override {}

 private:
  Message msg_;
};

class SinkProcess final : public Process {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

void run_broadcast_bench(benchmark::State& state, std::uint32_t n) {
  SimParams params;
  params.n = n;
  params.tdel = 0.01;
  params.seed = 1;
  params.max_events = std::numeric_limits<std::uint64_t>::max();  // bench runs unbounded
  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < n; ++i) clocks.emplace_back(0.0, 1.0);
  const crypto::KeyRegistry registry(n, 1);
  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(1.0), &registry);

  // A quorum-sized (f+1 = n/2) signature bundle: the relay message whose
  // per-recipient payload copy dominates un-interned broadcast cost.
  RoundMsg msg{1, {}};
  const Bytes payload = round_signing_payload(1);
  for (NodeId s = 0; s < n / 2 + 1; ++s) {
    msg.sigs.push_back(registry.signer_for(s).sign(payload));
  }
  sim.set_process(0, std::make_unique<BroadcastDriver>(Message(std::move(msg))));
  for (NodeId id = 1; id < n; ++id) sim.set_process(id, std::make_unique<SinkProcess>());

  RealTime t = 0;
  for (auto _ : state) {
    t += 1.0;
    sim.run_until(t);
  }
  state.SetItemsProcessed(state.iterations() * n);  // per-recipient sends
}

void BM_Broadcast_N64(benchmark::State& state) { run_broadcast_bench(state, 64); }
BENCHMARK(BM_Broadcast_N64);

void BM_Broadcast_N256(benchmark::State& state) { run_broadcast_bench(state, 256); }
BENCHMARK(BM_Broadcast_N256);

// The scale points the sparse-first refactor is judged by: same workload at
// fleet sizes where the old n x n adjacency bitset alone would have cost
// 2 GiB (65536^2 bits) and every queue op sifted through a million-entry
// heap. Tracked in BENCH_core.json next to the small-N points so a perf
// regression at scale cannot hide behind a flat N64 line.
void BM_Broadcast_N4096(benchmark::State& state) { run_broadcast_bench(state, 4096); }
BENCHMARK(BM_Broadcast_N4096)->Unit(benchmark::kMillisecond);

void BM_Broadcast_N65536(benchmark::State& state) { run_broadcast_bench(state, 65536); }
BENCHMARK(BM_Broadcast_N65536)->Unit(benchmark::kMillisecond);

void BM_TopoSwitch_Epochs(benchmark::State& state) {
  // The dynamic-topology path end-to-end: one iteration runs a 16-node ring
  // for 32 simulated seconds during which the {0, 8} chord flaps every half
  // second — 64 epoch switches — while every node broadcasts once per
  // second through the sparse fan-out. Tracks the cost of the epoch
  // machinery itself; the static-path overhead is pinned separately by
  // BM_Broadcast_* staying flat across the schedule refactor.
  constexpr std::uint32_t kN = 16;
  constexpr int kEpochs = 64;
  const auto ring = std::make_shared<const Topology>(Topology::ring(kN));
  TopologySchedule schedule;
  for (int e = 0; e < kEpochs; ++e) {
    const RealTime at = 0.5 * (e + 1);
    if (e % 2 == 0) {
      schedule.add_edge(at, 0, kN / 2);
    } else {
      schedule.remove_edge(at, 0, kN / 2);
    }
  }
  const auto compiled =
      std::make_shared<const CompiledTopologySchedule>(schedule.compile(ring));

  for (auto _ : state) {
    SimParams params;
    params.n = kN;
    params.tdel = 0.01;
    params.seed = 1;
    params.topology = ring;
    params.schedule = compiled;
    params.max_events = std::numeric_limits<std::uint64_t>::max();
    std::vector<HardwareClock> clocks;
    for (std::uint32_t i = 0; i < kN; ++i) clocks.emplace_back(0.0, 1.0);
    Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(1.0), nullptr);
    for (NodeId id = 0; id < kN; ++id) {
      sim.set_process(id, std::make_unique<BroadcastDriver>(Message(InitMsg{1})));
    }
    sim.run_until(0.5 * kEpochs + 1.0);
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * kEpochs);
}
BENCHMARK(BM_TopoSwitch_Epochs);

void BM_EventQueue_Churn(benchmark::State& state) {
  // Standing population of 1024 mixed timer/delivery events; each iteration
  // pops the earliest and pushes one of the other kind at a random future
  // time, exercising both payload paths plus heap sift cost.
  EventQueue q;
  Rng rng(7);
  const auto msg = std::make_shared<const Message>(RoundMsg{1, {}});
  for (int i = 0; i < 1024; ++i) {
    if (i % 2 == 0) {
      q.push_timer(rng.next_double(), TimerEvent{0, static_cast<TimerId>(i + 1)});
    } else {
      q.push_delivery(rng.next_double(), DeliveryEvent{0, 1, msg, 0.0});
    }
  }
  for (auto _ : state) {
    const Event e = q.pop();
    const RealTime t = e.time + rng.next_double();
    if (e.is_timer) {
      q.push_delivery(t, DeliveryEvent{0, 1, msg, e.time});
    } else {
      q.push_timer(t, TimerEvent{0, 1});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue_Churn);

void BM_Counters(benchmark::State& state) {
  // The per-send/per-deliver accounting exactly as the simulator performs it
  // (kind + size derivation included).
  MessageCounters c;
  const Message round = Message(RoundMsg{3, {}});
  const Message echo = Message(EchoMsg{3});
  for (auto _ : state) {
    c.on_send(message_kind(round), message_size_bytes(round));
    c.on_deliver(message_kind(round));
    c.on_send(message_kind(echo), message_size_bytes(echo));
    c.on_deliver(message_kind(echo));
  }
  benchmark::DoNotOptimize(c.total_sent());
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Counters);

experiment::ScenarioSpec micro_scenario(const char* protocol, std::uint32_t f);

void BM_CellFingerprint(benchmark::State& state) {
  // Full cache-key derivation for one sweep cell: registry resolution,
  // canonical spec serialization, and the two-lane digest. This is the
  // per-cell overhead `scenrun --store` adds BEFORE any I/O — it must stay
  // microseconds so fingerprinting a 10^6-cell grid costs seconds.
  experiment::ScenarioSpec spec;
  spec.protocol = "gradient";
  spec.cfg.n = 8;
  spec.topology = TopologyKind::kRing;
  spec.topology_events.push_back(
      {experiment::TopologyEventSpec::Kind::kRemoveEdge, 1.0, 0, 1, TopologyKind::kRing});
  for (auto _ : state) {
    spec.seed += 1;  // vary an input so keys cannot be hoisted
    benchmark::DoNotOptimize(resultstore::cell_key(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellFingerprint);

void BM_StoreLookup(benchmark::State& state) {
  // A warm hit: open, validate (length + checksum), decode a full
  // ScenarioResult. The comparison point is BM_FullRound_* — a lookup must
  // be orders of magnitude cheaper than the scenario it replaces.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stclock-bench-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    const resultstore::ResultStore store(dir);
    const experiment::ScenarioSpec spec = micro_scenario("auth", 3);
    const std::string key = resultstore::cell_key(spec);
    store.save(key, experiment::run_scenario(spec));
    for (auto _ : state) {
      auto hit = store.load(key);
      benchmark::DoNotOptimize(hit);
    }
    state.SetItemsProcessed(state.iterations());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreLookup);

void BM_HardwareClockRead(benchmark::State& state) {
  // A clock with 100 rate-change segments (a busy random-walk trajectory).
  HardwareClock clock(0.0, 1.0);
  for (int i = 1; i <= 100; ++i) {
    clock.set_rate_from(static_cast<double>(i), i % 2 == 0 ? 1.0001 : 0.9999);
  }
  double t = 0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 100.0) t = 0;
    benchmark::DoNotOptimize(clock.read(t));
  }
}
BENCHMARK(BM_HardwareClockRead);

void BM_LogicalClockRead(benchmark::State& state) {
  // The read the skew and envelope trackers make at every event: a
  // random-walk oscillator (about 10 rate segments over 20 s) under a
  // logical clock with a few corrections, read at an advancing real time,
  // so most reads land in the segment and piece the previous read used.
  Rng rng(11);
  const HardwareClock hw = drift::random_walk(rng, 1e-4, 0.0, 20.0, 2.0);
  LogicalClock clock(hw);
  for (int round = 4; round < 20; round += 4) {
    clock.adjust_instant(hw.read(round), rng.uniform(-1e-3, 1e-3));
  }
  double t = 0;
  for (auto _ : state) {
    t += 0.001;
    if (t > 20.0) t = 0;
    benchmark::DoNotOptimize(clock.read(t));
  }
}
BENCHMARK(BM_LogicalClockRead);

void BM_LogicalClockWhenReads(benchmark::State& state) {
  HardwareClock hw(0.0, 1.0001);
  LogicalClock clock(hw);
  for (int i = 1; i <= 64; ++i) {
    clock.adjust_instant(static_cast<double>(i), 0.01);  // 64 correction pieces
  }
  double target = 70.0;
  for (auto _ : state) {
    target += 0.001;
    if (target > 1000.0) target = 70.0;
    benchmark::DoNotOptimize(clock.when_reads(65.0, target));
  }
}
BENCHMARK(BM_LogicalClockWhenReads);

experiment::ScenarioSpec micro_scenario(const char* protocol, std::uint32_t f) {
  experiment::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.cfg.n = 7;
  spec.cfg.f = f;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 1;
  spec.horizon = 5.0;  // ~5 rounds
  spec.drift = DriftKind::kNone;
  spec.delay = DelayKind::kHalf;
  return spec;
}

void BM_FullRound_Auth(benchmark::State& state) {
  // End-to-end cost of one simulated resynchronization round (n = 7): all
  // events, crypto, and bookkeeping included.
  const experiment::ScenarioSpec spec = micro_scenario("auth", 3);
  for (auto _ : state) benchmark::DoNotOptimize(experiment::run_scenario(spec));
  state.SetItemsProcessed(state.iterations() * 5);  // rounds
}
BENCHMARK(BM_FullRound_Auth)->Unit(benchmark::kMillisecond);

void BM_FullRound_Echo(benchmark::State& state) {
  const experiment::ScenarioSpec spec = micro_scenario("echo", 2);
  for (auto _ : state) benchmark::DoNotOptimize(experiment::run_scenario(spec));
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_FullRound_Echo)->Unit(benchmark::kMillisecond);

void BM_Sweep_Grid8(benchmark::State& state) {
  // An 8-cell protocol x delay grid through the SweepRunner: the scaling
  // payoff of the thread-pool sweep (state.range(0) worker threads).
  experiment::SweepGrid grid(micro_scenario("auth", 2));
  grid.protocols({"auth", "echo", "lundelius_welch", "unsynchronized"});
  grid.axis("delay", {{"half", [](experiment::ScenarioSpec& s) { s.delay = DelayKind::kHalf; }},
                      {"uniform",
                       [](experiment::ScenarioSpec& s) { s.delay = DelayKind::kUniform; }}});
  const std::vector<experiment::SweepCell> cells = grid.cells();
  const experiment::SweepRunner runner(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(runner.run(cells));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(cells.size()));
}
BENCHMARK(BM_Sweep_Grid8)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stclock

BENCHMARK_MAIN();
