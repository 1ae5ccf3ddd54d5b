// bench_suite: the simulator's end-to-end and per-layer benchmark.
//
// Four workloads, each one Srikanth–Toueg run through the scenario engine,
// load the simulator's layers differently (bench_suite/README.md says what
// each one is for):
//
//   sparse_1e5     n = 10^5 auth, expander(16), sampled(8), scale metrics
//   sparse_1e5_t4  the same spec on the 4-thread parallel engine
//   exact_1024     the same spec at n = 1024, below the scale metric policy
//   byz_256        n = 256, f = 127 spam-early attack, full n^2 fan-out
//
// Modes:
//   bench_suite --workload W [--seed S] [--seconds T] [--trace 0|1]
//       One measurement. --trace 0 (default) repeats W in fresh child
//       processes, alternating with set-up probes, for T seconds (at least
//       three repeats) and reports the medians of the end-to-end metrics;
//       --trace 1 runs one traced child and reports the per-layer metrics.
//       The last stdout line is one JSON object, which carries the verdict:
//       {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//   bench_suite --suite [--seed S] [--trace] [--json FILE]
//       Every workload, three repeats each, run round-robin
//       (W1 W2 W3 W4 W1 ...) so host drift spreads evenly; prints
//       "workload metric value unit" rows and exits non-zero on any failure.
//   bench_suite --smoke       every workload at n/16, horizon 2, all checks
//   bench_suite --self-test   feeds the failure checks forged results
//
// The load is a closed loop of one client: one simulation at a time, at
// most four simulator threads. The seed sets the scenario seed and the
// topology seed; the same seed gives the same inputs and the same result
// digest.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/strategies.h"
#include "core/joiner.h"
#include "core/sync_protocol.h"
#include "core/theory.h"
#include "crypto/signature.h"
#include "experiment/environment.h"
#include "experiment/registry.h"
#include "experiment/scenario.h"
#include "resultstore/codec.h"
#include "sim/message.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "trace/envelope.h"
#include "trace/skew_tracker.h"
#include "util/digest.h"
#include "util/rng.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

extern char** environ;

namespace stclock {
namespace {

using experiment::ScenarioResult;
using experiment::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// ------------------------------------------------------------------ workloads

constexpr const char* kWorkloads[] = {"sparse_1e5", "sparse_1e5_t4", "exact_1024", "byz_256"};

bool known_workload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) != std::end(kWorkloads);
}

/// The scenario a workload runs. `smoke` shrinks it to n/16 at horizon 2
/// (the bit-rot check), keeping every other knob.
ScenarioSpec workload_spec(const std::string& name, std::uint64_t seed, bool smoke) {
  ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.cfg.f = 0;
  spec.drift = DriftKind::kRandomWalk;
  spec.attack = AttackKind::kNone;
  spec.seed = seed;
  spec.topology_seed = seed;
  // The engine fits clock rates over [2 * max_period, horizon] and allows
  // them rate_fit_tolerance = 2 * precision / (horizon - 2 * max_period)
  // beyond the envelope. At horizon 5 that is about 0.02; at 2.5 it would
  // be about 0.13, too loose for the accuracy check to mean anything.
  spec.horizon = 5.0;

  std::uint32_t n = 0;
  if (name == "sparse_1e5" || name == "sparse_1e5_t4" || name == "exact_1024") {
    n = name == "exact_1024" ? 1024 : 100000;
    spec.topology = TopologyKind::kExpander;
    spec.expander_k = 16;
    spec.broadcast_mode = BroadcastMode::kSampled;
    spec.sample_size = 8;
    spec.delay = DelayKind::kHalf;
    spec.sim_threads = name == "sparse_1e5_t4" ? 4 : 1;
  } else if (name == "byz_256") {
    n = 256;
    spec.topology = TopologyKind::kComplete;
    spec.broadcast_mode = BroadcastMode::kFull;
    spec.delay = DelayKind::kUniform;
    spec.attack = AttackKind::kSpamEarly;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  if (smoke) {
    n /= 16;
    spec.horizon = 2.0;
  }
  spec.cfg.n = n;
  // The authenticated maximum, f = ceil(n/2) - 1.
  if (spec.attack != AttackKind::kNone) spec.cfg.f = max_faults_authenticated(n);
  return spec;
}

// --------------------------------------------------------------------- checks

/// The paper's guarantees, checked on one finished run: liveness, precision
/// against the derived bound, and (when the horizon admits a fit) the fitted
/// clock rates against the accuracy envelope.
std::vector<std::string> result_failures(const ScenarioResult& r) {
  std::vector<std::string> out;
  char buf[256];
  if (!r.live) out.emplace_back("live is false");
  if (!(r.max_skew <= r.bounds.precision)) {
    std::snprintf(buf, sizeof buf, "max_skew %.6e exceeds precision bound %.6e", r.max_skew,
                  r.bounds.precision);
    out.emplace_back(buf);
  }
  if (r.rate_fit_tolerance > 0) {
    const double lo = r.bounds.rate_lo - r.rate_fit_tolerance;
    const double hi = r.bounds.rate_hi + r.rate_fit_tolerance;
    if (!(r.envelope.min_rate >= lo && r.envelope.max_rate <= hi)) {
      std::snprintf(buf, sizeof buf, "fitted rates [%.9f, %.9f] outside [%.9f, %.9f]",
                    r.envelope.min_rate, r.envelope.max_rate, lo, hi);
      out.emplace_back(buf);
    }
  }
  return out;
}

std::string result_digest(const ScenarioResult& r) {
  const Bytes bytes = resultstore::encode_result(r);
  return util::Digest().update(bytes.data(), bytes.size()).hex();
}

/// One untraced repeat as the parent saw it.
struct RunRecord {
  bool exited_ok = false;
  double wall_s = 0;
  double events = 0;
  double peak_rss_mb = 0;
  std::string digest;
  std::vector<std::string> failures;  ///< filled by the child and by judge_runs
};

/// Adds the cross-repeat failures to `runs` — a repeat that crashed, took
/// more than 3x the median wall time, or whose result digest differs from
/// the other repeats' (the most common digest, first seen on a tie) — and
/// returns the number of failed repeats.
int judge_runs(std::vector<RunRecord>& runs) {
  std::vector<double> walls;
  std::map<std::string, int> digest_votes;
  for (const RunRecord& r : runs) {
    if (!r.exited_ok) continue;
    walls.push_back(r.wall_s);
    ++digest_votes[r.digest];
  }
  const double wall_median = median(walls);
  std::string reference;
  int best = 0;
  for (const RunRecord& r : runs) {
    if (r.exited_ok && digest_votes[r.digest] > best) {
      best = digest_votes[r.digest];
      reference = r.digest;
    }
  }
  int failed = 0;
  for (RunRecord& r : runs) {
    if (!r.exited_ok) {
      if (r.failures.empty()) r.failures.emplace_back("child process failed");
    } else {
      if (r.wall_s > 3 * wall_median) r.failures.emplace_back("wall time above 3x the median");
      if (r.digest != reference) r.failures.emplace_back("result digest differs between repeats");
    }
    if (!r.failures.empty()) ++failed;
  }
  return failed;
}

// -------------------------------------------------------------------- tracing
//
// Spans are recorded from the benchmark's side of each public boundary:
// decorators around the Process, Adversary and DelayPolicy interfaces, and
// explicit spans around Simulator::run_until and the two trackers. Each
// thread keeps its own accumulators and span stack (the parallel engine
// runs handlers on its workers); they are merged after the run.
//
// A span costs two clock reads, about as much as the work of one delay draw
// or one decimated skew sample, so timing every per-event call distorts the
// run it measures (Sampling::kTimeAll: +60% wall time on sparse_1e5, of
// which the calibrated span costs remove only half; bench_suite/README.md
// has the comparison). Calls of the per-event layers are therefore
// timed at random with probability 1/kSampleEvery (a skipped call skips
// everything nested in it), and each timed span is weighted by 1/P(timed)
// along its whole path (Horvitz–Thompson), so layer totals estimate all
// calls. The gaps between timed calls are drawn from the geometric
// distribution, which times each call independently with that probability
// while a skipped call costs one decrement. A layer is timed on every call
// during its warm-up and whenever its calls cost more than kTimeAllAbove
// span costs, where timing is cheap and sampling would only add noise.
// Every call is counted. A span's self time subtracts the estimated work of
// the skipped calls made inside it.

enum Layer : int {
  kRoot,          ///< the stepping loop; its self time is loop overhead
  kRunUntil,      ///< Simulator::run_until; self = queue, dispatch, counters, commit
  kOnStart,       ///< Process::on_start
  kAdvStart,      ///< Adversary::on_start (spam-early signs every round here)
  kStepSkew,      ///< SkewTracker::sample from the stepping loop
  kStepEnvelope,  ///< EnvelopeTracker::sample from the stepping loop
  kOnMessage,     ///< Process::on_message; this and later layers are sampled
  kOnTimer,       ///< Process::on_timer and on_tick
  kStrategy,      ///< Adversary::on_message and on_timer
  kDelay,         ///< DelayPolicy::delay
  kSkew,          ///< SkewTracker::sample from the post-event hook
  kEnvelope,      ///< EnvelopeTracker::sample from the post-event hook
  kCalib,         ///< empty spans timed at start-up
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "root",       "run_until", "on_start", "adversary_start", "step_skew",
    "step_envelope", "on_message", "on_timer", "strategy",    "delay",
    "skew",       "envelope",  "calib",
};

constexpr bool is_sampled(int layer) { return layer >= kOnMessage; }

constexpr double kSampleEvery = 16;
constexpr std::uint64_t kWarmupCalls = 256;
constexpr double kTimeAllAbove = 64;

struct ThreadAcc {
  struct Frame {
    Layer layer = kRoot;
    double weight = 1;  ///< 1/P(timed) of the sampled call this span is timed in
    double start_ns = 0;
    double child_raw_ns = 0;
    std::uint32_t children = 0;
    double child_overhead_ns = 0;  ///< span costs of every descendant
    double skipped_work_ns = 0;    ///< estimated work of skipped sampled children
    std::uint64_t skipped_spans = 0;
  };
  bool main_thread = false;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sigs_delivered = 0;
  std::uint64_t calls[kLayerCount] = {};
  /// Weighted estimates over all calls, span costs removed, and the
  /// sampling variance of each layer's self time.
  double self_ns[kLayerCount] = {};
  double incl_ns[kLayerCount] = {};
  double self_var_ns2[kLayerCount] = {};
  /// Weighted count of the span costs taken out of each layer's self time:
  /// its own and those of the spans timed or skipped inside it.
  double spans_subtracted[kLayerCount] = {};
  /// Sampled layers' timed calls, unweighted: drives the timing rate.
  std::uint64_t timed[kLayerCount] = {};
  double timed_ns[kLayerCount] = {};
  /// Calls left until a sampled layer's next timed call, and that call's
  /// 1/P(timed).
  std::uint64_t countdown[kLayerCount] = {};
  double gap_weight[kLayerCount] = {};
  int skip_depth = 0;  ///< > 0 inside a skipped sampled call
  Frame stack[16];
  int depth = 0;
};

/// Span costs, calibrated on empty spans: `inner_ns` is what a timed span
/// reads as its own duration, `outer_ns` what it adds to the time around
/// it, `skip_ns` what a skipped (counted, untimed) span adds.
struct SpanCost {
  double inner_ns = 0;
  double outer_ns = 0;
  double skip_ns = 0;
};

class Tracer {
 public:
  enum class Sampling { kAdaptive, kTimeAll, kSkipAll };

  explicit Tracer(SpanCost cost, Sampling sampling = Sampling::kAdaptive)
      : cost_(cost), sampling_(sampling), id_(++next_id_), main_(std::this_thread::get_id()) {}

  [[nodiscard]] const SpanCost& cost() const { return cost_; }

  /// Draws the gap to `layer`'s next timed call, at a timed call.
  void next_gap(ThreadAcc& acc, Layer layer) const {
    const std::uint64_t timed = acc.timed[layer];
    if (sampling_ == Sampling::kTimeAll || timed < kWarmupCalls ||
        acc.timed_ns[layer] > double(timed) * kTimeAllAbove * cost_.outer_ns) {
      acc.countdown[layer] = 1;
      acc.gap_weight[layer] = 1;
      return;
    }
    std::uint64_t x = acc.rng;  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc.rng = x;
    const double u = (static_cast<double>(x >> 11) + 0.5) * 0x1p-53;  // uniform in (0, 1)
    acc.countdown[layer] = 1 + static_cast<std::uint64_t>(std::log(u) / std::log1p(-1 / kSampleEvery));
    acc.gap_weight[layer] = kSampleEvery;
  }

  /// This thread's accumulators for this tracer, registered on first use.
  ThreadAcc& local() {
    thread_local std::uint64_t cached_id = 0;
    thread_local ThreadAcc* cached = nullptr;
    if (cached_id != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadAcc>());
      ThreadAcc& acc = *threads_.back();
      acc.main_thread = std::this_thread::get_id() == main_;
      // Every layer's first call is timed, unless nothing is.
      for (int l = 0; l < kLayerCount; ++l) {
        acc.countdown[l] = sampling_ == Sampling::kSkipAll ? UINT64_MAX : 1;
        acc.gap_weight[l] = 1;
      }
      cached = threads_.back().get();
      cached_id = id_;
    }
    return *cached;
  }

  /// Read after every thread that recorded has been joined.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadAcc>>& threads() const {
    return threads_;
  }

 private:
  static inline std::uint64_t next_id_ = 0;
  SpanCost cost_;
  Sampling sampling_;
  std::uint64_t id_;
  std::thread::id main_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadAcc>> threads_;
};

/// The tracer of the traced run in progress. Set before the simulator (and
/// with it the parallel engine's workers) exists and cleared after it is
/// destroyed, so workers only ever read a stable value.
Tracer* g_tracer = nullptr;

// Span timestamps. steady_clock reads the kernel's clock page, and inside a
// simulation that thrashes the caches that page misses, so an in-context
// read costs several times what calibration in a tight loop sees. x86-64
// reads the TSC instead, which touches no memory, scaled to ns against
// steady_clock once per process. The lfence makes the read wait for earlier
// instructions, so a span does not absorb the latency of loads started
// before it began.
#if defined(__x86_64__)
double g_ns_per_tick = 0;

double span_now_ns() {
  _mm_lfence();
  return static_cast<double>(__rdtsc()) * g_ns_per_tick;
}

void calibrate_span_clock() {
  const auto t0 = Clock::now();
  const std::uint64_t k0 = __rdtsc();
  while (seconds_since(t0) < 0.05) {
  }
  g_ns_per_tick = seconds_since(t0) * 1e9 / static_cast<double>(__rdtsc() - k0);
}
#else
double span_now_ns() {
  return std::chrono::duration<double, std::nano>(Clock::now().time_since_epoch()).count();
}

void calibrate_span_clock() {}
#endif

class Span {
 public:
  explicit Span(Layer layer) : acc_(g_tracer->local()) {
    ++acc_.calls[layer];
    ThreadAcc::Frame* top = acc_.depth > 0 ? &acc_.stack[acc_.depth - 1] : nullptr;
    if (acc_.skip_depth > 0) {
      ++acc_.skip_depth;
      if (top != nullptr) ++top->skipped_spans;
      skipped_ = true;
      return;
    }
    if (is_sampled(layer)) {
      if (--acc_.countdown[layer] != 0) {
        if (top != nullptr) ++top->skipped_spans;
        acc_.skip_depth = 1;
        skipped_ = true;
        return;
      }
      local_weight_ = acc_.gap_weight[layer];
      g_tracer->next_gap(acc_, layer);
    }
    ThreadAcc::Frame& f = acc_.stack[acc_.depth++];
    f = ThreadAcc::Frame{};
    f.layer = layer;
    f.weight = (top != nullptr ? top->weight : 1.0) * local_weight_;
    f.start_ns = span_now_ns();
  }

  ~Span() {
    if (skipped_) {
      --acc_.skip_depth;
      return;
    }
    const double raw = span_now_ns() - acc_.stack[acc_.depth - 1].start_ns;
    const ThreadAcc::Frame f = acc_.stack[--acc_.depth];
    const SpanCost& cost = g_tracer->cost();
    const double skipped_cost = double(f.skipped_spans) * cost.skip_ns;
    const double d = raw - cost.inner_ns;
    const double incl = d - f.child_overhead_ns - skipped_cost;
    const double self = d - f.child_raw_ns -
                        f.children * (cost.outer_ns - cost.inner_ns) - f.skipped_work_ns -
                        skipped_cost;
    acc_.self_ns[f.layer] += self * f.weight;
    acc_.incl_ns[f.layer] += incl * f.weight;
    acc_.spans_subtracted[f.layer] += double(1 + f.children + f.skipped_spans) * f.weight;
    // Horvitz–Thompson variance of this call's share, x^2 w (w - 1); the
    // parent's self time subtracts the same estimate.
    const double share_var = incl * incl * f.weight * (f.weight - 1);
    acc_.self_var_ns2[f.layer] += share_var;
    if (is_sampled(f.layer)) {
      ++acc_.timed[f.layer];
      acc_.timed_ns[f.layer] += incl;
    }
    if (acc_.depth > 0) {
      ThreadAcc::Frame& parent = acc_.stack[acc_.depth - 1];
      parent.child_raw_ns += raw;
      ++parent.children;
      parent.child_overhead_ns += f.child_overhead_ns + skipped_cost + cost.outer_ns;
      parent.skipped_work_ns += incl * (local_weight_ - 1);
      acc_.self_var_ns2[parent.layer] += share_var;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] ThreadAcc& acc() { return acc_; }

 private:
  ThreadAcc& acc_;
  bool skipped_ = false;
  double local_weight_ = 1;  ///< 1/P(timed) of this call given its parent was timed
};

/// Per-layer totals summed over threads.
struct LayerTotals {
  double calls[kLayerCount] = {};
  double self_ns[kLayerCount] = {};
  double incl_ns[kLayerCount] = {};
  double self_var_ns2[kLayerCount] = {};
  double spans_subtracted[kLayerCount] = {};

  void add(const ThreadAcc& acc) {
    for (int l = 0; l < kLayerCount; ++l) {
      calls[l] += double(acc.calls[l]);
      self_ns[l] += acc.self_ns[l];
      incl_ns[l] += acc.incl_ns[l];
      self_var_ns2[l] += acc.self_var_ns2[l];
      spans_subtracted[l] += acc.spans_subtracted[l];
    }
  }
};

/// Times empty spans: the median over several batches of each cost.
SpanCost calibrate_spans() {
  calibrate_span_clock();
  constexpr int kBatches = 7;
  constexpr int kSpans = 200000;
  std::vector<double> inner, outer, skip;
  for (int b = 0; b < kBatches; ++b) {
    for (const Tracer::Sampling sampling : {Tracer::Sampling::kTimeAll, Tracer::Sampling::kSkipAll}) {
      Tracer tracer(SpanCost{}, sampling);
      g_tracer = &tracer;
      const double begin = span_now_ns();
      for (int i = 0; i < kSpans; ++i) Span span(kCalib);
      const double per_span = (span_now_ns() - begin) / kSpans;
      g_tracer = nullptr;
      if (sampling == Tracer::Sampling::kTimeAll) {
        inner.push_back(tracer.threads().front()->incl_ns[kCalib] / kSpans);
        outer.push_back(per_span);
      } else {
        skip.push_back(per_span);
      }
    }
  }
  return SpanCost{median(inner), median(outer), median(skip)};
}

/// The process decorator. It decorates by inheritance rather than by
/// holding the registry's process: a wrapper object per node would add one
/// cache miss to every handler call, before any span can start (about 8% of
/// sparse_1e5's wall time, invisible to the spans). Built exactly as the
/// "auth" registry factory builds its SyncProtocol (core/joiner.cpp,
/// make_sync_process); the fidelity gate holds the two to the same result.
class TracedSyncProtocol final : public SyncProtocol {
 public:
  using SyncProtocol::SyncProtocol;

  void on_start(Context& ctx) override {
    Span span(kOnStart);
    SyncProtocol::on_start(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& m) override {
    Span span(kOnMessage);
    // Every delivered signature is one the receiving primitive may verify:
    // an upper bound on verification work.
    if (const auto* round = std::get_if<RoundMsg>(&m)) {
      span.acc().sigs_delivered += round->sigs.size();
    }
    SyncProtocol::on_message(ctx, from, m);
  }
  void on_timer(Context& ctx, TimerId id) override {
    Span span(kOnTimer);
    SyncProtocol::on_timer(ctx, id);
  }
  void on_tick(Context& ctx) override {
    Span span(kOnTimer);
    SyncProtocol::on_tick(ctx);
  }
};

class TracedAdversary final : public Adversary {
 public:
  explicit TracedAdversary(std::unique_ptr<Adversary> inner) : inner_(std::move(inner)) {}

  void on_start(AdversaryContext& ctx) override {
    Span span(kAdvStart);
    inner_->on_start(ctx);
  }
  void on_message(AdversaryContext& ctx, NodeId at, NodeId from, const Message& m) override {
    Span span(kStrategy);
    inner_->on_message(ctx, at, from, m);
  }
  void on_timer(AdversaryContext& ctx, TimerId id) override {
    Span span(kStrategy);
    inner_->on_timer(ctx, id);
  }

 private:
  std::unique_ptr<Adversary> inner_;
};

class TracedDelay final : public DelayPolicy {
 public:
  explicit TracedDelay(std::unique_ptr<DelayPolicy> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel,
                               Rng& rng) override {
    Span span(kDelay);
    return inner_->delay(from, to, now, tdel, rng);
  }
  [[nodiscard]] Duration min_delay(Duration tdel) const override {
    return inner_->min_delay(tdel);
  }
  void on_topology(const Topology& topo) override { inner_->on_topology(topo); }
  void on_topology_change(const Topology& topo, RealTime at) override {
    inner_->on_topology_change(topo, at);
  }

 private:
  std::unique_ptr<DelayPolicy> inner_;
};

// ------------------------------------------------------------------- assembly

/// One run built from the engine's public pieces, in the order
/// experiment::run_scenario_with builds it, for the specs this benchmark
/// uses (no joiners, churn, partitions, corruption or topology events).
/// Members are declared in dependency order: the simulator holds pointers
/// into the registry and its callbacks reference the pulse log.
struct Assembly {
  ScenarioSpec spec;
  theory::Bounds bounds;
  std::unique_ptr<crypto::KeyRegistry> registry;
  std::vector<std::map<Round, RealTime>> pulses;
  std::vector<RealTime> first_pulse;
  std::vector<SyncProtocol*> protocols;
  std::unique_ptr<SkewTracker> skew;
  std::unique_ptr<EnvelopeTracker> envelope;
  std::unique_ptr<Simulator> sim;
  Duration step = 0;
  double env_lo = 0, env_hi = 0, env_steady = 0;
};

struct SetupTimes {
  double topology_s = 0;   ///< build_topology and the connectivity check
  double clocks_s = 0;     ///< build_clock_fleet
  double keys_s = 0;       ///< the KeyRegistry
  double sim_s = 0;        ///< build_delay_policy and the Simulator constructor
  double processes_s = 0;  ///< make_attack/set_adversary, factory + set_process, trackers

  [[nodiscard]] double total() const {
    return topology_s + clocks_s + keys_s + sim_s + processes_s;
  }
};

/// The engine's metric policy for a sync-protocol run, copied from
/// experiment::run_scenario_with (src/experiment/scenario.cpp): tracker
/// settings derived from the spec and the bounds, with the scale policy
/// (decimated skew samples, streaming envelope) at n >= 4096. Keep the two
/// in step; the fidelity gate fails the traced run when they drift apart.
void apply_metric_policy(Assembly& a) {
  const ScenarioSpec& spec = a.spec;
  const bool scale_mode = spec.cfg.n >= experiment::kScaleMetricThreshold;
  a.step = std::max(spec.skew_series_interval, 1e-3);
  a.skew = std::make_unique<SkewTracker>(spec.skew_series_interval, nullptr);
  a.skew->set_steady_start(2 * a.bounds.max_period);
  if (scale_mode) a.skew->set_min_sample_gap(a.step * 0.5);
  a.env_lo = a.bounds.rate_lo;
  a.env_hi = a.bounds.rate_hi;
  a.env_steady = 2 * a.bounds.max_period;
  a.envelope = std::make_unique<EnvelopeTracker>(spec.envelope_interval);
  if (scale_mode) a.envelope->enable_streaming(a.env_lo, a.env_hi, a.env_steady);
}

/// Builds the run. With `traced`, the delay policy, every process and the
/// adversary come with their span decorators and the post-event hook times
/// each tracker.
void assemble(Assembly& a, const ScenarioSpec& requested, bool traced, SetupTimes& times) {
  const experiment::ProtocolRegistry::Entry& entry =
      experiment::ProtocolRegistry::global().at(requested.protocol);
  a.spec = experiment::resolved_spec(requested);
  const ScenarioSpec& spec = a.spec;
  const SyncConfig& cfg = spec.cfg;
  cfg.validate();

  auto t = Clock::now();
  std::shared_ptr<const Topology> topology = experiment::build_topology(
      spec.topology, cfg.n, spec.gnp_p, spec.topology_seed, spec.expander_k);
  if (!topology->is_complete() && !topology->is_connected()) {
    throw std::logic_error("bench_suite: topology is disconnected");
  }
  times.topology_s = seconds_since(t);
  a.bounds = theory::derive_bounds(cfg);

  t = Clock::now();
  Rng rng(spec.seed);
  std::vector<HardwareClock> clocks = experiment::build_clock_fleet(
      spec.drift, cfg.n, cfg.rho, cfg.initial_sync, spec.horizon, cfg.period, rng);
  times.clocks_s = seconds_since(t);

  t = Clock::now();
  a.registry = std::make_unique<crypto::KeyRegistry>(cfg.n, spec.seed ^ 0x5eedULL);
  times.keys_s = seconds_since(t);

  t = Clock::now();
  SimParams params;
  params.n = cfg.n;
  params.tdel = cfg.tdel;
  params.seed = rng.next_u64();
  params.topology = topology;
  params.broadcast_mode = spec.broadcast_mode;
  params.sample_size = spec.sample_size;
  params.sim_threads = spec.sim_threads;
  const auto rounds_budget = static_cast<std::uint64_t>(spec.horizon / cfg.period) + 2;
  params.max_events = std::max<std::uint64_t>(params.max_events, 256ULL * cfg.n * rounds_budget);
  std::unique_ptr<DelayPolicy> delay =
      experiment::build_delay_policy(spec.delay, cfg.n, cfg.period, spec.seed);
  if (traced) delay = std::make_unique<TracedDelay>(std::move(delay));
  a.sim = std::make_unique<Simulator>(params, std::move(clocks), std::move(delay),
                                      a.registry.get());
  times.sim_s = seconds_since(t);

  t = Clock::now();
  Simulator& sim = *a.sim;
  const std::uint32_t corrupt_count = spec.attack == AttackKind::kNone ? 0 : cfg.f;
  const std::uint32_t honest_count = cfg.n - corrupt_count;
  if (corrupt_count > 0) {
    std::vector<NodeId> corrupt;
    for (NodeId id = honest_count; id < cfg.n; ++id) corrupt.push_back(id);
    AttackParams attack;
    attack.period = cfg.period;
    attack.nominal_delay = cfg.tdel / 2;
    attack.max_round = static_cast<Round>(spec.horizon / a.bounds.min_period) + 8;
    attack.variant = cfg.variant;
    std::unique_ptr<Adversary> adversary = make_attack(spec.attack, attack);
    if (traced && adversary != nullptr) {
      adversary = std::make_unique<TracedAdversary>(std::move(adversary));
    }
    sim.set_adversary(std::move(corrupt), std::move(adversary));
  }

  a.pulses.resize(cfg.n);
  a.first_pulse.assign(cfg.n, -1.0);
  a.protocols.assign(cfg.n, nullptr);
  const std::uint32_t fanin = experiment::broadcast_fanin(spec);
  for (NodeId id = 0; id < honest_count; ++id) {
    std::unique_ptr<Process> process =
        traced ? std::make_unique<TracedSyncProtocol>(cfg, make_primitive(cfg, fanin))
               : entry.factory(spec, id, /*joining=*/false);
    auto* sync = dynamic_cast<SyncProtocol*>(process.get());
    if (sync == nullptr) {
      throw std::logic_error("bench_suite: workload protocol is not a sync protocol");
    }
    a.protocols[id] = sync;
    sync->set_pulse_observer([&a](NodeId node, Round round) {
      a.pulses[node][round] = a.sim->now();
      if (a.first_pulse[node] < 0) a.first_pulse[node] = a.sim->now();
    });
    sim.set_process(id, std::move(process));
  }
  sim.set_include_probe([&a](NodeId id) {
    return a.protocols[id] == nullptr || a.protocols[id]->integrated();
  });

  apply_metric_policy(a);
  SkewTracker& skew = *a.skew;
  EnvelopeTracker& envelope = *a.envelope;
  if (traced) {
    sim.set_post_event_hook([&skew, &envelope](const Simulator& s) {
      {
        Span span(kSkew);
        skew.sample(s);
      }
      Span span(kEnvelope);
      envelope.sample(s);
    });
  } else {
    sim.set_post_event_hook([&skew, &envelope](const Simulator& s) {
      skew.sample(s);
      envelope.sample(s);
    });
  }
  times.processes_s = seconds_since(t);
}

/// The engine's stepping loop: metrics sampled at least every `step` of
/// real time, with every call timed when traced.
void run_assembled(Assembly& a, bool traced) {
  Simulator& sim = *a.sim;
  const RealTime horizon = a.spec.horizon;
  for (RealTime t = a.step; t < horizon + a.step; t += a.step) {
    if (traced) {
      {
        Span span(kRunUntil);
        sim.run_until(std::min(t, horizon));
      }
      {
        Span span(kStepSkew);
        a.skew->sample(sim);
      }
      Span span(kStepEnvelope);
      a.envelope->sample(sim);
    } else {
      sim.run_until(std::min(t, horizon));
      a.skew->sample(sim);
      a.envelope->sample(sim);
    }
  }
}

/// The fields the fidelity gate compares, read off an assembled run after
/// the engine's own result collection (envelope fit included, for its cost).
struct Fidelity {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double max_skew = 0;
  double local_skew = 0;
};

Fidelity collect(const Assembly& a) {
  Fidelity f;
  f.events = a.sim->events_dispatched();
  f.messages = a.sim->counters().total_sent();
  f.max_skew = a.skew->max_skew();
  f.local_skew = a.skew->local_skew();
  if (a.spec.horizon > a.env_steady + 3 * a.spec.envelope_interval) {
    (void)a.envelope->report(a.env_lo, a.env_hi, a.env_steady);
  }
  return f;
}

// ------------------------------------------------------------- micro probes

/// ns per Signer::sign and KeyRegistry::verify over round_signing_payload.
std::pair<double, double> crypto_costs() {
  constexpr int kOps = 20000;
  const crypto::KeyRegistry registry(64, 0x5eedULL);
  std::vector<Bytes> payloads;
  for (Round r = 1; r <= 64; ++r) payloads.push_back(round_signing_payload(r));
  std::vector<crypto::Signature> sigs(kOps);
  std::vector<double> sign_ns, verify_ns;
  std::uint64_t valid = 0;
  for (int batch = 0; batch < 3; ++batch) {
    auto t = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      sigs[i] = registry.signer_for(i % 64).sign(payloads[(i / 64) % 64]);
    }
    sign_ns.push_back(seconds_since(t) * 1e9 / kOps);
    t = Clock::now();
    for (int i = 0; i < kOps; ++i) valid += registry.verify(sigs[i], payloads[(i / 64) % 64]);
    verify_ns.push_back(seconds_since(t) * 1e9 / kOps);
  }
  if (valid != 3ULL * kOps) throw std::logic_error("bench_suite: crypto probe failed to verify");
  return {median(sign_ns), median(verify_ns)};
}

/// ns per Topology::adjacent on expander(n, 16), one seeded query stream
/// over ids < 2048 shared by both sizes. n = 2048 answers from the n x n
/// bitset, n = 2049 from the CSR rows (Topology::kBitsetMaxN is the edge).
double adjacent_ns(std::uint32_t n, std::uint64_t seed) {
  const Topology topo = Topology::expander(n, 16, seed);
  Rng rng(seed);
  constexpr std::size_t kQueries = 1 << 20;
  std::vector<std::pair<NodeId, NodeId>> queries(kQueries);
  for (auto& q : queries) {
    q.first = static_cast<NodeId>(rng.uniform_int(0, 2047));
    q.second = static_cast<NodeId>(rng.uniform_int(0, 2047));
  }
  std::vector<double> per_query;
  std::uint64_t hits = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t = Clock::now();
    for (const auto& [u, v] : queries) hits += topo.adjacent(u, v) ? 1 : 0;
    per_query.push_back(seconds_since(t) * 1e9 / kQueries);
  }
  if (hits == 0) throw std::logic_error("bench_suite: adjacency probe found no edges");
  return median(per_query);
}

// ----------------------------------------------------------------- the layers

struct TraceReport {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
};

/// The spec assembled with the span decorators, bracketed by two untraced
/// run_scenario calls whose mean wall time is the reference the tracing
/// overhead and the unaccounted time are measured against (host speed
/// drifts between runs). Publishes the per-layer metrics only when the
/// traced run reproduces the untraced one bit for bit.
TraceReport trace_workload(const ScenarioSpec& spec) {
  TraceReport rep;
  const SpanCost cost = calibrate_spans();
  const auto [sign_ns, verify_ns] = crypto_costs();
  const double bitset_ns = adjacent_ns(2048, spec.seed);
  const double csr_ns = adjacent_ns(2049, spec.seed);

  auto t = Clock::now();
  const ScenarioResult reference = experiment::run_scenario(spec);
  double untraced_s = seconds_since(t);

  Tracer tracer(cost);
  g_tracer = &tracer;
  t = Clock::now();
  auto a = std::make_unique<Assembly>();
  SetupTimes setup;
  assemble(*a, spec, /*traced=*/true, setup);
  {
    Span root(kRoot);
    run_assembled(*a, /*traced=*/true);
  }
  const auto collect_begin = Clock::now();
  const Fidelity traced = collect(*a);
  const std::uint64_t windows = a->sim->parallel_windows();
  a.reset();  // joins the parallel engine's workers
  const double collect_s = seconds_since(collect_begin);
  const double traced_s = seconds_since(t);
  g_tracer = nullptr;

  t = Clock::now();
  const ScenarioResult again = experiment::run_scenario(spec);
  untraced_s = 0.5 * (untraced_s + seconds_since(t));
  if (result_digest(again) != result_digest(reference)) {
    rep.failures.emplace_back("result digest differs between the two untraced runs");
  }

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto mismatch = [&rep](const char* field, double traced_v, double untraced_v) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "fidelity: %s traced %.17g != untraced %.17g", field,
                  traced_v, untraced_v);
    rep.failures.emplace_back(buf);
  };
  if (traced.events != reference.events_dispatched) {
    mismatch("events_dispatched", double(traced.events), double(reference.events_dispatched));
  }
  if (traced.messages != reference.messages_sent) {
    mismatch("messages_sent", double(traced.messages), double(reference.messages_sent));
  }
  if (bits(traced.max_skew) != bits(reference.max_skew)) {
    mismatch("max_skew", traced.max_skew, reference.max_skew);
  }
  if (bits(traced.local_skew) != bits(reference.local_skew)) {
    mismatch("local_skew", traced.local_skew, reference.local_skew);
  }
  for (const std::string& f : result_failures(reference)) rep.failures.push_back(f);

  // Seconds of each layer are summed over threads. Shares come from the
  // main thread, whose self times partition the stepping loop's wall time;
  // on the parallel engine the other workers' handler time overlaps it.
  LayerTotals all, main;
  std::uint64_t sigs = 0;
  for (const auto& acc : tracer.threads()) {
    sigs += acc->sigs_delivered;
    all.add(*acc);
    if (acc->main_thread) main.add(*acc);
  }
  double main_self_ns = 0;
  for (int l = 0; l < kLayerCount; ++l) main_self_ns += main.self_ns[l];
  // A layer with next to no work of its own (a delay draw is a few ns, the
  // stepping loop's own work less than its children's span costs) can read
  // slightly negative. It fails only beyond what the estimate's error
  // explains: three standard errors of sampling plus half a clock read of
  // calibration error per span cost taken out of its self time.
  for (int l = 0; l < kLayerCount; ++l) {
    const double tolerance =
        3 * std::sqrt(all.self_var_ns2[l]) + 0.5 * cost.inner_ns * all.spans_subtracted[l];
    if (all.self_ns[l] < -tolerance) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "negative self time in layer %s: %.0f ns, tolerance %.0f ns",
                    kLayerNames[l], all.self_ns[l], tolerance);
      rep.failures.emplace_back(buf);
    }
  }
  const auto share = [main_self_ns](double ns) { return 100.0 * ns / main_self_ns; };
  const auto sum = [](const double* v, std::initializer_list<Layer> layers) {
    double s = 0;
    for (const Layer l : layers) s += v[l];
    return s;
  };
  const auto core = {kOnStart, kOnMessage, kOnTimer};
  const auto strategy = {kAdvStart, kStrategy};
  const auto skew = {kSkew, kStepSkew};
  const auto envelope = {kEnvelope, kStepEnvelope};
  const double core_calls = sum(all.calls, core);
  const double core_self_ns = sum(all.self_ns, core);
  const double busy_ns = sum(all.incl_ns, core);
  const double threads = windows > 0 ? double(spec.sim_threads) : 1.0;
  // The traced run with every span's cost taken out, against the untraced
  // wall time: what the spans fail to account for (negative = overcounted).
  const double accounted_s = setup.total() + main_self_ns * 1e-9 + collect_s;

  rep.metrics = {
      {"setup.topology_s", setup.topology_s, "s"},
      {"setup.clocks_s", setup.clocks_s, "s"},
      {"setup.keys_s", setup.keys_s, "s"},
      {"setup.sim_s", setup.sim_s, "s"},
      {"setup.processes_s", setup.processes_s, "s"},
      {"sim.events", double(traced.events), "count"},
      {"sim.messages", double(traced.messages), "count"},
      {"sim.self_s", all.self_ns[kRunUntil] * 1e-9, "s"},
      {"sim.ns_per_event", all.self_ns[kRunUntil] / std::max(1.0, double(traced.events)), "ns"},
      {"sim.share", share(main.self_ns[kRunUntil]), "%"},
      {"core.handler_calls", core_calls, "count"},
      {"core.on_message_s", all.self_ns[kOnMessage] * 1e-9, "s"},
      {"core.on_timer_s", all.self_ns[kOnTimer] * 1e-9, "s"},
      {"core.self_s", core_self_ns * 1e-9, "s"},
      {"core.ns_per_call", core_self_ns / std::max(1.0, core_calls), "ns"},
      {"core.share", share(sum(main.self_ns, core)), "%"},
      {"crypto.sigs_delivered", double(sigs), "count"},
      {"crypto.sign_ns", sign_ns, "ns"},
      {"crypto.verify_ns", verify_ns, "ns"},
      {"adversary.delay_draws", all.calls[kDelay], "count"},
      {"adversary.delay_s", all.self_ns[kDelay] * 1e-9, "s"},
      {"adversary.strategy_calls", sum(all.calls, strategy), "count"},
      {"adversary.strategy_s", sum(all.self_ns, strategy) * 1e-9, "s"},
      {"trace.skew_samples", sum(all.calls, skew), "count"},
      {"trace.skew_s", sum(all.self_ns, skew) * 1e-9, "s"},
      {"trace.skew_ns_per_sample", sum(all.self_ns, skew) / std::max(1.0, sum(all.calls, skew)),
       "ns"},
      {"trace.skew_share", share(sum(main.self_ns, skew)), "%"},
      {"trace.envelope_s", sum(all.self_ns, envelope) * 1e-9, "s"},
      {"trace.envelope_share", share(sum(main.self_ns, envelope)), "%"},
      {"par.windows", double(windows), "count"},
      {"par.worker_busy_s", busy_ns * 1e-9, "s"},
      {"par.worker_util", 100.0 * busy_ns / (threads * std::max(1.0, all.incl_ns[kRunUntil])),
       "%"},
      {"tracing.overhead_pct", 100.0 * (traced_s / untraced_s - 1), "%"},
      {"tracing.unaccounted_pct", 100.0 * (untraced_s - accounted_s) / untraced_s, "%"},
      {"tracing.span_cost_ns", cost.outer_ns, "ns"},
      {"topo.adjacent_bitset_ns", bitset_ns, "ns"},
      {"topo.adjacent_csr_ns", csr_ns, "ns"},
  };
  return rep;
}

/// The layer split each full-size workload was chosen for
/// (bench_suite/README.md): the exact skew scan dominates exact_1024, the
/// streaming trackers stay a minor layer on sparse_1e5, and only
/// sparse_1e5_t4 runs parallel windows. The smoke sizes are not held to it.
std::vector<std::string> design_failures(const std::string& workload,
                                         const std::vector<Metric>& metrics) {
  const auto value = [&metrics](const char* name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return std::nan("");
  };
  std::vector<std::string> out;
  char buf[200];
  const double skew_share = value("trace.skew_share");
  if ((workload == "exact_1024" && !(skew_share >= 90)) ||
      (workload == "sparse_1e5" && !(skew_share <= 25))) {
    std::snprintf(buf, sizeof buf, "design: trace.skew_share %.1f%% on %s is outside %s",
                  skew_share, workload.c_str(), workload == "exact_1024" ? ">= 90%" : "<= 25%");
    out.emplace_back(buf);
  }
  const double windows = value("par.windows");
  if ((windows > 0) != (workload == "sparse_1e5_t4")) {
    std::snprintf(buf, sizeof buf, "design: par.windows %.0f on %s (expected > 0 only on "
                  "sparse_1e5_t4)", windows, workload.c_str());
    out.emplace_back(buf);
  }
  return out;
}

// ------------------------------------------------------------ child processes
//
// Every measured repeat runs in a fresh child (this binary with --child),
// so each gets a cold heap and its own peak RSS. Children print "key value"
// lines on stdout; the parent reads them through a pipe and takes the
// child's resource usage from wait4.

struct ChildOutput {
  bool exited_ok = false;
  std::string exit_reason;
  double peak_rss_mb = 0;
  std::map<std::string, std::string> values;
  std::vector<std::string> fails;
  std::vector<Metric> metrics;
};

std::string self_exe() {
  char buf[4096];
  const ssize_t len = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) throw std::runtime_error("bench_suite: cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(len));
}

ChildOutput run_child(const std::vector<std::string>& args) {
  static const std::string exe = self_exe();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("bench_suite: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv{const_cast<char*>(exe.c_str())};
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("bench_suite: posix_spawn failed: ") + std::strerror(rc));
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }

  ChildOutput child;
  child.peak_rss_mb = usage.ru_maxrss / 1024.0;  // Linux reports KB
  child.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!child.exited_ok) {
    child.exit_reason = WIFSIGNALED(status)
                            ? "child killed by signal " + std::to_string(WTERMSIG(status))
                            : "child exited with status " + std::to_string(WEXITSTATUS(status));
  }
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const std::string rest = line.substr(sp + 1);
    if (key == "fail") {
      child.fails.push_back(rest);
    } else if (key == "metric") {
      char name[128], unit[32];
      double value = 0;
      if (std::sscanf(rest.c_str(), "%127s %lf %31s", name, &value, unit) == 3) {
        child.metrics.push_back({name, value, unit});
      }
    } else {
      child.values[key] = rest;
    }
  }
  return child;
}

double value_of(const ChildOutput& child, const char* key) {
  const auto it = child.values.find(key);
  return it == child.values.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// A child never outlives a stuck simulation: the alarm kills it, and the
/// parent records the repeat as failed.
constexpr unsigned kChildAlarmSeconds = 150;

int child_main(const std::string& what, const std::string& workload, std::uint64_t seed) {
  alarm(kChildAlarmSeconds);
  const ScenarioSpec spec = workload_spec(workload, seed, /*smoke=*/false);
  if (what == "run") {
    const auto t = Clock::now();
    const ScenarioResult r = experiment::run_scenario(spec);
    const double wall = seconds_since(t);
    std::printf("wall_s %.9f\nevents %llu\ndigest %s\n", wall,
                static_cast<unsigned long long>(r.events_dispatched), result_digest(r).c_str());
    for (const std::string& f : result_failures(r)) std::printf("fail %s\n", f.c_str());
  } else if (what == "setup") {
    Assembly a;
    SetupTimes times;
    const auto t = Clock::now();
    assemble(a, spec, /*traced=*/false, times);
    std::printf("setup_s %.9f\n", seconds_since(t));
  } else if (what == "trace") {
    const TraceReport rep = trace_workload(spec);
    for (const Metric& m : rep.metrics) {
      std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& f : rep.failures) std::printf("fail %s\n", f.c_str());
    for (const std::string& f : design_failures(workload, rep.metrics)) {
      std::printf("fail %s\n", f.c_str());
    }
  } else {
    std::fprintf(stderr, "bench_suite: unknown child mode %s\n", what.c_str());
    return 2;
  }
  std::fflush(stdout);
  return 0;
}

// --------------------------------------------------------------- measurement

std::vector<std::string> child_args(const char* what, const std::string& workload,
                                    std::uint64_t seed) {
  return {"--child", what, "--workload", workload, "--seed", std::to_string(seed)};
}

RunRecord run_repeat(const std::string& workload, std::uint64_t seed) {
  const ChildOutput child = run_child(child_args("run", workload, seed));
  RunRecord r;
  r.exited_ok = child.exited_ok && child.values.contains("digest");
  r.wall_s = value_of(child, "wall_s");
  r.events = value_of(child, "events");
  r.peak_rss_mb = child.peak_rss_mb;
  if (const auto it = child.values.find("digest"); it != child.values.end()) r.digest = it->second;
  r.failures = child.fails;
  if (!child.exit_reason.empty()) r.failures.push_back(child.exit_reason);
  return r;
}

/// Set-up times from fresh children, appended to `out`; false if a probe
/// failed. Probes repeat for kSetupProbeSeconds, at least once: a
/// millisecond set-up is mostly page faults and needs many samples for a
/// steady median, a sub-second one needs one.
constexpr double kSetupProbeSeconds = 0.3;

bool run_setup_probes(const std::string& workload, std::uint64_t seed, std::vector<double>& out) {
  const auto begin = Clock::now();
  bool ok = true;
  do {
    const ChildOutput child = run_child(child_args("setup", workload, seed));
    if (child.exited_ok && child.values.contains("setup_s")) {
      out.push_back(value_of(child, "setup_s"));
    } else {
      ok = false;
    }
  } while (seconds_since(begin) < kSetupProbeSeconds);
  return ok;
}

/// The end-to-end metrics of one workload from its repeats and probes.
struct Measurement {
  std::vector<RunRecord> runs;
  std::vector<double> setups;
  int failed = 0;
  std::vector<Metric> metrics;

  /// One repeat with the set-up probes before it; a failed probe fails the
  /// repeat.
  void add_repeat(const std::string& workload, std::uint64_t seed) {
    const bool setup_ok = run_setup_probes(workload, seed, setups);
    runs.push_back(run_repeat(workload, seed));
    if (!setup_ok) runs.back().failures.emplace_back("set-up probe failed");
  }
};

void summarize(Measurement& m) {
  m.failed = judge_runs(m.runs);
  std::vector<double> walls, rates, rss;
  for (const RunRecord& r : m.runs) {
    if (!r.exited_ok) continue;
    walls.push_back(r.wall_s);
    rates.push_back(r.events / r.wall_s);
    rss.push_back(r.peak_rss_mb);
  }
  m.metrics = {
      {"wall_s", median(walls), "s"},
      {"events_per_s", median(rates), "1/s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"setup_s", median(m.setups), "s"},
  };
}

void report_runs(const std::string& workload, const Measurement& m) {
  for (std::size_t i = 0; i < m.runs.size(); ++i) {
    const RunRecord& r = m.runs[i];
    std::fprintf(stderr, "bench_suite: %s repeat %zu wall %.3f s events %.0f rss %.1f MB%s\n",
                 workload.c_str(), i + 1, r.wall_s, r.events, r.peak_rss_mb,
                 r.failures.empty() ? "" : " FAILED");
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "bench_suite:   %s\n", f.c_str());
    }
  }
  if (!m.runs.empty()) {
    std::fprintf(stderr, "bench_suite: %s digest %s\n", workload.c_str(),
                 m.runs.front().digest.c_str());
  }
}

void print_json_result(bool correct, std::size_t attempted, int failed,
                       const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool all_finite(const std::vector<Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

/// At least this many repeats per measured run, whatever --seconds says.
constexpr int kMinRepeats = 3;

int measure_workload(const std::string& workload, std::uint64_t seed, double seconds,
                     bool trace) {
  if (trace) {
    const ChildOutput child = run_child(child_args("trace", workload, seed));
    std::vector<std::string> fails = child.fails;
    if (!child.exit_reason.empty()) fails.push_back(child.exit_reason);
    for (const std::string& f : fails) std::fprintf(stderr, "bench_suite: %s\n", f.c_str());
    const bool correct = fails.empty() && !child.metrics.empty() && all_finite(child.metrics);
    print_json_result(correct, 1, correct ? 0 : 1, child.metrics);
    return 0;
  }
  // Set-up probes alternate with the repeats so host drift hits both alike.
  Measurement m;
  const auto begin = Clock::now();
  while (static_cast<int>(m.runs.size()) < kMinRepeats || seconds_since(begin) < seconds) {
    m.add_repeat(workload, seed);
  }
  summarize(m);
  report_runs(workload, m);
  const bool correct = m.failed == 0 && all_finite(m.metrics);
  print_json_result(correct, m.runs.size(), m.failed, m.metrics);
  return 0;
}

// --------------------------------------------------------------------- suite

int num_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

int run_suite(std::uint64_t seed, bool trace, const std::string& json_path) {
  const std::vector<std::string> names(std::begin(kWorkloads), std::end(kWorkloads));
  std::map<std::string, Measurement> by_workload;
  for (int r = 0; r < kMinRepeats; ++r) {
    for (const std::string& w : names) by_workload[w].add_repeat(w, seed);
  }

  std::map<std::string, std::vector<Metric>> rows;
  bool ok = true;
  for (const std::string& w : names) {
    Measurement& m = by_workload[w];
    summarize(m);
    report_runs(w, m);
    rows[w] = m.metrics;
    rows[w].push_back({"runs_attempted", double(m.runs.size()), "count"});
    rows[w].push_back({"runs_failed", double(m.failed), "count"});
    ok = ok && m.failed == 0;
    if (trace) {
      const ChildOutput child = run_child(child_args("trace", w, seed));
      for (const Metric& metric : child.metrics) rows[w].push_back(metric);
      for (const std::string& f : child.fails) {
        std::fprintf(stderr, "bench_suite: %s trace: %s\n", w.c_str(), f.c_str());
      }
      ok = ok && child.exited_ok && child.fails.empty();
    }
  }
  // The parallel engine is bit-identical to the sequential one.
  const std::string& seq = by_workload["sparse_1e5"].runs.front().digest;
  const std::string& par = by_workload["sparse_1e5_t4"].runs.front().digest;
  if (seq != par) {
    std::fprintf(stderr, "bench_suite: sparse_1e5_t4 digest %s != sparse_1e5 digest %s\n",
                 par.c_str(), seq.c_str());
    ok = false;
  }

  for (const std::string& w : names) {
    for (const Metric& m : rows[w]) {
      std::printf("%-14s %-26s %.10g %s\n", w.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-14s %-26s %s\n", w.c_str(), "digest", by_workload[w].runs.front().digest.c_str());
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_suite: cannot open %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(out, "{\"seed\": %llu, \"repeats\": %d, \"ok\": %s,\n",
                 static_cast<unsigned long long>(seed), kMinRepeats, ok ? "true" : "false");
    std::fprintf(out, " \"host\": {\"num_cpus\": %d, \"build_type\": \"%s\"},\n \"workloads\": {",
                 num_cpus(), BENCH_SUITE_BUILD_TYPE);
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& w = names[i];
      std::fprintf(out, "%s\n  \"%s\": {\"digest\": \"%s\"", i == 0 ? "" : ",", w.c_str(),
                   by_workload[w].runs.front().digest.c_str());
      for (const Metric& m : rows[w]) {
        std::fprintf(out, ", \"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", m.name.c_str(),
                     std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "\n }\n}\n");
    std::fclose(out);
  }
  std::fprintf(stderr, "bench_suite: suite %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------- smoke, self-test

int run_smoke() {
  const auto begin = Clock::now();
  bool ok = true;
  for (const char* name : kWorkloads) {
    const ScenarioSpec spec = workload_spec(name, 1, /*smoke=*/true);
    const ScenarioResult r = experiment::run_scenario(spec);
    std::vector<std::string> fails = result_failures(r);
    const TraceReport rep = trace_workload(spec);
    fails.insert(fails.end(), rep.failures.begin(), rep.failures.end());
    std::printf("%-14s n=%-6u events %-9llu max_skew %.3e digest %s %s\n", name, spec.cfg.n,
                static_cast<unsigned long long>(r.events_dispatched), r.max_skew,
                result_digest(r).c_str(), fails.empty() ? "OK" : "FAILED");
    for (const std::string& f : fails) std::printf("  %s\n", f.c_str());
    ok = ok && fails.empty();
  }
  std::printf("bench_suite: smoke %s in %.1f s\n", ok ? "OK" : "FAILED", seconds_since(begin));
  return ok ? 0 : 1;
}

/// Feeds the failure checks forged results and asserts each is reported
/// as a failed run, and that an honest record passes.
int run_self_test() {
  int bad = 0;
  const auto expect = [&bad](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++bad;
  };

  ScenarioResult good;
  good.live = true;
  good.bounds.precision = 0.02;
  good.bounds.rate_lo = 0.999;
  good.bounds.rate_hi = 1.001;
  good.rate_fit_tolerance = 1e-4;
  good.max_skew = 0.01;
  good.envelope.min_rate = 0.9995;
  good.envelope.max_rate = 1.0005;
  expect(result_failures(good).empty(), "a result within every bound passes");

  ScenarioResult over = good;
  over.max_skew = 0.03;
  expect(result_failures(over).size() == 1, "max_skew above the precision bound fails");
  ScenarioResult stalled = good;
  stalled.live = false;
  expect(result_failures(stalled).size() == 1, "live=false fails");
  ScenarioResult drifting = good;
  drifting.envelope.max_rate = 1.01;
  expect(result_failures(drifting).size() == 1, "a fitted rate outside the envelope fails");

  const auto record = [](const ScenarioResult& r, double wall) {
    RunRecord rec;
    rec.exited_ok = true;
    rec.wall_s = wall;
    rec.digest = result_digest(r);
    rec.failures = result_failures(r);
    return rec;
  };
  std::vector<RunRecord> clean{record(good, 1.0), record(good, 1.1), record(good, 0.9)};
  expect(judge_runs(clean) == 0, "three identical repeats pass");

  std::vector<RunRecord> forged{record(good, 1.0), record(over, 1.0), record(good, 1.0)};
  expect(judge_runs(forged) == 1 && !forged[1].failures.empty(),
         "a repeat exceeding precision is a failed run");
  std::vector<RunRecord> dead{record(good, 1.0), record(stalled, 1.0), record(good, 1.0)};
  expect(judge_runs(dead) == 1 && !dead[1].failures.empty(),
         "a repeat with live=false is a failed run");

  ScenarioResult other = good;
  other.events_dispatched = 12345;  // same checks, different bytes
  std::vector<RunRecord> split{record(good, 1.0), record(good, 1.0), record(other, 1.0)};
  expect(judge_runs(split) == 1 && split[2].failures.size() == 1,
         "a mismatched digest is a failed run");
  std::vector<RunRecord> slow{record(good, 1.0), record(good, 1.0), record(good, 1.0),
                              record(good, 4.0)};
  expect(judge_runs(slow) == 1 && slow[3].failures.size() == 1,
         "a repeat above 3x the median wall time is a failed run");
  std::vector<RunRecord> crashed{record(good, 1.0), RunRecord{}, record(good, 1.0)};
  expect(judge_runs(crashed) == 1, "a crashed child is a failed run");

  std::printf("bench_suite: self-test %s\n", bad == 0 ? "OK" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------- main

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload W [--seed S] [--seconds T] "
               "[--trace 0|1]\n       bench_suite --suite [--seed S] [--trace] "
               "[--json FILE]\n       bench_suite --smoke | --self-test\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage_error(std::string(flag) + " needs a non-negative integer");
  }
  return v;
}

}  // namespace
}  // namespace stclock

int main(int argc, char** argv) {
  using namespace stclock;
  std::string mode, child, workload, json_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = parse_uint(value(), "--seed");
    } else if (arg == "--seconds") {
      seconds = static_cast<double>(parse_uint(value(), "--seconds"));
    } else if (arg == "--trace") {
      // --trace 0|1 in --workload mode; a bare flag in --suite mode.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        trace = argv[++i][0] == '1';
      } else {
        trace = true;
      }
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--child") {
      child = value();
    } else if (arg == "--suite" || arg == "--smoke" || arg == "--self-test") {
      mode = arg;
    } else {
      usage_error("unknown option " + arg);
    }
  }

  try {
    if (!child.empty()) return child_main(child, workload, seed);
    if (mode == "--self-test") return run_self_test();
    if (mode == "--smoke") return run_smoke();
    // Timings from anything but a Release build are not comparable.
    if (std::strcmp(BENCH_SUITE_BUILD_TYPE, "Release") != 0) {
      std::fprintf(stderr, "bench_suite: refusing to measure a %s build (need Release)\n",
                   BENCH_SUITE_BUILD_TYPE);
      return 2;
    }
    if (mode == "--suite") return run_suite(seed, trace, json_path);
    if (workload.empty()) usage_error("need --workload, --suite, --smoke or --self-test");
    if (!known_workload(workload)) usage_error("unknown workload " + workload);
    return measure_workload(workload, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
