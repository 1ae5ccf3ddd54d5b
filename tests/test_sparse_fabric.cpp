#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/auth_broadcast.h"
#include "broadcast/echo_broadcast.h"
#include "broadcast/primitive.h"
#include "experiment/registry.h"
#include "experiment/scenario.h"
#include "sim/topology.h"

/// The sparse broadcast fabric: quorum scaling, the broadcast-mode routing
/// contract (full mode is THE bit-identity baseline; neighbors mode on a
/// complete graph degenerates to it exactly), and the paper's skew envelope
/// surviving on expander fabrics where each broadcast reaches k or m nodes
/// instead of n.
namespace stclock {
namespace {

TEST(ScaledThreshold, ReducesToPaperThresholdsAtFullFanIn) {
  // fanin 0 (= full fan-in) and fanin >= n-1 must leave the paper's
  // thresholds untouched: f+1 for auth relay, 2f+1 for echo accept.
  EXPECT_EQ(scaled_threshold(4, 10, 0), 4u);
  EXPECT_EQ(scaled_threshold(4, 10, 9), 4u);
  EXPECT_EQ(scaled_threshold(4, 10, 200), 4u);
  EXPECT_EQ(scaled_threshold(7, 10, 0), 7u);
}

TEST(ScaledThreshold, ScalesProportionallyToFanIn) {
  // 1 + floor((full - 1) * fanin / (n - 1)): never below 1, never above
  // full, monotone in fanin.
  EXPECT_EQ(scaled_threshold(4, 10, 3), 2u);  // 1 + floor(3*3/9) = 2
  EXPECT_EQ(scaled_threshold(4, 10, 6), 3u);  // 1 + floor(3*6/9) = 3
  EXPECT_EQ(scaled_threshold(1, 10, 3), 1u);  // f = 0 stays at 1
  std::uint32_t prev = 0;
  for (std::uint32_t fanin = 1; fanin < 9; ++fanin) {
    const std::uint32_t q = scaled_threshold(7, 10, fanin);
    EXPECT_GE(q, 1u);
    EXPECT_LE(q, 7u);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(ScaledThreshold, DrivesPrimitiveQuorums) {
  // Full fan-in: the classic quorums. Fan-in 8 of n=100: proportional.
  EXPECT_EQ(AuthBroadcast(100, 10).quorum(), 11u);
  EXPECT_EQ(AuthBroadcast(100, 10, 8).quorum(), 1u + (10u * 8u) / 99u);
  EXPECT_EQ(EchoBroadcast(100, 10).echo_threshold(), 11u);
  EXPECT_EQ(EchoBroadcast(100, 10).accept_threshold(), 21u);
  EXPECT_EQ(EchoBroadcast(100, 10, 8).accept_threshold(), 1u + (20u * 8u) / 99u);
}

TEST(SparseFabric, NeighborsModeOnCompleteGraphIsBitIdenticalToFull) {
  // On the complete graph "broadcast to my neighbors" IS "broadcast to
  // everyone", so every registered protocol must produce bit-identical
  // metrics in the two modes — the sparse fan-out path may not perturb
  // delivery order, RNG consumption, or metric accounting. Registry-wide so
  // a future protocol cannot quietly special-case a mode.
  for (const std::string& name : experiment::ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    experiment::ScenarioSpec spec;
    spec.protocol = name;
    spec.cfg.n = 8;
    spec.cfg.f = 0;
    spec.cfg.rho = 1e-4;
    spec.cfg.tdel = 0.01;
    spec.cfg.period = 1.0;
    spec.cfg.initial_sync = 0.005;
    spec.seed = 21;
    spec.horizon = 6.0;

    experiment::ScenarioSpec sparse = spec;
    sparse.broadcast_mode = BroadcastMode::kNeighbors;

    const experiment::ScenarioResult a = experiment::run_scenario(spec);
    const experiment::ScenarioResult b = experiment::run_scenario(sparse);
    EXPECT_EQ(a.max_skew, b.max_skew);
    EXPECT_EQ(a.local_skew, b.local_skew);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.events_dispatched, b.events_dispatched);
    EXPECT_EQ(a.envelope.min_rate, b.envelope.min_rate);
    EXPECT_EQ(a.envelope.max_rate, b.envelope.max_rate);
  }
}

std::uint32_t bfs_diameter(const Topology& topo) {
  std::uint32_t diameter = 0;
  for (NodeId src = 0; src < topo.n(); ++src) {
    std::vector<std::uint32_t> dist(topo.n(), UINT32_MAX);
    std::vector<NodeId> frontier = {src};
    dist[src] = 0;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (const NodeId a : frontier) {
        const auto [nbrs, degree] = topo.neighbor_span(a);
        for (std::size_t i = 0; i < degree; ++i) {
          if (dist[nbrs[i]] == UINT32_MAX) {
            dist[nbrs[i]] = dist[a] + 1;
            next.push_back(nbrs[i]);
          }
        }
      }
      frontier = std::move(next);
    }
    for (const std::uint32_t d : dist) diameter = std::max(diameter, d);
  }
  return diameter;
}

TEST(SparseFabric, AuthOnExpanderKeepsSkewEnvelopeAndLiveness) {
  // The property sweep from the issue: auth x expander {k=8, k=16} x seeds,
  // under neighbors fan-out. On a sparse fabric a resync message reaches the
  // last node after <= diameter relay hops, so honest acceptance times
  // spread by at most diameter * tdel instead of the paper's single tdel.
  // The skew envelope scales the same way: initial_sync + diameter * tdel
  // plus the drift term, doubled for slack (drift between samples, discrete
  // sampling of the sup). Liveness must be exact — every node keeps pulsing.
  for (const std::uint32_t k : {8u, 16u}) {
    for (const std::uint64_t topo_seed : {3ULL, 11ULL}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " topo_seed=" + std::to_string(topo_seed));
      experiment::ScenarioSpec spec;
      spec.protocol = "auth";
      spec.cfg.n = 48;
      spec.cfg.f = 0;
      spec.cfg.rho = 1e-4;
      spec.cfg.tdel = 0.01;
      spec.cfg.period = 1.0;
      spec.cfg.initial_sync = 0.005;
      spec.seed = 31;
      spec.horizon = 6.0;
      spec.topology = TopologyKind::kExpander;
      spec.expander_k = k;
      spec.topology_seed = topo_seed;
      spec.broadcast_mode = BroadcastMode::kNeighbors;

      const std::uint32_t diameter =
          bfs_diameter(Topology::expander(spec.cfg.n, k, topo_seed));
      const experiment::ScenarioResult r = experiment::run_scenario(spec);
      EXPECT_TRUE(r.live);
      EXPECT_EQ(r.min_pulses, r.max_pulses);
      const double envelope =
          2 * (spec.cfg.initial_sync + diameter * spec.cfg.tdel +
               2 * spec.cfg.rho * spec.cfg.period);
      EXPECT_LE(r.max_skew, envelope);
      EXPECT_GT(r.max_skew, 0.0);
    }
  }
}

TEST(SparseFabric, SampledFanOutIsSeedDeterministicAndLive) {
  // Sampled mode draws from a dedicated RNG stream forked off the scenario
  // seed: the same spec twice must agree bit for bit, and the protocol must
  // stay live even though each broadcast reaches only m = 6 of 32 peers
  // (the quorum scales with the fan-in, so acceptance still fires).
  experiment::ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.n = 32;
  spec.cfg.f = 0;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 5;
  spec.horizon = 6.0;
  spec.topology = TopologyKind::kExpander;
  spec.expander_k = 16;
  spec.topology_seed = 9;
  spec.broadcast_mode = BroadcastMode::kSampled;
  spec.sample_size = 6;

  const experiment::ScenarioResult a = experiment::run_scenario(spec);
  const experiment::ScenarioResult b = experiment::run_scenario(spec);
  EXPECT_TRUE(a.live);
  EXPECT_EQ(a.max_skew, b.max_skew);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);

  // A different scenario seed must reach different draws (and thus a
  // different trace) — the stream is forked, not fixed.
  experiment::ScenarioSpec reseeded = spec;
  reseeded.seed = 6;
  const experiment::ScenarioResult c = experiment::run_scenario(reseeded);
  EXPECT_NE(a.max_skew, c.max_skew);
}

TEST(SparseFabric, SampledModeCutsMessageComplexity) {
  // The message-complexity cliff in miniature: full mode on the complete
  // graph is Theta(n^2) per round; sampled mode with m = 4 must send less
  // than half as much at n = 32 (each broadcast: 4 sends instead of 31).
  experiment::ScenarioSpec full;
  full.protocol = "auth";
  full.cfg.n = 32;
  full.cfg.f = 0;
  full.cfg.rho = 1e-4;
  full.cfg.tdel = 0.01;
  full.cfg.period = 1.0;
  full.cfg.initial_sync = 0.005;
  full.seed = 5;
  full.horizon = 6.0;

  experiment::ScenarioSpec sampled = full;
  sampled.broadcast_mode = BroadcastMode::kSampled;
  sampled.sample_size = 4;

  const experiment::ScenarioResult rf = experiment::run_scenario(full);
  const experiment::ScenarioResult rs = experiment::run_scenario(sampled);
  EXPECT_TRUE(rf.live);
  EXPECT_TRUE(rs.live);
  EXPECT_LT(rs.messages_sent * 2, rf.messages_sent);
}


// --- Stopgap: Byzantine faults on a non-full fan-out are rejected ---
// The scaled quorum 1 + floor(f*fanin/(n-1)) is 1 whenever f*fanin < n-1,
// so a single Byzantine signature triggers acceptance. These rows used to
// run and report live=1 beside a max_skew of 13.01 against a 0.030 bound.

experiment::ScenarioSpec byzantine_fabric_row(std::uint32_t n, std::uint32_t f) {
  experiment::ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.n = n;
  spec.cfg.f = f;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 1;
  spec.horizon = 5.0;
  spec.drift = DriftKind::kRandomWalk;
  spec.delay = DelayKind::kUniform;
  spec.attack = AttackKind::kSpamEarly;
  return spec;
}

std::vector<experiment::ScenarioSpec> byzantine_fabric_rows() {
  experiment::ScenarioSpec sampled_400 = byzantine_fabric_row(400, 40);
  sampled_400.broadcast_mode = BroadcastMode::kSampled;
  sampled_400.sample_size = 8;

  experiment::ScenarioSpec expander_400 = byzantine_fabric_row(400, 40);
  expander_400.topology = TopologyKind::kExpander;
  expander_400.expander_k = 16;
  expander_400.broadcast_mode = BroadcastMode::kNeighbors;

  experiment::ScenarioSpec sampled_2000 = byzantine_fabric_row(2000, 100);
  sampled_2000.broadcast_mode = BroadcastMode::kSampled;
  sampled_2000.sample_size = 8;
  return {sampled_400, expander_400, sampled_2000};
}

TEST(SparseFabricStopgap, ByzantineFaultsOnNonFullFanOutAreRejectedWithTheReason) {
  for (const experiment::ScenarioSpec& spec : byzantine_fabric_rows()) {
    SCOPED_TRACE(std::string(broadcast_mode_name(spec.broadcast_mode)) +
                 " n=" + std::to_string(spec.cfg.n));
    try {
      (void)experiment::run_scenario(spec);
      FAIL() << "expected the stopgap rejection";
    } catch (const std::logic_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(std::string("broadcast_mode=") +
                             broadcast_mode_name(spec.broadcast_mode) + " with " +
                             std::to_string(spec.cfg.f) + " Byzantine nodes (attack=spam-early)"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("is 1 whenever f*fanin < n-1, so one Byzantine signature "
                             "triggers acceptance"),
                std::string::npos)
          << message;
    }
  }
}

TEST(SparseFabricStopgap, FullFanOutAndCrashFaultsStillRun) {
  // The same fault load on the full fan-out is the paper's setting.
  experiment::ScenarioSpec full = byzantine_fabric_row(40, 4);
  EXPECT_NO_THROW(experiment::validate_spec(full, experiment::EngineMode::kSyncProtocol));

  // Crash faults send nothing, so sampled fan-out with f > 0 still runs.
  experiment::ScenarioSpec crash = byzantine_fabric_row(40, 4);
  crash.attack = AttackKind::kCrash;
  crash.topology = TopologyKind::kExpander;
  crash.expander_k = 16;
  crash.broadcast_mode = BroadcastMode::kSampled;
  crash.sample_size = 8;
  crash.horizon = 3.0;
  const experiment::ScenarioResult r = experiment::run_scenario(crash);
  EXPECT_TRUE(r.live);
  EXPECT_GT(r.messages_sent, 0u);
}

}  // namespace
}  // namespace stclock
