#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/topology.h"

/// The Topology abstraction: generator shapes, adjacency/connectivity
/// queries, determinism of seeded graphs — and the bit-identity contract of
/// the message path: a simulator given an explicit complete topology must
/// behave exactly like one left to install complete(n) itself, while sparse
/// graphs restrict broadcast fan-out to neighbors.
namespace stclock {
namespace {

TEST(Topology, CompleteLinksEveryDistinctPair) {
  const Topology topo = Topology::complete(5);
  EXPECT_TRUE(topo.is_complete());
  EXPECT_EQ(topo.edge_count(), 10u);
  for (NodeId a = 0; a < 5; ++a) {
    EXPECT_FALSE(topo.adjacent(a, a));
    EXPECT_EQ(topo.degree(a), 4u);
    for (NodeId b = 0; b < 5; ++b) {
      EXPECT_EQ(topo.adjacent(a, b), a != b);
    }
  }
  EXPECT_TRUE(topo.is_connected());
}

TEST(Topology, RingIsTwoRegularAndConnected) {
  const Topology topo = Topology::ring(6);
  EXPECT_FALSE(topo.is_complete());
  EXPECT_EQ(topo.edge_count(), 6u);
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(topo.degree(id), 2u);
    EXPECT_TRUE(topo.adjacent(id, (id + 1) % 6));
    EXPECT_FALSE(topo.adjacent(id, (id + 3) % 6));
  }
  EXPECT_TRUE(topo.is_connected());
  EXPECT_THROW((void)Topology::ring(2), std::logic_error);
}

TEST(Topology, TorusIsFourRegularWhenBothDimensionsWrap) {
  const Topology topo = Topology::torus(3, 4);
  EXPECT_EQ(topo.n(), 12u);
  for (NodeId id = 0; id < 12; ++id) EXPECT_EQ(topo.degree(id), 4u);
  EXPECT_EQ(topo.edge_count(), 24u);
  EXPECT_TRUE(topo.is_connected());

  // Near-square auto-factorization: 12 -> 3 x 4.
  EXPECT_EQ(Topology::torus(12).edge_count(), 24u);
}

TEST(Topology, TorusAutoFactorizationIsNearSquareAndRejectsPrimes) {
  // torus(n) must pick rows <= cols with rows the LARGEST divisor <= sqrt(n)
  // — the most-square grid, never a degenerate 1 x n ring in disguise.
  for (const std::uint32_t n : {9u, 12u, 16u, 24u, 100u, 143u}) {
    const Topology topo = Topology::torus(n);
    EXPECT_EQ(topo.n(), n);
    EXPECT_TRUE(topo.is_connected());
    // Every node has degree 4 when both dimensions wrap with length >= 3;
    // a 2 x k grid double-links the vertical wrap, giving degree 3.
    for (NodeId id = 0; id < n; ++id) EXPECT_GE(topo.degree(id), 3u) << "n=" << n;
  }
  // 143 = 11 x 13: the near-square split of a semiprime, with rows <= cols
  // (node 0's wrap neighbors pin the factorization: right wrap at cols - 1,
  // down wrap at (rows - 1) * cols).
  const Topology semi = Topology::torus(143);
  EXPECT_EQ(semi.edge_count(), 2u * 143u);
  EXPECT_EQ(semi.neighbor_list(0), (std::vector<NodeId>{1, 12, 13, 130}));

  // Prime n has no grid at all — it used to silently degenerate to a 1 x n
  // ring, reporting "torus" scaling numbers that were really ring numbers.
  EXPECT_THROW((void)Topology::torus(7), std::logic_error);
  EXPECT_THROW((void)Topology::torus(101), std::logic_error);
  EXPECT_THROW((void)Topology::torus(99991), std::logic_error);
  // Tiny n where no proper grid exists are still accepted as rings so the
  // golden-scale specs (n <= 9) keep their historic shapes.
  EXPECT_EQ(Topology::torus(4).n(), 4u);
}

TEST(Topology, StarRoutesEverythingThroughTheHub) {
  const Topology topo = Topology::star(6);
  EXPECT_EQ(topo.degree(0), 5u);
  for (NodeId spoke = 1; spoke < 6; ++spoke) {
    EXPECT_EQ(topo.degree(spoke), 1u);
    EXPECT_TRUE(topo.adjacent(0, spoke));
    EXPECT_FALSE(topo.adjacent(spoke, spoke % 5 + 1));
  }
  EXPECT_TRUE(topo.is_connected());
}

TEST(Topology, GnpIsAPureFunctionOfItsSeed) {
  const Topology a = Topology::gnp(16, 0.4, 9);
  const Topology b = Topology::gnp(16, 0.4, 9);
  const Topology c = Topology::gnp(16, 0.4, 10);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId id = 0; id < 16; ++id) EXPECT_EQ(a.neighbor_list(id), b.neighbor_list(id));
  // A different seed draws a different graph (16 choose 2 coin flips at
  // p = 0.4 colliding entirely would be astronomically unlikely).
  bool differs = c.edge_count() != a.edge_count();
  for (NodeId id = 0; !differs && id < 16; ++id) {
    differs = a.neighbor_list(id) != c.neighbor_list(id);
  }
  EXPECT_TRUE(differs);
  EXPECT_THROW((void)Topology::gnp(8, 0.0, 1), std::logic_error);
  EXPECT_THROW((void)Topology::gnp(8, 1.5, 1), std::logic_error);
}

TEST(Topology, FromEdgesValidatesAndDetectsDisconnection) {
  const Topology path = Topology::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(path.is_connected());
  EXPECT_EQ(path.degree(1), 2u);

  const Topology split = Topology::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(split.is_connected());

  EXPECT_THROW((void)Topology::from_edges(3, {{0, 3}}), std::logic_error);  // range
  EXPECT_THROW((void)Topology::from_edges(3, {{1, 1}}), std::logic_error);  // loop
  EXPECT_THROW((void)Topology::from_edges(3, {{0, 1}, {1, 0}}), std::logic_error);  // dup
}

// --- Message-path behavior -------------------------------------------------

/// Broadcasts one message at t=1 and records everything it receives.
class PingProcess final : public Process {
 public:
  void on_start(Context& ctx) override { (void)ctx.set_timer_at_hardware(1.0); }
  void on_timer(Context& ctx, TimerId) override { ctx.broadcast(Message(InitMsg{1})); }
  void on_message(Context&, NodeId from, const Message&) override {
    heard_from.push_back(from);
  }

  std::vector<NodeId> heard_from;
};

struct Fleet {
  std::unique_ptr<Simulator> sim;
  std::vector<PingProcess*> procs;
};

Fleet build_fleet(std::uint32_t n, std::shared_ptr<const Topology> topo, std::uint64_t seed) {
  SimParams params;
  params.n = n;
  params.tdel = 0.01;
  params.seed = seed;
  params.topology = std::move(topo);
  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < n; ++i) clocks.emplace_back(0.0, 1.0);
  Fleet fleet;
  fleet.sim = std::make_unique<Simulator>(params, std::move(clocks),
                                          std::make_unique<UniformDelay>(0.0, 1.0), nullptr);
  for (NodeId id = 0; id < n; ++id) {
    auto proc = std::make_unique<PingProcess>();
    fleet.procs.push_back(proc.get());
    fleet.sim->set_process(id, std::move(proc));
  }
  return fleet;
}

TEST(TopologySimulator, NullAndExplicitCompleteTopologyAreBitIdentical) {
  // A null SimParams::topology makes the simulator install complete(n)
  // itself, so both fleets take the same code path — same RNG draws, same
  // event order, same counters.
  Fleet implicit = build_fleet(6, nullptr, 42);
  Fleet complete = build_fleet(6, std::make_shared<const Topology>(Topology::complete(6)), 42);
  implicit.sim->run_until(2.0);
  complete.sim->run_until(2.0);

  ASSERT_NE(implicit.sim->current_topology(), nullptr);
  EXPECT_TRUE(implicit.sim->current_topology()->is_complete());
  EXPECT_EQ(implicit.sim->current_topology()->n(), 6u);
  EXPECT_EQ(implicit.sim->events_dispatched(), complete.sim->events_dispatched());
  EXPECT_EQ(implicit.sim->counters().total_sent(), complete.sim->counters().total_sent());
  EXPECT_EQ(implicit.sim->counters().total_bytes(), complete.sim->counters().total_bytes());
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(implicit.procs[id]->heard_from, complete.procs[id]->heard_from);
  }
}

TEST(TopologySimulator, BroadcastReachesExactlySelfPlusNeighbors) {
  const auto topo = std::make_shared<const Topology>(Topology::ring(5));
  Fleet fleet = build_fleet(5, topo, 7);
  fleet.sim->run_until(2.0);

  for (NodeId id = 0; id < 5; ++id) {
    // Everyone broadcast once; node `id` hears itself plus its two ring
    // neighbors, and nobody else.
    std::set<NodeId> heard(fleet.procs[id]->heard_from.begin(),
                           fleet.procs[id]->heard_from.end());
    const std::set<NodeId> expected = {id, (id + 1) % 5, (id + 4) % 5};
    EXPECT_EQ(heard, expected) << "node " << id;
  }
  EXPECT_EQ(fleet.sim->messages_dropped(), 0u);
}

TEST(TopologySimulator, OffGraphUnicastIsDroppedAndCounted) {
  /// Unicasts to the opposite corner of a ring have no link to ride.
  class UnicastProcess final : public Process {
   public:
    void on_start(Context& ctx) override { (void)ctx.set_timer_at_hardware(1.0); }
    void on_timer(Context& ctx, TimerId) override { ctx.send(2, Message(InitMsg{1})); }
    void on_message(Context&, NodeId, const Message& m) override {
      received += std::holds_alternative<InitMsg>(m) ? 1 : 0;
    }
    int received = 0;
  };

  SimParams params;
  params.n = 4;
  params.tdel = 0.01;
  params.seed = 1;
  params.topology = std::make_shared<const Topology>(Topology::ring(4));
  std::vector<HardwareClock> clocks;
  for (int i = 0; i < 4; ++i) clocks.emplace_back(0.0, 1.0);
  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(0.5), nullptr);
  std::vector<UnicastProcess*> procs;
  for (NodeId id = 0; id < 4; ++id) {
    auto proc = std::make_unique<UnicastProcess>();
    procs.push_back(proc.get());
    sim.set_process(id, std::move(proc));
  }
  sim.run_until(2.0);

  // Senders 1 and 3 are ring-adjacent to node 2; senders 0 and 2 are not
  // (node 2's unicast to itself is local and always delivered).
  EXPECT_EQ(procs[2]->received, 3);
  EXPECT_EQ(sim.messages_dropped(), 1u);  // node 0's send had no link
}

// Breadth-first eccentricity sweep; n is small enough for the full O(n * E)
// scan.
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
          const NodeId b = nbrs[i];
          if (dist[b] == UINT32_MAX) {
            dist[b] = dist[a] + 1;
            next.push_back(b);
          }
        }
      }
      frontier = std::move(next);
    }
    for (const std::uint32_t d : dist) diameter = std::max(diameter, d);
  }
  return diameter;
}

TEST(Topology, ExpanderIsDeterministicPerSeed) {
  const Topology a = Topology::expander(64, 8, 42);
  const Topology b = Topology::expander(64, 8, 42);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  bool differs_from_reseed = false;
  const Topology c = Topology::expander(64, 8, 43);
  for (NodeId x = 0; x < 64; ++x) {
    for (NodeId y = 0; y < 64; ++y) {
      EXPECT_EQ(a.adjacent(x, y), b.adjacent(x, y));
      differs_from_reseed |= a.adjacent(x, y) != c.adjacent(x, y);
    }
  }
  // 64 choose 2 pairs and two independent 4-cycle unions: a collision would
  // mean the seed never reached the shuffles.
  EXPECT_TRUE(differs_from_reseed);
}

TEST(Topology, ExpanderDegreeAndConnectivityBounds) {
  // The union of k/2 Hamiltonian cycles: every node keeps at least its two
  // cycle neighbors from one cycle and at most k total (duplicate edges
  // across cycles merge), and the first cycle alone already connects the
  // graph.
  for (const std::uint32_t k : {2u, 8u, 16u}) {
    const Topology topo = Topology::expander(100, k, 7);
    EXPECT_TRUE(topo.is_connected());
    EXPECT_FALSE(topo.is_complete());
    for (NodeId id = 0; id < 100; ++id) {
      EXPECT_GE(topo.degree(id), 2u);
      EXPECT_LE(topo.degree(id), k);
    }
  }
}

TEST(Topology, ExpanderSpectralGapIsPinnedDirectly) {
  // The real expander certificate, replacing the old BFS-diameter proxy:
  // power-iterate |lambda_2| of the normalized adjacency. Random unions of
  // k/2 Hamiltonian cycles sit near the Ramanujan bound 2*sqrt(k-1)/k
  // (~0.66 at k=8); 0.8 leaves seed-to-seed slack while still failing any
  // lattice-like generator regression, whose gap vanishes as n grows. The
  // diameter bound follows from the gap, so this assertion is strictly
  // stronger than the one it replaces.
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const Topology topo = Topology::expander(512, 8, seed);
    const double l2 = topo.normalized_lambda2(/*iters=*/200, /*seed=*/99);
    EXPECT_LE(l2, 0.8) << "seed " << seed;
    EXPECT_GT(l2, 0.0) << "seed " << seed;
    // Diameter sanity retained: a genuine gap of this size forces
    // logarithmic diameter, so the old proxy must keep holding too.
    const double log_bound = std::log(512.0) / std::log(8.0 - 1.0);
    EXPECT_LE(bfs_diameter(topo), static_cast<std::uint32_t>(2 * log_bound + 4))
        << "seed " << seed;
  }
}

TEST(Topology, SpectralGapSeparatesExpanderFromRing) {
  // The contrast that makes the metric meaningful: the 512-ring's normalized
  // lambda_2 is cos(2*pi/512) ~ 0.99992 — essentially no gap — while the
  // k=8 expander above sits below 0.8. Also pins determinism: same
  // (graph, iters, seed) must reproduce the estimate exactly.
  const Topology ring = Topology::ring(512);
  const double ring_l2 = ring.normalized_lambda2(/*iters=*/200, /*seed=*/99);
  EXPECT_GE(ring_l2, 0.9);
  EXPECT_LE(ring_l2, 1.0 + 1e-9);

  const Topology exp8 = Topology::expander(512, 8, 1);
  const double a = exp8.normalized_lambda2(/*iters=*/200, /*seed=*/99);
  const double b = exp8.normalized_lambda2(/*iters=*/200, /*seed=*/99);
  EXPECT_EQ(a, b);
  EXPECT_LT(a, ring_l2);

  // The complete family has no CSR rows to iterate; the call must refuse.
  const Topology full = Topology::complete(16);
  EXPECT_THROW((void)full.normalized_lambda2(10, 1), std::logic_error);
}

TEST(Topology, ExpanderRejectsDegenerateDegrees) {
  EXPECT_THROW((void)Topology::expander(10, 3, 1), std::logic_error);   // odd k
  EXPECT_THROW((void)Topology::expander(10, 0, 1), std::logic_error);   // k < 2
  EXPECT_THROW((void)Topology::expander(10, 10, 1), std::logic_error);  // k >= n
  EXPECT_THROW((void)Topology::expander(2, 2, 1), std::logic_error);    // n < 3
}

TEST(TopologySimulator, TopologySizeMustMatchFleetSize) {
  SimParams params;
  params.n = 4;
  params.tdel = 0.01;
  params.topology = std::make_shared<const Topology>(Topology::ring(5));
  std::vector<HardwareClock> clocks;
  for (int i = 0; i < 4; ++i) clocks.emplace_back(0.0, 1.0);
  EXPECT_THROW(Simulator(params, std::move(clocks), std::make_unique<FixedDelay>(0.5), nullptr),
               std::logic_error);
}

}  // namespace
}  // namespace stclock
