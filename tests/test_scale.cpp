#include <gtest/gtest.h>

#include <cstdint>

#include "sim/topology.h"

/// Scale guarantees of the sparse-first topology representation. The old
/// n x n bitset cost n^2/8 bytes no matter how sparse the graph — 1.25 GB
/// for a ring at n = 10^5, which is why million-node sweeps were impossible.
/// CSR stores O(n + E): these tests pin hard memory ceilings at n = 10^5 so
/// a representation regression fails loudly instead of silently OOMing the
/// scale sweeps.
namespace stclock {
namespace {

constexpr std::uint32_t kN = 100000;

TEST(TopologyScale, RingAtHundredThousandNodesStaysUnderThreeMegabytes) {
  const Topology topo = Topology::ring(kN);
  EXPECT_EQ(topo.edge_count(), kN);
  EXPECT_TRUE(topo.is_connected());
  // CSR: (n + 1) 8-byte offsets + 2E 4-byte neighbor ids ~ 1.6 MB. The old
  // bitset alone would have been 1.25 GB.
  EXPECT_LT(topo.memory_bytes(), 3u << 20);
}

TEST(TopologyScale, TorusAtHundredThousandNodesStaysUnderFiveMegabytes) {
  const Topology topo = Topology::torus(kN);  // 100000 = 250 x 400
  EXPECT_EQ(topo.edge_count(), 2u * kN);
  EXPECT_TRUE(topo.is_connected());
  for (NodeId id = 0; id < kN; id += 9973) EXPECT_EQ(topo.degree(id), 4u);
  EXPECT_LT(topo.memory_bytes(), 5u << 20);
}

TEST(TopologyScale, SparseGnpAtHundredThousandNodesStaysUnderTenMegabytes) {
  // p = 2e-4 over ~5e9 pairs: ~1e6 expected edges. The geometric-skipping
  // generator touches only present edges, so this builds in milliseconds
  // where the per-pair walk would draw five billion bernoullis.
  const Topology topo = Topology::gnp(kN, 2e-4, 17);
  const double expected = 2e-4 * (static_cast<double>(kN) * (kN - 1) / 2.0);
  EXPECT_GT(static_cast<double>(topo.edge_count()), 0.9 * expected);
  EXPECT_LT(static_cast<double>(topo.edge_count()), 1.1 * expected);
  EXPECT_LT(topo.memory_bytes(), 10u << 20);
}

TEST(TopologyScale, CompleteStoresNoAdjacencyAtAll) {
  // Complete graphs answer adjacent()/neighbors() implicitly; at any n the
  // representation is a couple of scalars.
  const Topology topo = Topology::complete(1000000);
  EXPECT_EQ(topo.edge_count(), 1000000ull * 999999ull / 2);
  EXPECT_TRUE(topo.adjacent(0, 999999));
  EXPECT_FALSE(topo.adjacent(42, 42));
  EXPECT_EQ(topo.degree(7), 999999u);
  EXPECT_LT(topo.memory_bytes(), 1024u);
}

TEST(TopologyScale, SmallGraphsStoreOnlyLinearAdjacency) {
  // Small sparse graphs hold the same O(n + E) CSR rows as large ones; an
  // n x n bitset at n = 2048 alone would be 512 KiB.
  const Topology ring = Topology::ring(2048);
  EXPECT_TRUE(ring.adjacent(0, 1));
  EXPECT_TRUE(ring.adjacent(0, 2047));
  EXPECT_FALSE(ring.adjacent(0, 1024));
  EXPECT_LT(ring.memory_bytes(), 256u << 10);

  const Topology expander = Topology::expander(2048, 16, 5);
  for (NodeId a = 0; a < 2048; a += 97) {
    for (const NodeId b : expander.neighbors(a)) EXPECT_TRUE(expander.adjacent(a, b));
  }
  EXPECT_LT(expander.memory_bytes(), 256u << 10);
}

TEST(TopologyScale, GnpFastPathIsAPureFunctionOfItsSeed) {
  const Topology a = Topology::gnp(5000, 1e-3, 23);
  const Topology b = Topology::gnp(5000, 1e-3, 23);
  const Topology c = Topology::gnp(5000, 1e-3, 24);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId id = 0; id < 5000; id += 13) {
    ASSERT_EQ(a.neighbor_list(id), b.neighbor_list(id)) << "node " << id;
  }
  EXPECT_NE(a.edge_count(), c.edge_count());  // ~12.5k expected edges: a
                                              // collision is astronomically
                                              // unlikely
}

TEST(TopologyScale, GnpBelowTheFastPathThresholdKeepsTheLegacyMapping) {
  // Graphs below kGnpFastMinN must keep drawing one bernoulli per pair in
  // lexicographic order — the exact mapping every golden gnp row was
  // recorded under. This pins one seeded instance completely; if the
  // generator's small-n branch ever changes, this fails before the golden
  // suite does.
  const Topology topo = Topology::gnp(16, 0.4, 9);
  EXPECT_EQ(topo.edge_count(), 53u);
  EXPECT_EQ(topo.neighbor_list(0), (std::vector<NodeId>{1, 2, 3, 9, 13}));
}

}  // namespace
}  // namespace stclock
