#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.h"

/// Network topology: which pairs of nodes share a link.
///
/// The paper's model is one fully connected system — every process hears
/// every broadcast directly — and `Topology::complete(n)` is that graph. The
/// simulator always runs on a `Topology`: when SimParams leaves it null, the
/// constructor installs complete(n). The most-cited follow-on work (gradient
/// clock synchronization on dynamic networks, ad hoc timepiece networks)
/// studies synchronization on *general* graphs, where a broadcast reaches
/// only the sender's neighbors and the figure of merit becomes the *local*
/// skew between adjacent nodes. So the simulator fans broadcasts out over
/// neighbors, delay policies may key on links, and the trace layer measures
/// skew over adjacent pairs.
///
/// Graphs are undirected and simple (no self-loops, no parallel edges);
/// neighbor iteration is sorted ascending, so the event-queue insertion
/// order that breaks delivery ties is deterministic.
///
/// Storage is CSR: one offsets array (n + 1 entries) plus one flat
/// sorted-neighbor array (2E entries), ~8 bytes per node plus 4 bytes per
/// directed edge, and nothing quadratic in n. `adjacent()` binary-searches
/// the CSR row. The complete family stores NO adjacency at all — neighbors
/// are implicit (every id but self), `adjacent()` is a kind check, and the
/// message hot path keeps the all-pairs fan-out loop.
namespace stclock {

class Rng;

/// Built-in generator families (scenario files select these by name).
enum class TopologyKind : std::uint8_t {
  kComplete,  ///< every pair linked (the paper's implicit topology)
  kRing,      ///< cycle 0-1-...-n-1-0
  kTorus,     ///< near-square rows x cols grid with wraparound
  kStar,      ///< hub node 0 linked to every spoke
  kGnp,       ///< Erdos-Renyi G(n, p), seeded; may be disconnected
  kExpander,  ///< seeded k-regular expander (union of k/2 random Hamiltonian cycles)
  kCustom,    ///< arbitrary edge list (from_edges); not a scenario-file kind
};

/// Every kind's spelling. Scenario files accept all but the last: kCustom
/// is printable (Topology::name) but only code builds one.
inline constexpr EnumName<TopologyKind> kTopologyKindNames[] = {
    {"complete", TopologyKind::kComplete}, {"ring", TopologyKind::kRing},
    {"torus", TopologyKind::kTorus},       {"star", TopologyKind::kStar},
    {"gnp", TopologyKind::kGnp},           {"expander", TopologyKind::kExpander},
    {"custom", TopologyKind::kCustom},
};

[[nodiscard]] inline const char* topology_kind_name(TopologyKind kind) {
  return enum_name(kTopologyKindNames, kind);
}

/// A lazily-iterated, sorted-ascending view of one node's neighbors. Backed
/// either by a CSR row (pointer range) or, for the complete family, by the
/// implicit sequence 0..n-1 minus self — so iterating a complete node's
/// neighborhood allocates nothing and the graph itself stores nothing.
class NeighborRange {
 public:
  class iterator {
   public:
    using value_type = NodeId;

    [[nodiscard]] NodeId operator*() const { return ptr_ != nullptr ? *ptr_ : cur_; }
    iterator& operator++() {
      if (ptr_ != nullptr) {
        ++ptr_;
      } else {
        ++cur_;
        if (cur_ == skip_) ++cur_;
      }
      return *this;
    }
    [[nodiscard]] bool operator==(const iterator& o) const {
      return ptr_ != nullptr ? ptr_ == o.ptr_ : cur_ == o.cur_;
    }
    [[nodiscard]] bool operator!=(const iterator& o) const { return !(*this == o); }

   private:
    friend class NeighborRange;
    iterator(const NodeId* ptr, NodeId cur, NodeId skip)
        : ptr_(ptr), cur_(cur), skip_(skip) {}

    const NodeId* ptr_;  ///< CSR mode when non-null; implicit mode otherwise
    NodeId cur_;
    NodeId skip_;
  };

  [[nodiscard]] iterator begin() const {
    if (csr_begin_ != nullptr) return iterator(csr_begin_, 0, 0);
    const NodeId first = skip_ == 0 ? 1 : 0;
    return iterator(nullptr, first, skip_);
  }
  [[nodiscard]] iterator end() const {
    if (csr_begin_ != nullptr) return iterator(csr_end_, 0, 0);
    // The implicit walk skips `skip_`, so it exits at n even when self is
    // the last id.
    return iterator(nullptr, n_, skip_);
  }
  [[nodiscard]] std::size_t size() const {
    if (csr_begin_ != nullptr) return static_cast<std::size_t>(csr_end_ - csr_begin_);
    return n_ > 0 ? n_ - 1 : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  friend class Topology;
  NeighborRange(const NodeId* begin, const NodeId* end)
      : csr_begin_(begin), csr_end_(end) {}
  NeighborRange(NodeId n, NodeId skip) : n_(n), skip_(skip) {}

  const NodeId* csr_begin_ = nullptr;
  const NodeId* csr_end_ = nullptr;
  NodeId n_ = 0;
  NodeId skip_ = 0;
};

class Topology {
 public:
  /// Smallest n at which gnp() switches from the legacy per-pair bernoulli
  /// walk to geometric skipping. Below it (every golden spec lives there)
  /// the seed -> graph mapping is bit-identical to the original generator;
  /// at or above it the mapping is new, covered by the engine fingerprint
  /// bump so cached sweep results stay honest.
  static constexpr std::uint32_t kGnpFastMinN = 4096;

  /// Every pair of distinct nodes linked. Stores no adjacency — neighbors
  /// are implicit and the message path keeps the legacy all-pairs fan-out.
  [[nodiscard]] static Topology complete(std::uint32_t n);

  /// Cycle: node i linked to (i±1) mod n. Requires n >= 3 (a 2-ring would
  /// need a parallel edge; use complete(2) instead).
  [[nodiscard]] static Topology ring(std::uint32_t n);

  /// rows x cols grid with wraparound in both dimensions, nodes numbered
  /// row-major. Degenerate 1 x n and 2 x n shapes collapse to a ring /
  /// ladder without parallel edges. Requires rows * cols == n.
  [[nodiscard]] static Topology torus(std::uint32_t rows, std::uint32_t cols);

  /// Near-square torus: rows = the largest divisor of n that is <= sqrt(n),
  /// so rows <= cols always. Rejects prime n >= 5, which has no non-trivial
  /// factorization and would silently degenerate to a 1 x n ring; pass an
  /// explicit rows x cols or pick a composite n instead. (n = 3 stays legal
  /// for backward compatibility: it is the 3-ring either way.)
  [[nodiscard]] static Topology torus(std::uint32_t n);

  /// Hub-and-spoke: node 0 linked to every other node.
  [[nodiscard]] static Topology star(std::uint32_t n);

  /// Erdos-Renyi G(n, p): each pair {i, j} linked independently with
  /// probability p, drawn from a generator seeded with `seed` (the draw
  /// order is fixed, so the graph is a pure function of (n, p, seed)).
  /// For n < kGnpFastMinN every pair draws one bernoulli (the original
  /// mapping); for larger n the generator geometrically skips over absent
  /// edges, so construction is O(n + E) instead of O(n^2).
  /// May be disconnected — callers that need liveness should check
  /// is_connected() (the scenario validator does).
  [[nodiscard]] static Topology gnp(std::uint32_t n, double p, std::uint64_t seed);

  /// Seeded k-regular expander: the union of k/2 independent random
  /// Hamiltonian cycles (each a seeded Fisher-Yates permutation closed into
  /// a cycle). Connected by construction — cycle 0 alone visits every node —
  /// with degree at most k (coinciding cross-cycle edges are deduplicated,
  /// so a node's degree can dip below k; at k << n collisions are rare) and
  /// at least 2. Random regular-ish graphs of this family are expanders with
  /// overwhelming probability: diameter O(log n / log k), which the test
  /// suite asserts as a BFS-diameter spectral-gap proxy. Pure function of
  /// (n, k, seed). Requires even k with 2 <= k < n.
  ///
  /// This is the sparse broadcast fabric for the paper's complete-graph
  /// protocols: a round of `auth` costs O(n*k) messages over it instead of
  /// O(n^2) (see BroadcastMode in sim/broadcast_mode.h).
  [[nodiscard]] static Topology expander(std::uint32_t n, std::uint32_t k,
                                         std::uint64_t seed);

  /// Arbitrary undirected edge list (tests and custom scenarios). Rejects
  /// out-of-range endpoints, self-loops, and duplicate edges.
  [[nodiscard]] static Topology from_edges(std::uint32_t n,
                                           const std::vector<std::pair<NodeId, NodeId>>& edges);

  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] const char* name() const { return topology_kind_name(kind_); }

  /// True for the complete family: the hot path uses this to skip adjacency
  /// lookups entirely and keep the legacy broadcast loop.
  [[nodiscard]] bool is_complete() const { return kind_ == TopologyKind::kComplete; }

  /// O(1) for complete, O(log degree) otherwise. False for a == b (no
  /// self-loops).
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const;

  /// Sorted ascending. Valid for every kind; for complete the range is
  /// implicit (nothing is stored or allocated).
  [[nodiscard]] NeighborRange neighbors(NodeId id) const;

  /// The CSR row as a raw span — the zero-overhead form hot loops want.
  /// Not valid for the complete family (which stores no rows); those call
  /// sites branch on is_complete() first.
  [[nodiscard]] std::pair<const NodeId*, std::size_t> neighbor_span(NodeId id) const;

  /// Materialized copy, for tests and diagnostics that want vector
  /// semantics (equality, indexing). O(degree) allocation — not a hot path.
  [[nodiscard]] std::vector<NodeId> neighbor_list(NodeId id) const;

  [[nodiscard]] std::size_t degree(NodeId id) const;

  /// Undirected edge count.
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// BFS from node 0; a single node counts as connected. O(1) for complete.
  [[nodiscard]] bool is_connected() const;

  /// |lambda_2| of the normalized adjacency D^{-1/2} A D^{-1/2}, estimated by
  /// `iters` rounds of power iteration with the principal eigenvector
  /// (proportional to sqrt(degree), eigenvalue exactly 1) deflated out each
  /// step. This is the expander mixing quantity itself — small |lambda_2|
  /// IS a spectral gap — where the BFS diameter the tests previously
  /// asserted on is only a coarse proxy (a graph can have logarithmic
  /// diameter and still mix slowly). Deterministic: the start vector comes
  /// from a generator seeded with `seed`. O(iters * (n + E)); zero-degree
  /// nodes contribute nothing. Not valid for the complete family (whose
  /// normalized spectrum is known: -1/(n-1) repeated).
  [[nodiscard]] double normalized_lambda2(std::uint32_t iters, std::uint64_t seed) const;

  /// Bytes of adjacency storage actually held (the CSR arrays). The
  /// memory-ceiling tests assert on this instead of process RSS, which is
  /// noisy under a test runner.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  Topology(TopologyKind kind, std::uint32_t n);

  /// Stages an undirected edge; storage is built by finalize().
  void add_edge(NodeId a, NodeId b);
  /// Counting-sorts the staged edges into CSR rows (each sorted ascending,
  /// duplicates rejected).
  void finalize();

  TopologyKind kind_ = TopologyKind::kComplete;
  std::uint32_t n_ = 0;
  std::size_t edge_count_ = 0;
  /// Staged edges between add_edge and finalize; cleared by finalize.
  std::vector<std::pair<NodeId, NodeId>> staged_;
  /// CSR: row id spans nbrs_[offsets_[id] .. offsets_[id + 1]). Empty for
  /// complete (implicit neighbors).
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> nbrs_;
};

}  // namespace stclock
