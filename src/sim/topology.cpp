#include "sim/topology.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"
#include "util/rng.h"

namespace stclock {

Topology::Topology(TopologyKind kind, std::uint32_t n) : kind_(kind), n_(n) {
  ST_REQUIRE(n > 0, "Topology: need at least one node");
}

void Topology::add_edge(NodeId a, NodeId b) {
  ST_REQUIRE(a < n_ && b < n_, "Topology: edge endpoint out of range");
  ST_REQUIRE(a != b, "Topology: self-loops are not links");
  staged_.push_back({a, b});
  ++edge_count_;
}

void Topology::finalize() {
  ST_ASSERT(kind_ != TopologyKind::kComplete, "Topology: complete stores no adjacency");
  // Counting sort the staged edge list into CSR rows: one pass to count
  // degrees, one to scatter both directions, then a per-row sort. O(n + E)
  // plus the sort, and the only transient allocation is the staged list.
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [a, b] : staged_) {
    ++offsets_[static_cast<std::size_t>(a) + 1];
    ++offsets_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t id = 0; id < n_; ++id) offsets_[id + 1] += offsets_[id];
  nbrs_.resize(offsets_[n_]);
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [a, b] : staged_) {
    nbrs_[cursor[a]++] = b;
    nbrs_[cursor[b]++] = a;
  }
  staged_.clear();
  staged_.shrink_to_fit();
  for (NodeId id = 0; id < n_; ++id) {
    const auto row_begin = nbrs_.begin() + static_cast<std::ptrdiff_t>(offsets_[id]);
    const auto row_end = nbrs_.begin() + static_cast<std::ptrdiff_t>(offsets_[id + 1]);
    std::sort(row_begin, row_end);
    ST_REQUIRE(std::adjacent_find(row_begin, row_end) == row_end,
               "Topology: duplicate edge");
  }
}

bool Topology::adjacent(NodeId a, NodeId b) const {
  ST_REQUIRE(a < n_ && b < n_, "Topology::adjacent: node id out of range");
  if (kind_ == TopologyKind::kComplete) return a != b;
  const NodeId* begin = nbrs_.data() + offsets_[a];
  const NodeId* end = nbrs_.data() + offsets_[static_cast<std::size_t>(a) + 1];
  return std::binary_search(begin, end, b);
}

NeighborRange Topology::neighbors(NodeId id) const {
  ST_REQUIRE(id < n_, "Topology::neighbors: node id out of range");
  if (kind_ == TopologyKind::kComplete) return NeighborRange(n_, id);
  const NodeId* base = nbrs_.data();
  return NeighborRange(base + offsets_[id], base + offsets_[static_cast<std::size_t>(id) + 1]);
}

std::pair<const NodeId*, std::size_t> Topology::neighbor_span(NodeId id) const {
  ST_REQUIRE(id < n_, "Topology::neighbor_span: node id out of range");
  ST_REQUIRE(kind_ != TopologyKind::kComplete,
             "Topology::neighbor_span: complete neighbors are implicit (branch on "
             "is_complete first)");
  const std::uint64_t begin = offsets_[id];
  return {nbrs_.data() + begin, offsets_[static_cast<std::size_t>(id) + 1] - begin};
}

std::vector<NodeId> Topology::neighbor_list(NodeId id) const {
  const NeighborRange range = neighbors(id);
  std::vector<NodeId> out;
  out.reserve(range.size());
  for (const NodeId b : range) out.push_back(b);
  return out;
}

std::size_t Topology::degree(NodeId id) const {
  ST_REQUIRE(id < n_, "Topology::degree: node id out of range");
  if (kind_ == TopologyKind::kComplete) return n_ - 1;
  return offsets_[static_cast<std::size_t>(id) + 1] - offsets_[id];
}

bool Topology::is_connected() const {
  if (kind_ == TopologyKind::kComplete) return true;
  std::vector<bool> seen(n_, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::uint32_t reached = 1;
  while (!stack.empty()) {
    const NodeId at = stack.back();
    stack.pop_back();
    for (std::uint64_t i = offsets_[at]; i < offsets_[static_cast<std::size_t>(at) + 1]; ++i) {
      const NodeId next = nbrs_[i];
      if (!seen[next]) {
        seen[next] = true;
        ++reached;
        stack.push_back(next);
      }
    }
  }
  return reached == n_;
}

double Topology::normalized_lambda2(std::uint32_t iters, std::uint64_t seed) const {
  ST_REQUIRE(kind_ != TopologyKind::kComplete,
             "Topology::normalized_lambda2: the complete family stores no CSR "
             "rows (its normalized spectrum is -1/(n-1) repeated anyway)");
  ST_REQUIRE(n_ >= 2, "Topology::normalized_lambda2: need at least two nodes");
  ST_REQUIRE(iters >= 1, "Topology::normalized_lambda2: need at least one iteration");

  // inv_root[i] = 1/sqrt(deg_i); v1 (the eigenvalue-1 eigenvector of the
  // normalized adjacency) is sqrt(deg) normalized. Zero-degree nodes sit
  // outside the walk entirely — both vectors hold 0 there.
  std::vector<double> inv_root(n_, 0.0), v1(n_, 0.0);
  double v1_norm2 = 0;
  for (NodeId i = 0; i < n_; ++i) {
    const auto d = static_cast<double>(degree(i));
    if (d > 0) {
      inv_root[i] = 1.0 / std::sqrt(d);
      v1[i] = std::sqrt(d);
      v1_norm2 += d;
    }
  }
  ST_REQUIRE(v1_norm2 > 0, "Topology::normalized_lambda2: graph has no edges");
  const double v1_inv_norm = 1.0 / std::sqrt(v1_norm2);
  for (NodeId i = 0; i < n_; ++i) v1[i] *= v1_inv_norm;

  const auto deflate = [&](std::vector<double>& x) {
    double dot = 0;
    for (NodeId i = 0; i < n_; ++i) dot += v1[i] * x[i];
    for (NodeId i = 0; i < n_; ++i) x[i] -= dot * v1[i];
  };
  const auto normalize = [&](std::vector<double>& x) -> double {
    double norm2 = 0;
    for (NodeId i = 0; i < n_; ++i) norm2 += x[i] * x[i];
    const double norm = std::sqrt(norm2);
    if (norm > 0) {
      const double inv = 1.0 / norm;
      for (NodeId i = 0; i < n_; ++i) x[i] *= inv;
    }
    return norm;
  };

  Rng rng(seed);
  std::vector<double> x(n_), y(n_), w(n_);
  for (NodeId i = 0; i < n_; ++i) x[i] = rng.uniform(-1.0, 1.0);
  deflate(x);
  if (normalize(x) == 0) return 0;  // start vector was (numerically) all v1

  // Power iteration on the deflated operator: after enough rounds ||Mx||
  // converges to the largest REMAINING eigenvalue magnitude — which is
  // |lambda_2| whether the extreme eigenvalue is positive or negative
  // (bipartite-leaning graphs put it near -1).
  double lambda = 0;
  for (std::uint32_t it = 0; it < iters; ++it) {
    for (NodeId i = 0; i < n_; ++i) w[i] = x[i] * inv_root[i];
    for (NodeId i = 0; i < n_; ++i) {
      double acc = 0;
      for (std::uint64_t e = offsets_[i]; e < offsets_[static_cast<std::size_t>(i) + 1];
           ++e) {
        acc += w[nbrs_[e]];
      }
      y[i] = acc * inv_root[i];
    }
    deflate(y);  // re-deflate every round so rounding error cannot regrow v1
    lambda = normalize(y);
    if (lambda == 0) return 0;  // x was (numerically) in v1's span: gap is total
    x.swap(y);
  }
  return lambda;
}

std::size_t Topology::memory_bytes() const {
  return offsets_.capacity() * sizeof(std::uint64_t) + nbrs_.capacity() * sizeof(NodeId) +
         staged_.capacity() * sizeof(std::pair<NodeId, NodeId>);
}

Topology Topology::complete(std::uint32_t n) {
  Topology topo(TopologyKind::kComplete, n);
  topo.edge_count_ = static_cast<std::size_t>(n) * (n - 1) / 2;
  return topo;
}

Topology Topology::ring(std::uint32_t n) {
  ST_REQUIRE(n >= 3, "Topology::ring: need n >= 3 (use complete for smaller fleets)");
  Topology topo(TopologyKind::kRing, n);
  topo.staged_.reserve(n);
  for (NodeId a = 0; a < n; ++a) topo.add_edge(a, (a + 1) % n);
  topo.finalize();
  return topo;
}

Topology Topology::torus(std::uint32_t rows, std::uint32_t cols) {
  ST_REQUIRE(rows >= 1 && cols >= 1, "Topology::torus: need positive dimensions");
  const std::uint32_t n = rows * cols;
  ST_REQUIRE(n >= 3, "Topology::torus: need at least 3 nodes");
  Topology topo(TopologyKind::kTorus, n);
  topo.staged_.reserve(static_cast<std::size_t>(n) * 2);
  const auto at = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      // Right and down wraparound links cover every edge exactly once;
      // dimensions of size <= 2 would duplicate them, so guard each.
      if (cols > 2 || c + 1 < cols) topo.add_edge(at(r, c), at(r, (c + 1) % cols));
      if (rows > 2 || r + 1 < rows) topo.add_edge(at(r, c), at((r + 1) % rows, c));
    }
  }
  topo.finalize();
  return topo;
}

Topology Topology::torus(std::uint32_t n) {
  std::uint32_t rows = 1;
  for (std::uint32_t d = 1; static_cast<std::uint64_t>(d) * d <= n; ++d) {
    if (n % d == 0) rows = d;
  }
  // A prime n has no divisor in (1, sqrt(n)], so the "near-square" grid
  // would silently degenerate to a 1 x n ring — reject it instead of
  // handing back a graph with the wrong diameter and degree. (n = 3 is the
  // 3-ring under either reading and stays accepted.)
  ST_REQUIRE(rows > 1 || n < 5,
             "Topology::torus(n): prime n has no near-square grid (use torus(rows, "
             "cols) or a composite n)");
  return torus(rows, n / rows);
}

Topology Topology::star(std::uint32_t n) {
  ST_REQUIRE(n >= 2, "Topology::star: need a hub and at least one spoke");
  Topology topo(TopologyKind::kStar, n);
  topo.staged_.reserve(n - 1);
  for (NodeId spoke = 1; spoke < n; ++spoke) topo.add_edge(0, spoke);
  topo.finalize();
  return topo;
}

Topology Topology::gnp(std::uint32_t n, double p, std::uint64_t seed) {
  ST_REQUIRE(p > 0 && p <= 1, "Topology::gnp: need edge probability in (0, 1]");
  Topology topo(TopologyKind::kGnp, n);
  Rng rng(seed);
  if (n < kGnpFastMinN || p >= 1.0) {
    // Legacy mapping: one bernoulli per pair in lexicographic order. Every
    // golden spec sits in this regime, so their graphs stay bit-identical.
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(p)) topo.add_edge(a, b);
      }
    }
  } else {
    // Geometric skipping over the same lexicographic pair sequence: each
    // draw jumps the gap to the next present edge (skip distribution
    // Geometric(p)), so construction is O(n + E) instead of O(n^2) pair
    // draws. Still a pure function of (n, p, seed) — but a DIFFERENT
    // function than the per-pair walk, which is why the engine fingerprint
    // was bumped alongside this path.
    const double log1mp = std::log1p(-p);
    NodeId a = 0, b = 1;
    std::uint64_t left_in_row = n - 1;  // pairs remaining at or after (a, b)
    while (a + 1 < n) {
      const double u = rng.next_double();
      // u extremely close to 1 can push the quotient past 2^64 — casting
      // that double is UB. Total pairs never exceed n^2 < 2^63, so any skip
      // clamped to 2^63 drains the remaining rows and ends the walk.
      const double raw = std::floor(std::log1p(-u) / log1mp);
      std::uint64_t skip = raw < 9.0e18 ? static_cast<std::uint64_t>(raw)
                                        : std::uint64_t{1} << 63;
      while (a + 1 < n && skip >= left_in_row) {
        skip -= left_in_row;
        ++a;
        b = a + 1;
        left_in_row = n - b;
      }
      if (a + 1 >= n) break;
      b += static_cast<NodeId>(skip);
      left_in_row -= skip;
      topo.add_edge(a, b);
      // Step past the edge just placed.
      ++b;
      --left_in_row;
      if (left_in_row == 0) {
        ++a;
        b = a + 1;
        left_in_row = a + 1 < n ? n - b : 0;
      }
    }
  }
  topo.finalize();
  return topo;
}

Topology Topology::expander(std::uint32_t n, std::uint32_t k, std::uint64_t seed) {
  ST_REQUIRE(k >= 2 && k % 2 == 0,
             "Topology::expander: degree k must be even and >= 2 (the generator "
             "unions k/2 Hamiltonian cycles)");
  ST_REQUIRE(k < n, "Topology::expander: need k < n (use complete for denser fleets)");
  ST_REQUIRE(n >= 3, "Topology::expander: need n >= 3");
  Topology topo(TopologyKind::kExpander, n);
  Rng rng(seed);
  std::vector<NodeId> perm(n);
  topo.staged_.reserve(static_cast<std::size_t>(n) * (k / 2));
  for (std::uint32_t cycle = 0; cycle < k / 2; ++cycle) {
    for (NodeId id = 0; id < n; ++id) perm[id] = id;
    rng.shuffle(perm);
    for (std::uint32_t i = 0; i < n; ++i) {
      topo.add_edge(perm[i], perm[(i + 1) % n]);
    }
  }
  // Distinct cycles can land on the same pair; finalize() rejects duplicate
  // edges, so normalize and deduplicate the staged list first. Within one
  // cycle all n edges are distinct (n >= 3), so only cross-cycle collisions
  // are dropped — each node keeps at least its two cycle-0 links.
  for (auto& [a, b] : topo.staged_) {
    if (a > b) std::swap(a, b);
  }
  std::sort(topo.staged_.begin(), topo.staged_.end());
  topo.staged_.erase(std::unique(topo.staged_.begin(), topo.staged_.end()),
                     topo.staged_.end());
  topo.edge_count_ = topo.staged_.size();
  topo.finalize();
  ST_ASSERT(topo.is_connected(), "Topology::expander: Hamiltonian union must connect");
  return topo;
}

Topology Topology::from_edges(std::uint32_t n,
                              const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Topology topo(TopologyKind::kCustom, n);
  topo.staged_.reserve(edges.size());
  for (const auto& [a, b] : edges) topo.add_edge(a, b);
  topo.finalize();  // rejects duplicates
  return topo;
}

}  // namespace stclock
