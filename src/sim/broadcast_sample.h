#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

/// The sampling kernel for the sampled broadcast mode.
///
/// Floyd's algorithm serves every sample size m and every domain: the
/// implicit all-but-self domain of the complete graph and a CSR neighbor
/// row alike. It draws exactly m variates for a sample of size m — the
/// invariant the fabric's determinism rests on — and needs no mutable copy
/// of the domain. Each draw probes the picks so far, so a sample costs
/// O(m^2) probes; at the fabric's sample sizes (m = 8 and below in every
/// checked-in spec) that is a few cache lines.
namespace stclock::broadcast_sample {

/// Floyd's algorithm: appends `m` distinct indices in [0, domain_size) to
/// `out` (which it does not clear), drawing exactly `m` variates.
/// Requires m < domain_size and out empty on entry (out doubles as the
/// membership scratch).
inline void floyd_indices(Rng& rng, std::uint32_t domain_size, std::uint32_t m,
                          std::vector<NodeId>& out) {
  for (std::uint32_t j = domain_size - m; j < domain_size; ++j) {
    auto pick = static_cast<NodeId>(rng.uniform_int(0, j));
    if (std::find(out.begin(), out.end(), pick) != out.end()) pick = j;
    out.push_back(pick);
  }
}

}  // namespace stclock::broadcast_sample
