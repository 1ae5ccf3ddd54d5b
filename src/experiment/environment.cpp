#include "experiment/environment.h"

#include <utility>

#include "adversary/delay_policies.h"
#include "clocks/drift_models.h"
#include "util/contracts.h"

namespace stclock {

namespace experiment {

std::vector<HardwareClock> build_clock_fleet(DriftKind kind, std::uint32_t n, double rho,
                                             Duration initial_sync, RealTime horizon,
                                             Duration period, Rng& rng) {
  switch (kind) {
    case DriftKind::kNone: {
      std::vector<HardwareClock> fleet;
      fleet.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const LocalTime initial =
            n == 1 ? 0.0
                   : initial_sync * static_cast<double>(i) / static_cast<double>(n - 1);
        fleet.push_back(drift::constant(initial, 1.0));
      }
      return fleet;
    }
    case DriftKind::kRandomConstant: {
      std::vector<HardwareClock> fleet;
      fleet.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        fleet.push_back(drift::random_constant(rng, rho, initial_sync));
      }
      return fleet;
    }
    case DriftKind::kRandomWalk:
      return drift::random_fleet(rng, n, rho, initial_sync, horizon + 1.0, period);
    case DriftKind::kExtremal:
      return drift::adversarial_fleet(n, rho, initial_sync);
  }
  ST_ASSERT(false, "build_clock_fleet: unhandled drift kind");
  return {};
}

std::unique_ptr<DelayPolicy> build_delay_policy(DelayKind kind, std::uint32_t n,
                                                Duration period, std::uint64_t link_seed) {
  switch (kind) {
    case DelayKind::kZero: return std::make_unique<FixedDelay>(0.0);
    case DelayKind::kHalf: return std::make_unique<FixedDelay>(0.5);
    case DelayKind::kMax: return std::make_unique<FixedDelay>(1.0);
    case DelayKind::kUniform: return std::make_unique<UniformDelay>(0.0, 1.0);
    case DelayKind::kSplit: {
      std::vector<NodeId> slow;
      for (NodeId id = 1; id < n; id += 2) slow.push_back(id);
      return std::make_unique<SplitDelay>(std::move(slow));
    }
    case DelayKind::kAlternating: return std::make_unique<AlternatingDelay>(period);
    case DelayKind::kPerLink: return std::make_unique<LinkDelay>(0.0, 1.0, link_seed);
  }
  ST_ASSERT(false, "build_delay_policy: unhandled delay kind");
  return nullptr;
}

std::shared_ptr<const Topology> build_topology(TopologyKind kind, std::uint32_t n,
                                               double gnp_p, std::uint64_t seed,
                                               std::uint32_t expander_k) {
  switch (kind) {
    case TopologyKind::kComplete: return std::make_shared<const Topology>(Topology::complete(n));
    case TopologyKind::kRing: return std::make_shared<const Topology>(Topology::ring(n));
    case TopologyKind::kTorus: return std::make_shared<const Topology>(Topology::torus(n));
    case TopologyKind::kStar: return std::make_shared<const Topology>(Topology::star(n));
    case TopologyKind::kGnp:
      return std::make_shared<const Topology>(Topology::gnp(n, gnp_p, seed));
    case TopologyKind::kExpander:
      return std::make_shared<const Topology>(Topology::expander(n, expander_k, seed));
    case TopologyKind::kCustom: break;  // not a generator family
  }
  ST_ASSERT(false, "build_topology: unhandled topology kind");
  return nullptr;
}

}  // namespace experiment
}  // namespace stclock
