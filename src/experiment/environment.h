#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clocks/hardware_clock.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/types.h"

/// Environment knobs shared by every scenario: which hardware-clock
/// trajectory family the honest fleet runs on, and how honest-to-honest
/// message delays are assigned within [0, tdel]. They belong to the
/// experiment layer because they describe the *world* a protocol runs in,
/// not the protocol itself.
namespace stclock {

/// Hardware-clock trajectory family for the honest fleet.
enum class DriftKind {
  kNone,            ///< all clocks perfect rate 1 (isolates delay effects)
  kRandomConstant,  ///< per-node constant rate within the drift bound
  kRandomWalk,      ///< rates wander within the bound
  kExtremal,        ///< alternating fastest/slowest rates (worst-case drift)
};

/// Honest-to-honest delay assignment (all within [0, tdel]).
enum class DelayKind {
  kZero,         ///< instantaneous
  kHalf,         ///< every message takes tdel/2
  kMax,          ///< every message takes tdel
  kUniform,      ///< uniform in [0, tdel]
  kSplit,        ///< odd-indexed nodes always lag by tdel (worst-case spread)
  kAlternating,  ///< the lagging half flips every period
  kPerLink,      ///< each directed link gets its own stable hashed latency
};

inline constexpr EnumName<DriftKind> kDriftNames[] = {
    {"none", DriftKind::kNone},           {"rand-const", DriftKind::kRandomConstant},
    {"rand-walk", DriftKind::kRandomWalk}, {"extremal", DriftKind::kExtremal},
};

inline constexpr EnumName<DelayKind> kDelayNames[] = {
    {"zero", DelayKind::kZero},           {"half", DelayKind::kHalf},
    {"max", DelayKind::kMax},             {"uniform", DelayKind::kUniform},
    {"split", DelayKind::kSplit},         {"alternating", DelayKind::kAlternating},
    {"per-link", DelayKind::kPerLink},
};

[[nodiscard]] inline const char* drift_name(DriftKind kind) {
  return enum_name(kDriftNames, kind);
}
[[nodiscard]] inline const char* delay_name(DelayKind kind) {
  return enum_name(kDelayNames, kind);
}

namespace experiment {

/// Builds the honest fleet's hardware clocks for one scenario. The RNG is
/// consumed in a fixed order per (kind, n), so two runs with the same seed
/// see identical clock trajectories.
[[nodiscard]] std::vector<HardwareClock> build_clock_fleet(DriftKind kind, std::uint32_t n,
                                                           double rho, Duration initial_sync,
                                                           RealTime horizon, Duration period,
                                                           Rng& rng);

/// Builds the delay policy assigning honest-to-honest message delays.
/// `link_seed` only feeds the per-link kind (stable per-link latencies).
[[nodiscard]] std::unique_ptr<DelayPolicy> build_delay_policy(DelayKind kind, std::uint32_t n,
                                                              Duration period,
                                                              std::uint64_t link_seed = 1);

/// Builds the network graph for one scenario. `gnp_p` feeds only the G(n, p)
/// kind, `seed` the seeded kinds (gnp, expander), `expander_k` the expander
/// degree. Shape errors (e.g. a 2-node ring) throw std::logic_error.
[[nodiscard]] std::shared_ptr<const Topology> build_topology(TopologyKind kind,
                                                             std::uint32_t n, double gnp_p,
                                                             std::uint64_t seed,
                                                             std::uint32_t expander_k = 8);

}  // namespace experiment
}  // namespace stclock
