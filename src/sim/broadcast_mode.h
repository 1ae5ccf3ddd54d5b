#pragma once

#include <cstdint>

#include "util/types.h"

/// How a broadcast fans out over the fleet.
///
/// The paper's protocols assume every broadcast reaches all n - 1 peers, so
/// one `auth` round costs O(n^2) messages — fine at n = 10, unusable at
/// n = 10^6. The sparse broadcast fabric keeps the protocols unchanged and
/// swaps the fan-out underneath them:
///
///  - kFull: today's behavior, bit-identical to every pre-fabric trace
///    (complete graphs flood all peers; sparse graphs flood the neighbor
///    row). The default, pinned by the golden suite.
///  - kNeighbors: identical fan-out sets to kFull — the mode exists to
///    *opt in* to quorum-aware acceptance thresholds scaled to the
///    topology's design degree (see scaled_threshold in
///    broadcast/primitive.h), which kFull never engages.
///  - kSampled: each broadcast sends to `sample_size` distinct peers drawn
///    from the sender's broadcast domain (neighbors, or everyone else on a
///    complete graph) via a dedicated RNG stream forked off the scenario
///    seed. Runs in the other modes never create that stream, so they stay
///    bit-identical; sampled runs are themselves pure functions of the
///    spec. O(n * m) messages per round.
namespace stclock {

enum class BroadcastMode : std::uint8_t {
  kFull,       ///< flood the whole domain (legacy, default)
  kNeighbors,  ///< same fan-out, quorum-aware thresholds
  kSampled,    ///< sample_size seeded-random peers per broadcast
};

inline constexpr EnumName<BroadcastMode> kBroadcastModeNames[] = {
    {"full", BroadcastMode::kFull},
    {"neighbors", BroadcastMode::kNeighbors},
    {"sampled", BroadcastMode::kSampled},
};

[[nodiscard]] inline const char* broadcast_mode_name(BroadcastMode mode) {
  return enum_name(kBroadcastModeNames, mode);
}

}  // namespace stclock
