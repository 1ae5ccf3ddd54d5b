#pragma once

#include <cstdint>
#include <string>

#include "util/types.h"

/// Configuration of the Srikanth–Toueg synchronization algorithm.
namespace stclock {

/// Which broadcast primitive the algorithm runs over.
enum class Variant {
  kAuthenticated,  ///< signatures, n >= 2f+1, acceptance spread D = tdel
  kEcho,           ///< init/echo simulation, n >= 3f+1, D = 2*tdel
};

/// How clock corrections are applied.
enum class AdjustMode {
  kInstant,    ///< discontinuous C := kP + alpha (as analyzed in the paper)
  kAmortized,  ///< correction spread over a window (the standard smoothing)
};

inline constexpr EnumName<AdjustMode> kAdjustModeNames[] = {
    {"instant", AdjustMode::kInstant}, {"amortized", AdjustMode::kAmortized},
};

struct SyncConfig {
  std::uint32_t n = 4;  ///< number of processes
  std::uint32_t f = 1;  ///< Byzantine faults to tolerate

  double rho = 1e-4;       ///< hardware drift bound: rates in [1/(1+rho), 1+rho]
  Duration tdel = 0.01;    ///< max message delay between correct processes (s)
  Duration period = 1.0;   ///< resynchronization period P (logical seconds)
  /// Adjustment constant alpha; <= 0 selects the default (1+rho)*D.
  Duration alpha = 0;
  /// Bound on the spread of hardware clocks at time 0 (initial synchrony).
  Duration initial_sync = 0.005;
  /// Permit initial_sync to exceed the steady-state precision bound. The
  /// algorithm still converges — the first accepted round anchors every
  /// correct clock to within the acceptance spread regardless of how far
  /// apart they started (processes skip rounds they slept through) — but
  /// the precision guarantee then only applies after that first round.
  bool allow_unsynchronized_start = false;

  Variant variant = Variant::kAuthenticated;
  AdjustMode adjust = AdjustMode::kInstant;
  /// Hardware-time window over which amortized corrections are spread;
  /// <= 0 selects half the minimum resynchronization period.
  Duration amortize_window = 0;

  [[nodiscard]] std::string variant_name() const;

  /// Throws std::logic_error if the configuration violates the model
  /// requirements (resilience bound, alpha < P, feasible period, ...).
  void validate() const;

  /// True iff (n, f) satisfies the variant's resilience requirement.
  [[nodiscard]] bool resilience_ok() const;
};

}  // namespace stclock
