#pragma once

#include <string>

/// Identity of the scenario engine, for cache keys and version reporting.
///
/// A result store entry is only reusable if the engine that produced it
/// would reproduce it bit for bit. Two things can break that: a semantic
/// change to the engine (new metric, changed event ordering, protocol fix)
/// and a build-configuration change that alters floating-point behaviour.
/// Both are folded into one opaque `engine_fingerprint()` string that every
/// cache key includes, so stale hits across engine revisions or rebuilds
/// with different compilers are structurally impossible — the key simply
/// never matches.
namespace stclock::experiment {

/// Semantic engine version. BUMP THIS whenever a change can alter any
/// ScenarioResult field for some spec (engine event ordering, metric
/// definitions, protocol behaviour, RNG derivation). Purely additive
/// changes that cannot affect existing results do not need a bump.
inline constexpr const char* kEngineVersion = "stclock-engine/13.0";

/// Build-configuration facts that can change numeric results without any
/// source change: compiler identity, optimization/NDEBUG mode, and the
/// floating-point evaluation method. Returned as a readable key=value list.
///
/// The SHA-256 kernel picked at run time (crypto/sha256.h: SHA-NI or
/// portable) is deliberately left out: both kernels compute the same bytes,
/// so a result cached on a host with SHA-NI is valid on one without, and
/// folding the kernel in would split one store's keys by host CPU.
/// `scenrun --version` reports it on a line of its own instead.
[[nodiscard]] std::string engine_build_salt();

/// "<kEngineVersion>+<digest of engine_build_salt()>": the string folded
/// into every resultstore cache key, and what `scenrun --version` prints.
[[nodiscard]] const std::string& engine_fingerprint();

}  // namespace stclock::experiment
