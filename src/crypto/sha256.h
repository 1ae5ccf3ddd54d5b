#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.h"

/// SHA-256 (FIPS 180-4), with no external crypto dependency. Used by
/// HMAC-SHA256, which in turn backs the simulated signature scheme in
/// crypto/signature.h.
///
/// Every block goes through `Sha256::compress`, which runs one of two
/// kernels:
///
///  - the portable kernel, the FIPS 180-4 round loop in plain C++; the only
///    kernel on hosts without the SHA extensions and on every non-x86-64
///    build;
///  - the SHA-NI kernel, the x86-64 SHA extensions (sha256rnds2,
///    sha256msg1/2) with all sixteen four-round groups unrolled. Only this
///    function is compiled for those instructions, so the binary still runs
///    on any x86-64 CPU.
///
/// On a 2.1 GHz x86-64 host, Release, a block costs ~300 ns on the portable
/// kernel and ~75 ns on SHA-NI (bench_micro BM_Sha256_64B, two blocks).
///
/// The kernel is chosen once per process from CPUID: SHA-NI when leaf 7
/// reports SHA (EBX bit 29) and leaf 1 reports SSSE3 and SSE4.1, otherwise
/// portable. Both compute the same function, so digests, MACs and every
/// result built on them are byte-identical whichever one runs; that is why
/// there is no knob (environment variable, CMake option or -march) to pick
/// one, and why the choice stays out of the engine fingerprint.
/// `sha256_kernel()` names the choice; `scenrun --version` prints it.
namespace stclock::crypto {

inline constexpr std::size_t kDigestSize = 32;
using Digest = std::array<std::uint8_t, kDigestSize>;

/// Incremental hasher: update() any number of times, then finish().
class Sha256 {
 public:
  /// The chaining value between compressions: eight 32-bit words.
  using State = std::array<std::uint32_t, 8>;
  /// The state before the first block (FIPS 180-4 §5.3.3).
  static constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  Sha256();
  /// Resumes a hash whose first `blocks` 64-byte blocks are already folded
  /// into `state`, as when HMAC starts from a precomputed key schedule.
  Sha256(const State& state, std::uint64_t blocks);

  /// The compression function: folds one 64-byte block into `state` with
  /// the kernel chosen for this process. Every block this hasher consumes
  /// goes through it. `block` needs no alignment.
  static void compress(State& state, const std::uint8_t* block);

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  /// Finalizes and returns the digest; the hasher must not be reused after.
  [[nodiscard]] Digest finish();

 private:
  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::string_view s);

/// The kernel `Sha256::compress` runs in this process, and why:
/// "sha-ni", "portable (no SHA extensions)" or "portable (not x86-64)".
[[nodiscard]] const char* sha256_kernel();

/// The two kernels, callable directly so tests can compare them on any
/// host. Production code calls `Sha256::compress`.
namespace detail {

void compress_portable(Sha256::State& state, const std::uint8_t* block);

/// Whether this CPU has the SHA extensions plus the SSSE3 and SSE4.1
/// shuffles the SHA-NI kernel uses. Always false off x86-64.
[[nodiscard]] bool has_sha_extensions();

#if defined(__x86_64__)
#define STCLOCK_HAVE_SHA_NI_KERNEL 1
/// Requires `has_sha_extensions()`: on a CPU without them it faults.
void compress_shani(Sha256::State& state, const std::uint8_t* block);
#endif

}  // namespace detail

}  // namespace stclock::crypto
