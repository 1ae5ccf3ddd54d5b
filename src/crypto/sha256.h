#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.h"

/// SHA-256 (FIPS 180-4), implemented from scratch so the repository has no
/// external crypto dependency. Used by HMAC-SHA256, which in turn backs the
/// simulated signature scheme in crypto/signature.h.
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

  /// The compression function: folds one 64-byte block into `state`. Every
  /// block this hasher consumes goes through it.
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

}  // namespace stclock::crypto
