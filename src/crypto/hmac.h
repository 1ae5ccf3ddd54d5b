#pragma once

#include <span>

#include "crypto/sha256.h"

/// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the local SHA-256.
namespace stclock::crypto {

/// The part of HMAC-SHA256 that depends on the key alone (RFC 2104 §4): the
/// SHA-256 state after compressing the block key XOR ipad, and the state
/// after key XOR opad. With it a MAC over a message shorter than 56 bytes
/// costs two compressions instead of four.
struct HmacKeySchedule {
  Sha256::State inner;
  Sha256::State outer;
};

/// Two compressions (three for keys longer than one block, which are hashed
/// first).
[[nodiscard]] HmacKeySchedule hmac_key_schedule(std::span<const std::uint8_t> key);

/// HMAC-SHA256 of `message` under the key `schedule` was built from. Does
/// not allocate.
[[nodiscard]] Digest hmac_sha256(const HmacKeySchedule& schedule,
                                 std::span<const std::uint8_t> message);

/// The same, from the raw key: builds the schedule, then MACs through the
/// function above.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

}  // namespace stclock::crypto
