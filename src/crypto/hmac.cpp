#include "crypto/hmac.h"

#include <array>

namespace stclock::crypto {

HmacKeySchedule hmac_key_schedule(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = 64;

  // Keys longer than one block are hashed first.
  std::array<std::uint8_t, kBlockSize> block_key{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }

  HmacKeySchedule schedule{Sha256::kInitialState, Sha256::kInitialState};
  Sha256::compress(schedule.inner, ipad.data());
  Sha256::compress(schedule.outer, opad.data());
  return schedule;
}

Digest hmac_sha256(const HmacKeySchedule& schedule, std::span<const std::uint8_t> message) {
  Sha256 inner(schedule.inner, 1);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer(schedule.outer, 1);
  outer.update(inner_digest);
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  return hmac_sha256(hmac_key_schedule(key), message);
}

}  // namespace stclock::crypto
