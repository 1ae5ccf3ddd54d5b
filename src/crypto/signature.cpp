#include "crypto/signature.h"

#include "util/bytes.h"
#include "util/contracts.h"

namespace stclock::crypto {

KeyRegistry::KeyRegistry(std::uint32_t n, std::uint64_t master_seed) {
  ST_REQUIRE(n > 0, "KeyRegistry: need at least one node");
  ByteWriter master;
  master.str("stclock-master-key");
  master.u64(master_seed);
  const HmacKeySchedule master_key = hmac_key_schedule(sha256(master.data()));

  // Per node: two compressions for its secret under the master schedule, two
  // for the secret's own schedule.
  schedules_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ByteWriter w;
    w.str("node-secret");
    w.u32(i);
    schedules_.push_back(hmac_key_schedule(hmac_sha256(master_key, w.data())));
  }
}

Signer KeyRegistry::signer_for(NodeId id) const {
  ST_REQUIRE(id < schedules_.size(), "signer_for: node id out of range");
  return Signer(id, this);
}

Signature KeyRegistry::sign_as(NodeId signer, std::span<const std::uint8_t> payload) const {
  ST_REQUIRE(signer < schedules_.size(), "sign_as: node id out of range");
  return Signature{signer, hmac_sha256(schedules_[signer], payload)};
}

bool KeyRegistry::verify(const Signature& sig, std::span<const std::uint8_t> payload) const {
  if (sig.signer >= schedules_.size()) return false;
  return hmac_sha256(schedules_[sig.signer], payload) == sig.mac;
}

Signature Signer::sign(std::span<const std::uint8_t> payload) const {
  return registry_->sign_as(id_, payload);
}

}  // namespace stclock::crypto
