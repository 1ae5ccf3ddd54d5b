#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/hmac.h"
#include "util/types.h"

/// Simulated digital signatures.
///
/// The Srikanth–Toueg authenticated algorithm assumes unforgeable signatures.
/// We model them with per-node HMAC-SHA256 keys held by a KeyRegistry:
///
///  - *Signing* requires a `Signer` capability handle. The simulation runner
///    hands each honest protocol instance only its own handle and hands the
///    adversary the handles of corrupted nodes — so adversary code is
///    structurally unable to sign on behalf of honest nodes, which is exactly
///    the unforgeability assumption. (A "forger" adversary that fabricates
///    MAC bytes exists in src/adversary/ and is rejected with overwhelming
///    probability by verification; a test pins this down.)
///  - *Verification* is public: anyone may call KeyRegistry::verify. In a real
///    deployment this would be public-key verification against a PKI; using a
///    registry-mediated MAC keeps the trust model identical inside one
///    simulation while exercising a real crypto code path.
///
/// The registry keeps no raw secrets. It keeps each node's HMAC key schedule
/// (crypto/hmac.h, RFC 2104 §4): the SHA-256 states after the key XOR ipad
/// and key XOR opad blocks, 64 bytes per node. A sign or verify over a round
/// payload (20 bytes) then costs two compressions, one for the padded
/// payload block and one for the outer hash, where HMAC from the raw key
/// costs four; the MAC bytes are the same. On x86-64 with the SHA
/// extensions those two compressions run on the SHA-NI kernel, and a sign
/// or verify takes ~0.22 us; on the portable kernel it takes ~0.7 us
/// (crypto/sha256.h; bench_micro BM_SignRoundMessage, 2.1 GHz x86-64).
/// Building the registry costs four compressions per node plus the master
/// key's schedule. The schedules are all built in
/// the constructor and never written again: the parallel engine's workers
/// verify against one registry concurrently, so a lazily filled cache would
/// be a data race.
namespace stclock::crypto {

struct Signature {
  NodeId signer = 0;
  Digest mac{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

class KeyRegistry;

/// Capability to sign as one node. Copyable but only obtainable from the
/// registry; ownership discipline in core/runner.cpp provides unforgeability.
class Signer {
 public:
  [[nodiscard]] Signature sign(std::span<const std::uint8_t> payload) const;
  [[nodiscard]] NodeId id() const { return id_; }

 private:
  friend class KeyRegistry;
  Signer(NodeId id, const KeyRegistry* registry) : id_(id), registry_(registry) {}

  NodeId id_;
  const KeyRegistry* registry_;
};

class KeyRegistry {
 public:
  /// Derives n per-node secrets deterministically from the master seed.
  KeyRegistry(std::uint32_t n, std::uint64_t master_seed);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(schedules_.size());
  }

  /// Obtains the signing capability for one node. The caller is responsible
  /// for handing it only to that node's protocol instance (or to the
  /// adversary, if the node is corrupted).
  [[nodiscard]] Signer signer_for(NodeId id) const;

  /// Public verification: checks that `sig` is a valid signature by
  /// `sig.signer` over `payload`.
  [[nodiscard]] bool verify(const Signature& sig, std::span<const std::uint8_t> payload) const;

 private:
  friend class Signer;
  [[nodiscard]] Signature sign_as(NodeId signer, std::span<const std::uint8_t> payload) const;

  std::vector<HmacKeySchedule> schedules_;  // index = node id
};

}  // namespace stclock::crypto
