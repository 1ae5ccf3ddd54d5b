#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/signature.h"
#include "sim/message.h"
#include "util/bytes.h"

namespace stclock {
namespace {

TEST(Signature, SignVerifyRoundTrip) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(7);
  const crypto::Signature sig = registry.signer_for(2).sign(payload);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.verify(sig, payload));
}

TEST(Signature, WrongPayloadRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const crypto::Signature sig = registry.signer_for(0).sign(round_signing_payload(7));
  EXPECT_FALSE(registry.verify(sig, round_signing_payload(8)));
}

TEST(Signature, CrossSignerRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(1);
  crypto::Signature sig = registry.signer_for(0).sign(payload);
  sig.signer = 1;  // claim somebody else signed it
  EXPECT_FALSE(registry.verify(sig, payload));
}

TEST(Signature, TamperedMacRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(1);
  crypto::Signature sig = registry.signer_for(0).sign(payload);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, payload));
}

TEST(Signature, UnknownSignerRejected) {
  const crypto::KeyRegistry registry(4, 1);
  crypto::Signature sig;
  sig.signer = 99;  // not a registered node
  EXPECT_FALSE(registry.verify(sig, round_signing_payload(1)));
}

TEST(Signature, DistinctRegistriesIncompatible) {
  // Two systems with different master seeds must not accept each other's
  // signatures (models separate PKIs).
  const crypto::KeyRegistry a(4, 1), b(4, 2);
  const Bytes payload = round_signing_payload(3);
  const crypto::Signature sig = a.signer_for(0).sign(payload);
  EXPECT_FALSE(b.verify(sig, payload));
}

TEST(Signature, DeterministicAcrossReconstruction) {
  const Bytes payload = round_signing_payload(5);
  const crypto::KeyRegistry a(4, 99), b(4, 99);
  EXPECT_EQ(a.signer_for(3).sign(payload), b.signer_for(3).sign(payload));
}

TEST(Signature, SignerOutOfRangeThrows) {
  const crypto::KeyRegistry registry(4, 1);
  EXPECT_THROW((void)registry.signer_for(4), std::logic_error);
}

// The MAC bytes are part of every result: signatures travel in messages and
// their bytes feed the run. These were computed by the plain
// HMAC-SHA256-from-the-raw-key implementation and agree with Python's
// hmac/hashlib. The payload lengths straddle every SHA-256 padding and block
// boundary of the inner hash once the 64-byte key block is in front: 0, 55,
// 56 and 63 pad within or spill past the payload's first block, 64 and 65
// fill it exactly or cross it, 119/120 do the same one block later, 128 fills
// two blocks.
TEST(Signature, MacBytesArePinned) {
  struct Pin {
    std::size_t length;
    std::uint64_t master_seed;
    NodeId signer;
    const char* mac_hex;
  };
  const Pin pins[] = {
      {0, 1, 0, "9bc923d76a1effc1259d9865bb78b6e960d59cedddd4977483b4858458463362"},
      {20, 0x5eed, 3, "7faac76031a448270659f60f99423875643f5bf40986424e6841cd240ba9e71a"},
      {55, 1, 7, "c50413514ded00bfdcda47ff5e934fc22da7deb31ec733e72f160da9057cae4d"},
      {56, 0x5eed, 0, "ad24d15e4a3c5852d5f2f2e7880268083a57635489ad5345979534d8138151c1"},
      {63, 1, 3, "5272e29d12ddb91443174cbe14d573d3f1eafac62b51ebe54618499a4b29dcd3"},
      {64, 0x5eed, 7, "93775781bb964d01bc26d62591c383d26d9a2bdb2f2fe31921bc08e62a0d858c"},
      {65, 1, 0, "2021e4ea665166f15f5ddf0d41f699c38cb058a2d9be268b3f1a7bf628c74d4b"},
      {119, 0x5eed, 3, "7abd2d589316839dee93a824b2b22966cdcbb05587d53c195a13f28fe4679fa3"},
      {120, 1, 7, "a907effef3b1efe8a1222ad443b299fd6c94a53939122b44907ddf9b1ab977c9"},
      {128, 0x5eed, 0, "40f4f34952d0b1d99e373be1d607849f8a4574f4d71911d50ba25e4d67e99b7a"},
  };
  for (const Pin& pin : pins) {
    Bytes payload(pin.length);
    for (std::size_t j = 0; j < pin.length; ++j) {
      payload[j] = static_cast<std::uint8_t>(31 * j + pin.length);
    }
    const crypto::KeyRegistry registry(8, pin.master_seed);
    const crypto::Signature sig = registry.signer_for(pin.signer).sign(payload);
    EXPECT_EQ(to_hex(sig.mac), pin.mac_hex) << "payload length " << pin.length;
    EXPECT_TRUE(registry.verify(sig, payload)) << "payload length " << pin.length;
  }
  // The payload every protocol signs: 20 bytes.
  const crypto::KeyRegistry registry(8, 0x5eed);
  const Bytes round = round_signing_payload(7);
  ASSERT_EQ(round.size(), 20u);
  EXPECT_EQ(to_hex(registry.signer_for(5).sign(round).mac),
            "c8c03581d7bea1e062b5946e36e52f1fb788ccc2b648eadd9c7545b738777a85");
}

TEST(Signature, ConcurrentSignAndVerifyAgreeWithOneThread) {
  // The parallel engine's workers share one registry; it is never written
  // after construction, so concurrent calls need no lock. Run under
  // ThreadSanitizer by scripts/check.sh --tsan.
  const crypto::KeyRegistry registry(16, 3);
  std::vector<Bytes> payloads;
  for (Round k = 1; k <= 8; ++k) payloads.push_back(round_signing_payload(k));
  std::vector<crypto::Signature> expected;
  for (NodeId id = 0; id < registry.size(); ++id) {
    for (const Bytes& p : payloads) expected.push_back(registry.signer_for(id).sign(p));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int rep = 0; rep < 8; ++rep) {
        std::size_t i = 0;
        for (NodeId id = 0; id < registry.size(); ++id) {
          for (const Bytes& p : payloads) {
            const crypto::Signature sig = registry.signer_for(id).sign(p);
            if (sig != expected[i++] || !registry.verify(sig, p)) ++mismatches[w];
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(Signature, RoundPayloadsAreInjective) {
  EXPECT_NE(round_signing_payload(1), round_signing_payload(2));
  EXPECT_NE(round_signing_payload(0), round_signing_payload(1));
  // Large rounds too (bit patterns beyond 32 bits).
  EXPECT_NE(round_signing_payload(1ULL << 40), round_signing_payload((1ULL << 40) + 1));
}

}  // namespace
}  // namespace stclock
