#include <gtest/gtest.h>

#include <string_view>

#include "crypto/hmac.h"
#include "util/bytes.h"

namespace stclock::crypto {
namespace {

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

// RFC 4231 test vectors for HMAC-SHA256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = bytes_of("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = bytes_of("Jefe");
  const Bytes msg = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case5Truncated) {
  // The RFC gives only the leading 128 bits for this case.
  const Bytes key(20, 0x0c);
  const Bytes msg = bytes_of("Test With Truncation");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)).substr(0, 32), "a3b6167473100ee06e0c796c2955552b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  // Keys longer than one block are hashed first.
  const Bytes key(131, 0xaa);
  const Bytes msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyLongMessage) {
  // A 131-byte key (hashed first) and a 152-byte message: after the key
  // block the inner hash compresses three blocks, two full message blocks
  // and the last 24 bytes with the padding.
  const Bytes key(131, 0xaa);
  const Bytes msg = bytes_of(
      "This is a test using a larger than block-size key and a larger than block-size data. "
      "The key needs to be hashed before being used by the HMAC algorithm.");
  ASSERT_EQ(msg.size(), 152u);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("message");
  EXPECT_NE(hmac_sha256(bytes_of("key-1"), msg), hmac_sha256(bytes_of("key-2"), msg));
}

TEST(Hmac, MessageSensitivity) {
  const Bytes key = bytes_of("key");
  EXPECT_NE(hmac_sha256(key, bytes_of("round 1")), hmac_sha256(key, bytes_of("round 2")));
}

TEST(Hmac, EmptyMessage) {
  const Bytes key = bytes_of("key");
  const Bytes empty;
  // Deterministic and well-defined.
  EXPECT_EQ(hmac_sha256(key, empty), hmac_sha256(key, empty));
}

TEST(Hmac, ExactlyBlockSizedKeyUsedVerbatim) {
  const Bytes key64(64, 0x42);
  const Bytes msg = bytes_of("m");
  // Must differ from the digest under the hashed version of the same key —
  // i.e. the <= blocksize path must not hash.
  const Digest direct = hmac_sha256(key64, msg);
  const Digest key_digest = sha256(key64);
  const Digest hashed_key = hmac_sha256(Bytes(key_digest.begin(), key_digest.end()), msg);
  EXPECT_NE(direct, hashed_key);
}

}  // namespace
}  // namespace stclock::crypto
