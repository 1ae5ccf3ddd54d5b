#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace stclock::crypto {
namespace {

std::string hex_of(const Digest& d) { return to_hex(d); }

// Declared first so that, run as a whole binary, it makes the first
// Sha256::compress calls of the process: four threads race to pick the
// kernel (scripts/check.sh --tsan runs this under ThreadSanitizer).
TEST(Sha256, ConcurrentFirstUseAgrees) {
  std::vector<Digest> digests(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < digests.size(); ++t) {
    threads.emplace_back([&digests, t] {
      for (int i = 0; i < 100; ++i) digests[t] = sha256("abc");
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Digest& d : digests) {
    EXPECT_EQ(hex_of(d), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  }
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding then occupies a full extra block.
  const std::string block(64, 'x');
  const Digest one_shot = sha256(block);

  Sha256 incremental;
  incremental.update(std::string_view(block).substr(0, 13));
  incremental.update(std::string_view(block).substr(13));
  EXPECT_EQ(one_shot, incremental.finish());
}

TEST(Sha256, IncrementalMatchesOneShotAcrossSplits) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise multi-block hashing paths";
  const Digest expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: padding fits in the same block; 56: spills into the next.
  EXPECT_EQ(hex_of(sha256(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hex_of(sha256(std::string(56, 'a'))),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("round-1"), sha256("round-2"));
  EXPECT_NE(sha256("a"), sha256("b"));
}

// --- The two compression kernels ---------------------------------------------

std::string hex_of_state(const Sha256::State& state) {
  Digest d{};
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) d[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  }
  return to_hex(d);
}

/// `msg` (at most 55 bytes) padded into one FIPS 180-4 block.
std::array<std::uint8_t, 64> padded_block(std::string_view msg) {
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), msg.data(), msg.size());
  block[msg.size()] = 0x80;
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 0; i < 8; ++i) block[56 + i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
  return block;
}

// The single-block FIPS vectors through the portable kernel by name, so it
// stays tested on hosts where Sha256::compress runs the SHA-NI kernel.
TEST(Sha256Kernels, PortableKernelSingleBlockVectors) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {std::string(55, 'a'), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
  };
  for (const auto& [msg, hex] : vectors) {
    Sha256::State state = Sha256::kInitialState;
    const auto block = padded_block(msg);
    detail::compress_portable(state, block.data());
    EXPECT_EQ(hex_of_state(state), hex) << "message of " << msg.size() << " bytes";
  }
}

TEST(Sha256Kernels, KernelNameMatchesCpuid) {
  const std::string name = sha256_kernel();
  if (detail::has_sha_extensions()) {
    EXPECT_EQ(name, "sha-ni");
  } else {
    EXPECT_EQ(name.rfind("portable (", 0), 0u) << name;
  }
}

// Random chaining states and blocks, the block at every offset 0-15 from a
// 64-byte boundary: the SHA-NI kernel must give the portable kernel's state,
// and so must Sha256::compress, whichever kernel it picked.
TEST(Sha256Kernels, ShaNiMatchesPortableAtEveryAlignment) {
#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)
  if (!detail::has_sha_extensions()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions (or SSSE3/SSE4.1), so only the "
                    "portable kernel can run here";
  }
  constexpr int kPairsPerOffset = 10000;
  Rng rng(256);
  alignas(64) std::array<std::uint8_t, 64 + 16> buffer{};
  for (std::size_t offset = 0; offset < 16; ++offset) {
    std::uint8_t* block = buffer.data() + offset;
    for (int pair = 0; pair < kPairsPerOffset; ++pair) {
      Sha256::State start;
      for (auto& word : start) word = static_cast<std::uint32_t>(rng.next_u64());
      for (int i = 0; i < 64; i += 8) {
        const std::uint64_t bytes = rng.next_u64();
        std::memcpy(block + i, &bytes, 8);
      }
      Sha256::State portable = start, shani = start, dispatched = start;
      detail::compress_portable(portable, block);
      detail::compress_shani(shani, block);
      Sha256::compress(dispatched, block);
      ASSERT_EQ(shani, portable) << "offset " << offset << ", pair " << pair;
      ASSERT_EQ(dispatched, portable) << "offset " << offset << ", pair " << pair;
    }
  }
#else
  GTEST_SKIP() << "not an x86-64 build: the SHA-NI kernel is not compiled in";
#endif
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update("data");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

}  // namespace
}  // namespace stclock::crypto
