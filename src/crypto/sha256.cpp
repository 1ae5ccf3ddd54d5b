#include "crypto/sha256.h"

#include <cstring>

#include "util/contracts.h"

#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace stclock::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)

#define STCLOCK_SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))

/// Four rounds of the SHA-NI kernel, group `G` of 16 (rounds 4G..4G+3).
/// `msg[G % 4]` holds schedule words W[4G..4G+3]; groups 0-3 load them from
/// the block, and each group also advances the schedule for the groups
/// after it (sha256msg1 three groups ahead, sha256msg2 one group ahead),
/// as in Intel's reference sequence. Inlined into `compress_shani`, where
/// the 16 calls unroll the whole compression.
template <int G>
STCLOCK_SHA_NI_TARGET __attribute__((always_inline)) inline void four_rounds(
    __m128i& abef, __m128i& cdgh, __m128i (&msg)[4], const std::uint8_t* block) {
  // pshufb mask turning each big-endian word of the block into a lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  if constexpr (G < 4) {
    msg[G] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)), bswap);
  }
  __m128i wk = _mm_add_epi32(
      msg[G % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * G])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = msg[(G + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(msg[G % 4], msg[(G + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, msg[G % 4]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (G >= 1 && G <= 12) {
    msg[(G + 3) % 4] = _mm_sha256msg1_epu32(msg[(G + 3) % 4], msg[G % 4]);
  }
}

#endif  // STCLOCK_HAVE_SHA_NI_KERNEL

/// The kernel `Sha256::compress` runs, picked on first use. A function-local
/// static, so the parallel engine's workers may race to the first call.
struct Kernel {
  void (*compress)(Sha256::State&, const std::uint8_t*);
  const char* name;
};

const Kernel& selected_kernel() {
  static const Kernel kernel = []() -> Kernel {
#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)
    if (detail::has_sha_extensions()) return {detail::compress_shani, "sha-ni"};
    return {detail::compress_portable, "portable (no SHA extensions)"};
#else
    return {detail::compress_portable, "portable (not x86-64)"};
#endif
  }();
  return kernel;
}

}  // namespace

namespace detail {

bool has_sha_extensions() {
#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
#else
  return false;
#endif
}

#if defined(STCLOCK_HAVE_SHA_NI_KERNEL)

STCLOCK_SHA_NI_TARGET void compress_shani(Sha256::State& state, const std::uint8_t* block) {
  // The round instructions want the state as (A,B,E,F) and (C,D,G,H).
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i msg[4] = {};
  four_rounds<0>(abef, cdgh, msg, block);
  four_rounds<1>(abef, cdgh, msg, block);
  four_rounds<2>(abef, cdgh, msg, block);
  four_rounds<3>(abef, cdgh, msg, block);
  four_rounds<4>(abef, cdgh, msg, block);
  four_rounds<5>(abef, cdgh, msg, block);
  four_rounds<6>(abef, cdgh, msg, block);
  four_rounds<7>(abef, cdgh, msg, block);
  four_rounds<8>(abef, cdgh, msg, block);
  four_rounds<9>(abef, cdgh, msg, block);
  four_rounds<10>(abef, cdgh, msg, block);
  four_rounds<11>(abef, cdgh, msg, block);
  four_rounds<12>(abef, cdgh, msg, block);
  four_rounds<13>(abef, cdgh, msg, block);
  four_rounds<14>(abef, cdgh, msg, block);
  four_rounds<15>(abef, cdgh, msg, block);

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // STCLOCK_HAVE_SHA_NI_KERNEL

void compress_portable(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace detail

Sha256::Sha256() : state_(kInitialState) {}

Sha256::Sha256(const State& state, std::uint64_t blocks)
    : state_(state), total_bits_(blocks * 512) {}

void Sha256::compress(State& state, const std::uint8_t* block) {
  selected_kernel().compress(state, block);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  ST_REQUIRE(!finished_, "Sha256: update after finish");
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos += take;
    if (buffered_ == buffer_.size()) {
      compress(state_, buffer_.data());
      buffered_ = 0;
    }
  }
  while (data.size() - pos >= 64) {
    compress(state_, data.data() + pos);
    pos += 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                       s.size()));
}

Digest Sha256::finish() {
  ST_REQUIRE(!finished_, "Sha256: finish called twice");
  finished_ = true;

  // Padding: 0x80, zeros up to 56 mod 64, the 64-bit big-endian bit length.
  // A full buffer is always compressed at once, so there is room for 0x80.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress(state_, buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (8 * (7 - i)));
  }
  compress(state_, buffer_.data());

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

const char* sha256_kernel() { return selected_kernel().name; }

}  // namespace stclock::crypto
