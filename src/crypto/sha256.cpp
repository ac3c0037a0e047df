#include "crypto/sha256.hpp"

#include <cstring>

#include "util/cpu.hpp"
#include "util/status.hpp"

#if !defined(CSHIELD_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__))
#define CSHIELD_HAVE_SHA_NI 1
#include <immintrin.h>
#endif

namespace cshield::crypto {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
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

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(data[i * 4]) << 24) |
          (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
          (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
          static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[static_cast<std::size_t>(i)] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[static_cast<std::size_t>(i)];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(CSHIELD_HAVE_SHA_NI)

// SHA-NI keeps the working variables as two vectors, ABEF and CDGH, and each
// SHA256RNDS2 performs two rounds. The 64-round block runs as 16 groups of
// four rounds over a rolling window of four message vectors: MSG1 and MSG2
// extend the schedule (W[16..63]) four words at a time, in step with the
// rounds that consume it.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state[] is A..H; repack to ABEF / CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byteswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i msg = _mm_add_epi32(
          w[g % 4],
          _mm_load_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g <= 14) {
        // Finish W for group g + 1: add the W[t-7] words (the window
        // shifted by one word), then MSG2.
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g <= 12) {
        // Start W for group g + 3.
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  // Repack ABEF / CDGH back to A..H.
  tmp = _mm_shuffle_epi32(abef, 0x1B);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);   // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif  // CSHIELD_HAVE_SHA_NI

}  // namespace

std::string_view sha256_arm_name(Sha256Arm arm) {
  switch (arm) {
    case Sha256Arm::kPortable: return "portable";
    case Sha256Arm::kShaNi: return "sha_ni";
  }
  return "invalid";
}

bool sha256_arm_available(Sha256Arm arm) {
  return arm == Sha256Arm::kPortable || cpu::hardware_sha();
}

Sha256Arm sha256_active_arm() {
  static const Sha256Arm arm =
      cpu::preferred_sha() ? Sha256Arm::kShaNi : Sha256Arm::kPortable;
  return arm;
}

Sha256::Sha256() : Sha256(sha256_active_arm()) {}

Sha256::Sha256(Sha256Arm arm) : compress_(compress_portable) {
  CS_REQUIRE(sha256_arm_available(arm), "Sha256: arm not available");
#if defined(CSHIELD_HAVE_SHA_NI)
  if (arm == Sha256Arm::kShaNi) compress_ = compress_sha_ni;
#endif
  reset();
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, std::size_t{64} - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 64) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block in one call, so the SIMD arm keeps its state in
  // registers across blocks.
  const std::size_t blocks = n / 64;
  if (blocks > 0) {
    compress_(state_.data(), p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // 0x80, zeros to byte 56 of a block, then the 64-bit big-endian length;
  // a tail past byte 55 spills into one extra all-padding block.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);
  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  reset();
  return out;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string digest_hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace cshield::crypto
