#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>

#include "util/cpu.hpp"
#include "util/status.hpp"

#if !defined(CSHIELD_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__))
#define CSHIELD_HAVE_AES_NI 1
#include <immintrin.h>
#endif

namespace cshield::crypto {
namespace {

// --- AES field arithmetic (polynomial 0x11B; distinct from gf256.hpp's
// storage field 0x11D) -------------------------------------------------------

constexpr std::uint8_t aes_mul(std::uint8_t a, std::uint8_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  unsigned bb = b;
  while (bb != 0) {
    if (bb & 1U) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100U) aa ^= 0x11B;
    bb >>= 1;
  }
  return static_cast<std::uint8_t>(acc);
}

constexpr std::uint8_t aes_inv(std::uint8_t a) {
  if (a == 0) return 0;
  // a^254 = a^-1 in GF(2^8); exponentiation by squaring keeps this constexpr.
  std::uint8_t result = 1;
  std::uint8_t base = a;
  unsigned e = 254;
  while (e != 0) {
    if (e & 1U) result = aes_mul(result, base);
    base = aes_mul(base, base);
    e >>= 1;
  }
  return result;
}

struct SBoxes {
  std::array<std::uint8_t, 256> fwd{};
  std::array<std::uint8_t, 256> inv{};
};

constexpr SBoxes build_sboxes() {
  SBoxes s{};
  for (unsigned x = 0; x < 256; ++x) {
    const std::uint8_t q = aes_inv(static_cast<std::uint8_t>(x));
    // FIPS-197 affine transform.
    const std::uint8_t y = static_cast<std::uint8_t>(
        q ^ static_cast<std::uint8_t>((q << 1) | (q >> 7)) ^
        static_cast<std::uint8_t>((q << 2) | (q >> 6)) ^
        static_cast<std::uint8_t>((q << 3) | (q >> 5)) ^
        static_cast<std::uint8_t>((q << 4) | (q >> 4)) ^ 0x63);
    s.fwd[x] = y;
    s.inv[y] = static_cast<std::uint8_t>(x);
  }
  return s;
}

constexpr SBoxes kSBox = build_sboxes();

constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1B, 0x36};

void sub_bytes(AesBlock& s) {
  for (auto& b : s) b = kSBox.fwd[b];
}

void inv_sub_bytes(AesBlock& s) {
  for (auto& b : s) b = kSBox.inv[b];
}

// State layout: column-major as in FIPS-197 -- s[r + 4c] is row r, column c.
void shift_rows(AesBlock& s) {
  AesBlock t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[static_cast<std::size_t>(r + 4 * c)] =
          t[static_cast<std::size_t>(r + 4 * ((c + r) % 4))];
    }
  }
}

void inv_shift_rows(AesBlock& s) {
  AesBlock t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[static_cast<std::size_t>(r + 4 * ((c + r) % 4))] =
          t[static_cast<std::size_t>(r + 4 * c)];
    }
  }
}

void mix_columns(AesBlock& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s.data() + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(aes_mul(a0, 2) ^ aes_mul(a1, 3) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ aes_mul(a1, 2) ^ aes_mul(a2, 3) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ aes_mul(a2, 2) ^ aes_mul(a3, 3));
    col[3] = static_cast<std::uint8_t>(aes_mul(a0, 3) ^ a1 ^ a2 ^ aes_mul(a3, 2));
  }
}

void inv_mix_columns(AesBlock& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s.data() + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(aes_mul(a0, 14) ^ aes_mul(a1, 11) ^
                                       aes_mul(a2, 13) ^ aes_mul(a3, 9));
    col[1] = static_cast<std::uint8_t>(aes_mul(a0, 9) ^ aes_mul(a1, 14) ^
                                       aes_mul(a2, 11) ^ aes_mul(a3, 13));
    col[2] = static_cast<std::uint8_t>(aes_mul(a0, 13) ^ aes_mul(a1, 9) ^
                                       aes_mul(a2, 14) ^ aes_mul(a3, 11));
    col[3] = static_cast<std::uint8_t>(aes_mul(a0, 11) ^ aes_mul(a1, 13) ^
                                       aes_mul(a2, 9) ^ aes_mul(a3, 14));
  }
}

void encrypt_portable(const std::uint8_t* round_keys, AesBlock& block) {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      block[static_cast<std::size_t>(i)] ^= round_keys[16 * round + i];
    }
  };
  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
    add_round_key(round);
  }
  sub_bytes(block);
  shift_rows(block);
  add_round_key(10);
}

#if defined(CSHIELD_HAVE_AES_NI)

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// XORs the CTR keystream from counter block `nonce || first_block` (both
/// big-endian) into data[0, n). `round_keys` is the portable schedule: FIPS
/// byte order is the order AESENC takes its round key in. Four blocks run
/// interleaved so each AESENC overlaps the others' latency; whole blocks
/// left over go one at a time, and a partial last block XORs byte-wise.
__attribute__((target("aes,ssse3"))) void ctr_aes_ni(
    const std::uint8_t* round_keys, std::uint64_t nonce,
    std::uint64_t first_block, std::uint8_t* data, std::size_t n) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  // The counter lives as two native 64-bit lanes (nonce, block index);
  // reversing the bytes of each lane gives the big-endian counter block.
  const __m128i bswap64 =
      _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i one = _mm_set_epi64x(1, 0);
  __m128i counter = _mm_set_epi64x(static_cast<long long>(first_block),
                                   static_cast<long long>(nonce));

  constexpr std::size_t kLanes = 4;
  while (n >= 16 * kLanes) {
    // Fully unrolled, so the lanes live in registers, not a stack array.
    __m128i b[kLanes];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(_mm_shuffle_epi8(counter, bswap64), rk[0]);
      counter = _mm_add_epi64(counter, one);
    }
#pragma GCC unroll 9
    for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < kLanes; ++j) {
        b[j] = _mm_aesenc_si128(b[j], rk[r]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kLanes; ++j) {
      __m128i* p = reinterpret_cast<__m128i*>(data + 16 * j);
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p),
                                        _mm_aesenclast_si128(b[j], rk[10])));
    }
    data += 16 * kLanes;
    n -= 16 * kLanes;
  }
  while (n > 0) {
    __m128i b = _mm_xor_si128(_mm_shuffle_epi8(counter, bswap64), rk[0]);
    counter = _mm_add_epi64(counter, one);
#pragma GCC unroll 9
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[10]);
    if (n < 16) {
      alignas(16) std::uint8_t ks[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(ks), b);
      for (std::size_t i = 0; i < n; ++i) data[i] ^= ks[i];
      return;
    }
    __m128i* p = reinterpret_cast<__m128i*>(data);
    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), b));
    data += 16;
    n -= 16;
  }
}

#endif  // CSHIELD_HAVE_AES_NI

}  // namespace

std::string_view aes_arm_name(AesArm arm) {
  switch (arm) {
    case AesArm::kPortable: return "portable";
    case AesArm::kAesNi: return "aes-ni";
  }
  return "invalid";
}

bool aes_arm_available(AesArm arm) {
  return arm == AesArm::kPortable || cpu::hardware_aes();
}

AesArm aes_active_arm() {
  static const AesArm arm =
      cpu::preferred_aes() ? AesArm::kAesNi : AesArm::kPortable;
  return arm;
}

Aes128::Aes128(const AesKey& key, AesArm arm) : arm_(arm) {
  CS_REQUIRE(aes_arm_available(arm), "Aes128: arm not available");
  std::memcpy(round_keys_.data(), key.data(), 16);
  for (int i = 4; i < 44; ++i) {
    std::array<std::uint8_t, 4> temp{};
    std::memcpy(temp.data(), round_keys_.data() + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSBox.fwd[temp[1]] ^
                                          kRcon[static_cast<std::size_t>(i / 4 - 1)]);
      temp[1] = kSBox.fwd[temp[2]];
      temp[2] = kSBox.fwd[temp[3]];
      temp[3] = kSBox.fwd[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[static_cast<std::size_t>(4 * i + b)] = static_cast<std::uint8_t>(
          round_keys_[static_cast<std::size_t>(4 * (i - 4) + b)] ^
          temp[static_cast<std::size_t>(b)]);
    }
  }
}

void Aes128::encrypt_block(AesBlock& block) const {
#if defined(CSHIELD_HAVE_AES_NI)
  if (arm_ == AesArm::kAesNi) {
    // E(block) is the CTR keystream at counter block `block`: read it as
    // (nonce, index) and XOR that one keystream block into zeros.
    const std::uint64_t hi = load_be64(block.data());
    const std::uint64_t lo = load_be64(block.data() + 8);
    block.fill(0);
    ctr_aes_ni(round_keys_.data(), hi, lo, block.data(), block.size());
    return;
  }
#endif
  encrypt_portable(round_keys_.data(), block);
}

void Aes128::decrypt_block(AesBlock& block) const {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      block[static_cast<std::size_t>(i)] ^=
          round_keys_[static_cast<std::size_t>(16 * round + i)];
    }
  };
  add_round_key(10);
  for (int round = 9; round > 0; --round) {
    inv_shift_rows(block);
    inv_sub_bytes(block);
    add_round_key(round);
    inv_mix_columns(block);
  }
  inv_shift_rows(block);
  inv_sub_bytes(block);
  add_round_key(0);
}

void Aes128::ctr(std::uint64_t nonce, std::uint8_t* data,
                 std::size_t n) const {
#if defined(CSHIELD_HAVE_AES_NI)
  if (arm_ == AesArm::kAesNi) {
    ctr_aes_ni(round_keys_.data(), nonce, 0, data, n);
    return;
  }
#endif
  AesBlock counter{};
  for (int i = 0; i < 8; ++i) {
    counter[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }
  std::uint64_t block_index = 0;
  for (std::size_t offset = 0; offset < n; offset += 16) {
    AesBlock keystream = counter;
    for (int i = 0; i < 8; ++i) {
      keystream[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(block_index >> (56 - 8 * i));
    }
    encrypt_portable(round_keys_.data(), keystream);
    const std::size_t take = std::min<std::size_t>(16, n - offset);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    ++block_index;
  }
}

Bytes aes128_ctr(const AesKey& key, std::uint64_t nonce, BytesView data) {
  Bytes out(data.begin(), data.end());
  Aes128(key).ctr(nonce, out.data(), out.size());
  return out;
}

}  // namespace cshield::crypto
