// Differential / property battery for the fast-fragmentation protection
// codec (crypto/fragmentation.hpp).
//
// The production entangle runs on the dispatched GF(256) kernels; the
// pinned reference here is a from-scratch reimplementation of the
// documented scheme -- SplitMix64-finalizer whitening, then a forward and a
// backward mul_add sweep with the salted coefficient schedule -- built on
// gf256::mul_slow and byte loops only. Any drift in the wire-frozen scheme
// (constants, sweep order, ragged-tail handling) breaks these tests.
//
// Covered:
//   * differential sweep: entangle vs reference over fragment counts 2..16
//     x lengths 0..67 x unaligned buffer phases;
//   * arm-vs-arm bit identity through the rebindable kernel hook;
//   * round-trip (detangle . entangle == id) including ragged tails;
//   * all-or-nothing diffusion: every output fragment depends on every
//     input fragment;
//   * chi-squared near-uniformity of any single-provider fragment's byte
//     histogram, on a deliberately low-entropy payload;
//   * edge cases: empty payload, one fragment, more fragments than bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "crypto/fragmentation.hpp"
#include "crypto/gf256.hpp"
#include "crypto/gf256_kernels.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace cshield::crypto::fragmentation {
namespace {

namespace kern = gf256::kernels;
using kern::Arm;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

std::vector<Arm> available_arms() {
  std::vector<Arm> arms;
  for (Arm a : {Arm::kScalar, Arm::kSwar, Arm::kSsse3, Arm::kAvx2}) {
    if (kern::arm_available(a)) arms.push_back(a);
  }
  return arms;
}

// --- pinned reference (independent of the production code) -----------------

std::uint64_t ref_mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ref_whiten(Bytes& data, std::uint64_t nonce) {
  constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t block = i / 8;
    const std::uint64_t ks = ref_mix64(nonce ^ (kPhi * (block + 1)));
    data[i] ^= static_cast<std::uint8_t>(ks >> (8 * (i % 8)));
  }
}

std::uint8_t ref_coeff(std::size_t i, std::uint64_t salt) {
  return static_cast<std::uint8_t>(1 + ref_mix64(salt ^ i) % 255);
}

std::uint8_t ref_forward(std::size_t i) { return ref_coeff(i, 0xF0A4C1D5ULL); }
std::uint8_t ref_backward(std::size_t i) { return ref_coeff(i, 0xB1E55EDULL); }

std::size_t ref_frag_len(std::size_t n, std::size_t len, std::size_t i) {
  const std::size_t begin = i * len;
  return begin >= n ? 0 : std::min(len, n - begin);
}

/// dst_frag[j] ^= mul_slow(c, src_frag[j]) over the overlap of the two
/// ragged fragments.
void ref_mul_add(Bytes& data, std::size_t n, std::size_t len, std::size_t dst,
                 std::size_t src, std::uint8_t c) {
  const std::size_t m =
      std::min(ref_frag_len(n, len, dst), ref_frag_len(n, len, src));
  for (std::size_t j = 0; j < m; ++j) {
    data[dst * len + j] = static_cast<std::uint8_t>(
        data[dst * len + j] ^ gf256::mul_slow(c, data[src * len + j]));
  }
}

Bytes ref_entangle(Bytes data, std::size_t fragments, std::uint64_t nonce) {
  ref_whiten(data, nonce);
  const std::size_t n = data.size();
  const std::size_t k = std::max<std::size_t>(1, fragments);
  if (k == 1 || n == 0) return data;
  const std::size_t len = (n + k - 1) / k;
  for (std::size_t i = 1; i < k; ++i) {
    ref_mul_add(data, n, len, i, i - 1, ref_forward(i));
  }
  for (std::size_t i = k - 1; i-- > 0;) {
    ref_mul_add(data, n, len, i, i + 1, ref_backward(i));
  }
  return data;
}

// --- coefficient schedule ---------------------------------------------------

TEST(FragmentationScheduleTest, CoefficientsMatchPinnedFormulaAndAreNonzero) {
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(forward_coeff(i), ref_forward(i)) << i;
    EXPECT_EQ(backward_coeff(i), ref_backward(i)) << i;
    EXPECT_NE(forward_coeff(i), 0) << i;
    EXPECT_NE(backward_coeff(i), 0) << i;
  }
  // The two schedules are genuinely distinct streams.
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    differing += forward_coeff(i) != backward_coeff(i) ? 1 : 0;
  }
  EXPECT_GT(differing, 48u);
}

// --- differential sweep -----------------------------------------------------

// Fragment counts 2..16 x payload lengths 0..67 x four buffer phases: the
// production entangle (dispatched kernels, in-place over the arena) must be
// byte-identical to the mul_slow reference. Phases place the payload at an
// unaligned offset inside a larger allocation so the kernels see misaligned
// pointers.
TEST(FragmentationDifferentialTest, EntangleMatchesPinnedReference) {
  for (std::size_t k = 2; k <= 16; ++k) {
    for (std::size_t n = 0; n <= 67; ++n) {
      for (std::size_t phase = 0; phase < 4; ++phase) {
        const std::uint64_t nonce = 0xD1FF00ULL + k * 1000 + n * 8 + phase;
        const Bytes payload = random_bytes(n, nonce);
        Bytes arena = random_bytes(n + 16, nonce + 1);
        std::copy(payload.begin(), payload.end(), arena.begin() + phase);
        entangle(arena.data() + phase, n, k, nonce);
        const Bytes expected = ref_entangle(payload, k, nonce);
        ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                               arena.begin() + phase))
            << "k=" << k << " n=" << n << " phase=" << phase;
      }
    }
  }
}

TEST(FragmentationDifferentialTest, DetangleInvertsReferenceEntangle) {
  for (std::size_t k = 2; k <= 16; ++k) {
    for (std::size_t n = 0; n <= 67; ++n) {
      const std::uint64_t nonce = 0xDE7A76ULL + k * 100 + n;
      const Bytes payload = random_bytes(n, nonce);
      Bytes round = ref_entangle(payload, k, nonce);
      detangle(round, k, nonce);
      EXPECT_EQ(round, payload) << "k=" << k << " n=" << n;
    }
  }
}

// --- arm-vs-arm bit identity ------------------------------------------------

// Rebinds the dispatcher to every arm the host can run; the entangled arena
// must be bit-identical across arms (scalar is the baseline). Sizes cross
// the SIMD inner-loop widths and leave ragged tails.
TEST(FragmentationArmTest, AllArmsBitIdentical) {
  for (std::size_t k : {2u, 3u, 5u, 8u, 16u}) {
    for (std::size_t n : {65u, 1024u, 4096u + 37u}) {
      const std::uint64_t nonce = 0xA2AB17ULL + k * 31 + n;
      const Bytes payload = random_bytes(n, nonce);

      const Arm prev = kern::set_active_arm(Arm::kScalar);
      Bytes baseline = payload;
      entangle(baseline, k, nonce);
      for (Arm arm : available_arms()) {
        kern::set_active_arm(arm);
        Bytes got = payload;
        entangle(got, k, nonce);
        EXPECT_EQ(got, baseline)
            << "arm=" << cpu::simd_level_name(arm) << " k=" << k
            << " n=" << n;
        detangle(got, k, nonce);
        EXPECT_EQ(got, payload)
            << "arm=" << cpu::simd_level_name(arm) << " k=" << k
            << " n=" << n;
      }
      kern::set_active_arm(prev);
    }
  }
}

// --- properties -------------------------------------------------------------

TEST(FragmentationPropertyTest, RoundTripRandomized) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.below(17));
    const std::size_t n = static_cast<std::size_t>(rng.below(3000));
    const std::uint64_t nonce = rng.next();
    const Bytes payload = random_bytes(n, nonce ^ trial);
    Bytes buf = payload;
    entangle(buf, k, nonce);
    if (n >= 16 && k >= 1) {
      EXPECT_NE(buf, payload);  // whitening happened
    }
    detangle(buf, k, nonce);
    EXPECT_EQ(buf, payload) << "k=" << k << " n=" << n;
  }
}

// All-or-nothing diffusion: flip one input byte in ANY fragment and every
// output fragment changes. (After the forward sweep fragment i depends on
// fragments 0..i; the backward sweep then chains the tail back in, so every
// output fragment is a full-rank combination of all k inputs.)
TEST(FragmentationPropertyTest, EveryOutputFragmentDependsOnEveryInput) {
  const std::size_t k = 5;
  const std::size_t n = 5 * 64;
  const std::size_t len = n / k;
  const std::uint64_t nonce = 0xA040;
  const Bytes payload = random_bytes(n, 7);
  Bytes base = payload;
  entangle(base, k, nonce);
  for (std::size_t touched = 0; touched < k; ++touched) {
    Bytes mutated = payload;
    mutated[touched * len + 3] ^= 0x01;
    entangle(mutated, k, nonce);
    for (std::size_t out = 0; out < k; ++out) {
      const bool differs = !std::equal(mutated.begin() + out * len,
                                       mutated.begin() + (out + 1) * len,
                                       base.begin() + out * len);
      EXPECT_TRUE(differs) << "input frag " << touched
                           << " did not diffuse into output frag " << out;
    }
  }
}

// A provider holding any single fragment sees a near-uniform byte
// histogram even for a pathologically structured payload: chi-squared
// against uniform over 256 bins stays within ~4 sigma of the df=255
// expectation for every fragment.
TEST(FragmentationPropertyTest, SingleFragmentHistogramNearUniform) {
  const std::size_t k = 4;
  const std::size_t n = 64 * 1024;
  Bytes payload(n);
  // Low-entropy input: repeating ASCII with long zero runs.
  const std::string motif = "AAAA bidding-record 000000000000";
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = (i % 4 == 0) ? 0 : static_cast<std::uint8_t>(
                                        motif[i % motif.size()]);
  }
  entangle(payload, k, 0xC4157A7ULL);
  const std::size_t frag_len = n / k;
  for (std::size_t f = 0; f < k; ++f) {
    std::array<std::size_t, 256> hist{};
    for (std::size_t j = 0; j < frag_len; ++j) {
      ++hist[payload[f * frag_len + j]];
    }
    const double expected =
        static_cast<double>(frag_len) / 256.0;  // 64 per bin
    double chi2 = 0.0;
    for (std::size_t b = 0; b < 256; ++b) {
      const double d = static_cast<double>(hist[b]) - expected;
      chi2 += d * d / expected;
    }
    // df = 255: mean 255, sd = sqrt(2*255) ~ 22.6; 350 is ~4.2 sigma.
    EXPECT_LT(chi2, 350.0) << "fragment " << f;
    EXPECT_GT(chi2, 120.0) << "fragment " << f;  // and not suspiciously flat
  }
}

// --- edge cases -------------------------------------------------------------

TEST(FragmentationEdgeTest, EmptyPayloadIsNoOp) {
  Bytes empty;
  entangle(empty, 4, 1);
  detangle(empty, 4, 1);
  EXPECT_TRUE(empty.empty());
}

TEST(FragmentationEdgeTest, OneOrZeroFragmentsIsWhiteningOnly) {
  const Bytes payload = random_bytes(100, 42);
  Bytes whiten_ref = payload;
  ref_whiten(whiten_ref, 99);
  for (std::size_t k : {0u, 1u}) {
    Bytes buf = payload;
    entangle(buf, k, 99);
    EXPECT_EQ(buf, whiten_ref) << "k=" << k;
    detangle(buf, k, 99);
    EXPECT_EQ(buf, payload) << "k=" << k;
  }
}

TEST(FragmentationEdgeTest, MoreFragmentsThanBytesRoundTrips) {
  for (std::size_t n : {1u, 2u, 3u, 7u}) {
    const Bytes payload = random_bytes(n, n);
    Bytes buf = payload;
    entangle(buf, 16, 5);
    const Bytes expected = ref_entangle(payload, 16, 5);
    EXPECT_EQ(buf, expected) << "n=" << n;
    detangle(buf, 16, 5);
    EXPECT_EQ(buf, payload) << "n=" << n;
  }
}

}  // namespace
}  // namespace cshield::crypto::fragmentation
