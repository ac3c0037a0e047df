// Tests for the crypto substrate: GF(2^8) field axioms, SHA-256 FIPS
// vectors and the portable/SHA-NI arm differential, AES-128 FIPS-197
// vectors, CTR-mode properties and the portable/AES-NI arm differential.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <set>
#include <string_view>

#include "crypto/aes.hpp"
#include "crypto/gf256.hpp"
#include "crypto/sha256.hpp"
#include "util/random.hpp"

namespace cshield {
namespace {

// --- GF(2^8) -----------------------------------------------------------------

TEST(Gf256Test, TablesMatchSlowMultiply) {
  for (unsigned a = 0; a < 256; a += 7) {
    for (unsigned b = 0; b < 256; b += 5) {
      EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                gf256::mul_slow(static_cast<std::uint8_t>(a),
                                static_cast<std::uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Gf256Test, MultiplicativeIdentity) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1),
              static_cast<std::uint8_t>(a));
  }
}

TEST(Gf256Test, ZeroAnnihilates) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256Test, InverseProperty) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto inv = gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256Test, DivisionInvertsMultiplication) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_EQ(gf256::div(gf256::mul(a, b), b), a);
  }
}

TEST(Gf256Test, GeneratorHasFullOrder) {
  // 0x02 must generate all 255 nonzero elements under poly 0x11D.
  std::set<std::uint8_t> seen;
  for (unsigned i = 0; i < 255; ++i) seen.insert(gf256::exp(i));
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(Gf256Test, LogExpInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(gf256::exp(gf256::log(static_cast<std::uint8_t>(a))),
              static_cast<std::uint8_t>(a));
  }
}

TEST(Gf256Test, DistributiveLaw) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const auto c = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256Test, MulAddKernelMatchesScalar) {
  Rng rng(3);
  Bytes src(257), dst(257), expected(257);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(rng.below(256));
    dst[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  for (unsigned coeff : {0u, 1u, 2u, 77u, 255u}) {
    Bytes d2 = dst;
    for (std::size_t i = 0; i < src.size(); ++i) {
      expected[i] = static_cast<std::uint8_t>(
          dst[i] ^ gf256::mul(static_cast<std::uint8_t>(coeff), src[i]));
    }
    gf256::mul_add(static_cast<std::uint8_t>(coeff), src.data(), d2.data(),
                   d2.size());
    EXPECT_TRUE(equal(d2, expected)) << "coeff=" << coeff;
  }
}

// --- SHA-256 -------------------------------------------------------------------

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(crypto::digest_hex(crypto::sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAVector) {
  crypto::Sha256 h;
  const Bytes block(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(block);
  EXPECT_EQ(crypto::digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  crypto::Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    h.update(BytesView(data.data() + i, std::min<std::size_t>(7, data.size() - i)));
  }
  EXPECT_EQ(h.finish(), crypto::sha256(data));
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(crypto::sha256(to_bytes("chunk-a")),
            crypto::sha256(to_bytes("chunk-b")));
}

TEST(Sha256Test, HasherResetsAfterFinish) {
  crypto::Sha256 h;
  h.update(to_bytes("abc"));
  (void)h.finish();
  h.update(to_bytes("abc"));
  EXPECT_EQ(crypto::digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- SHA-256 arms ---------------------------------------------------------------
//
// The portable and SHA-NI compress arms must be bit-identical. The SHA-NI
// half of each check skips on hosts without the SHA extensions (or under
// -DCSHIELD_FORCE_SCALAR=ON, which compiles the arm out).

using crypto::Sha256Arm;

crypto::Digest digest_with(Sha256Arm arm, BytesView data) {
  crypto::Sha256 h(arm);
  h.update(data);
  return h.finish();
}

void expect_fips_vectors(Sha256Arm arm) {
  const std::string label(crypto::sha256_arm_name(arm));
  EXPECT_EQ(crypto::digest_hex(digest_with(arm, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
      << label;
  EXPECT_EQ(crypto::digest_hex(digest_with(arm, to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
      << label;
  EXPECT_EQ(crypto::digest_hex(digest_with(
                arm, to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlm"
                              "nomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
      << label;
  crypto::Sha256 h(arm);
  const Bytes block(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(block);
  EXPECT_EQ(crypto::digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
      << label;
}

// Digest of the concatenated digests of messages 0..1199 bytes long, byte j
// of each being (31j + 7) mod 256. Covers every padding boundary (55/56/63/
// 64 mod 64) and multi-block update. The golden value comes from an
// independent implementation (Python's hashlib).
std::string every_length_digest(Sha256Arm arm) {
  crypto::Sha256 chain(arm);
  Bytes msg;
  for (std::size_t len = 0; len < 1200; ++len) {
    const crypto::Digest d = digest_with(arm, msg);
    chain.update(BytesView(d.data(), d.size()));
    msg.push_back(static_cast<std::uint8_t>(len * 31 + 7));
  }
  return crypto::digest_hex(chain.finish());
}
constexpr const char* kEveryLengthGolden =
    "a1c9435c39ef2d52e9c0fb19d5ee1fa903d5bf2068b05fcaca35d9b710c684df";

/// Hashes `data` through update() calls of random lengths (zero included).
crypto::Digest digest_split(Sha256Arm arm, BytesView data, Rng& rng) {
  crypto::Sha256 h(arm);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take =
        std::min<std::size_t>(rng.below(200), data.size() - off);
    h.update(BytesView(data.data() + off, take));
    off += take;
  }
  return h.finish();
}

TEST(Sha256ArmTest, PortableArmPassesFipsVectors) {
  expect_fips_vectors(Sha256Arm::kPortable);
  EXPECT_EQ(every_length_digest(Sha256Arm::kPortable), kEveryLengthGolden);
}

TEST(Sha256ArmTest, ShaNiArmPassesFipsVectors) {
  if (!crypto::sha256_arm_available(Sha256Arm::kShaNi)) {
    GTEST_SKIP() << "host has no SHA extensions";
  }
  expect_fips_vectors(Sha256Arm::kShaNi);
  EXPECT_EQ(every_length_digest(Sha256Arm::kShaNi), kEveryLengthGolden);
}

TEST(Sha256ArmTest, ShaNiMatchesPortableOnEveryLength) {
  if (!crypto::sha256_arm_available(Sha256Arm::kShaNi)) {
    GTEST_SKIP() << "host has no SHA extensions";
  }
  Rng rng(0x5A);
  Bytes msg;
  for (std::size_t len = 0; len < 1200; ++len) {
    ASSERT_EQ(digest_with(Sha256Arm::kShaNi, msg),
              digest_with(Sha256Arm::kPortable, msg))
        << "len=" << len;
    msg.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
}

// Every available arm, fed in random pieces, matches the portable one-shot.
TEST(Sha256ArmTest, RandomUpdateSplitsMatchOneShot) {
  const bool sha_ni = crypto::sha256_arm_available(Sha256Arm::kShaNi);
  Rng rng(0x5B);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data(rng.below(3000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    const crypto::Digest want = digest_with(Sha256Arm::kPortable, data);
    EXPECT_EQ(digest_split(Sha256Arm::kPortable, data, rng), want)
        << "trial=" << trial;
    if (sha_ni) {
      EXPECT_EQ(digest_split(Sha256Arm::kShaNi, data, rng), want)
          << "trial=" << trial;
    }
  }
}

TEST(Sha256ArmTest, ActiveArmFollowsOverride) {
  // Bound once per process: the env override pins the portable arm,
  // otherwise the hasher takes SHA-NI whenever the host has it.
  const char* force = std::getenv("CSHIELD_FORCE_SCALAR");
  const bool forced = force != nullptr && std::string_view(force) != "0";
  const bool sha_ni = crypto::sha256_arm_available(Sha256Arm::kShaNi);
  EXPECT_EQ(crypto::sha256_active_arm(),
            sha_ni && !forced ? Sha256Arm::kShaNi : Sha256Arm::kPortable);
}

TEST(Sha256ArmTest, UnavailableArmThrows) {
  if (crypto::sha256_arm_available(Sha256Arm::kShaNi)) {
    GTEST_SKIP() << "host has SHA extensions; nothing unavailable to probe";
  }
  EXPECT_THROW(crypto::Sha256{Sha256Arm::kShaNi}, std::invalid_argument);
}

// --- AES-128 ----------------------------------------------------------------------

crypto::AesKey fips_key() {
  return {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
}

TEST(AesTest, Fips197EncryptVector) {
  crypto::Aes128 aes(fips_key());
  crypto::AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                            0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  aes.encrypt_block(block);
  const crypto::AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                     0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                     0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(block, expected);
}

TEST(AesTest, Fips197DecryptInverts) {
  crypto::Aes128 aes(fips_key());
  crypto::AesBlock block = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                            0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  aes.decrypt_block(block);
  const crypto::AesBlock expected = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                     0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                     0xcc, 0xdd, 0xee, 0xff};
  EXPECT_EQ(block, expected);
}

TEST(AesTest, Sp80038aEcbVectors) {
  // SP 800-38A F.1.1 ECB-AES128 (block encrypts under the standard key).
  const crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  crypto::Aes128 aes(key);
  crypto::AesBlock block = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                            0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  aes.encrypt_block(block);
  const crypto::AesBlock expected = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a,
                                     0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3,
                                     0x24, 0x66, 0xef, 0x97};
  EXPECT_EQ(block, expected);
}

TEST(AesTest, EncryptDecryptRandomBlocks) {
  Rng rng(4);
  crypto::AesKey key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  crypto::Aes128 aes(key);
  for (int i = 0; i < 100; ++i) {
    crypto::AesBlock block{};
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.below(256));
    const crypto::AesBlock original = block;
    aes.encrypt_block(block);
    EXPECT_NE(block, original);
    aes.decrypt_block(block);
    EXPECT_EQ(block, original);
  }
}

TEST(AesCtrTest, RoundTripArbitraryLengths) {
  Rng rng(5);
  crypto::AesKey key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    const Bytes ct = crypto::aes128_ctr(key, 0xABCD, data);
    EXPECT_EQ(ct.size(), data.size());
    const Bytes pt = crypto::aes128_ctr(key, 0xABCD, ct);
    EXPECT_TRUE(equal(pt, data)) << "len=" << len;
  }
}

TEST(AesCtrTest, FirstBlockMatchesManualKeystream) {
  const crypto::AesKey key = fips_key();
  const std::uint64_t nonce = 0x0123456789ABCDEFULL;
  // Keystream block 0 = AES-Enc(key, nonce || 0).
  crypto::AesBlock counter{};
  for (int i = 0; i < 8; ++i) {
    counter[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }
  crypto::Aes128 aes(key);
  crypto::AesBlock keystream = counter;
  aes.encrypt_block(keystream);
  const Bytes zeros(16, 0);
  const Bytes ct = crypto::aes128_ctr(key, nonce, zeros);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ct[static_cast<std::size_t>(i)],
              keystream[static_cast<std::size_t>(i)]);
  }
}

TEST(AesCtrTest, DifferentNoncesProduceDifferentCiphertext) {
  const crypto::AesKey key = fips_key();
  const Bytes data(64, 0x42);
  EXPECT_FALSE(equal(crypto::aes128_ctr(key, 1, data),
                     crypto::aes128_ctr(key, 2, data)));
}

TEST(AesCtrTest, CiphertextLooksUniform) {
  // Weak sanity check: byte histogram of a long zero-plaintext CTR stream
  // should not be wildly skewed.
  const crypto::AesKey key = fips_key();
  const Bytes zeros(1 << 16, 0);
  const Bytes ct = crypto::aes128_ctr(key, 7, zeros);
  std::array<int, 256> hist{};
  for (auto b : ct) ++hist[b];
  const double expected = static_cast<double>(ct.size()) / 256.0;
  for (int h : hist) {
    EXPECT_GT(h, expected * 0.5);
    EXPECT_LT(h, expected * 1.5);
  }
}

// --- AES arms ---------------------------------------------------------------------
//
// The portable and AES-NI arms must be byte-identical. The AES-NI half of
// each check skips on hosts without AES-NI (or under
// -DCSHIELD_FORCE_SCALAR=ON, which compiles the arm out).

using crypto::AesArm;

void expect_ecb_vectors(AesArm arm) {
  const std::string label(crypto::aes_arm_name(arm));
  crypto::AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                            0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  crypto::Aes128(fips_key(), arm).encrypt_block(block);
  EXPECT_EQ(block, (crypto::AesBlock{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                     0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                     0x70, 0xb4, 0xc5, 0x5a}))
      << label;
  // SP 800-38A F.1.1 ECB-AES128, all four blocks.
  const crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const crypto::Aes128 aes(key, arm);
  const char* const vectors[4][2] = {
      {"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
      {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
      {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"}};
  for (const auto& v : vectors) {
    const Bytes plain = from_hex(v[0]);
    crypto::AesBlock b{};
    std::copy(plain.begin(), plain.end(), b.begin());
    aes.encrypt_block(b);
    EXPECT_EQ(to_hex(BytesView(b.data(), b.size())), v[1]) << label;
  }
}

Bytes ctr_with(AesArm arm, const crypto::AesKey& key, std::uint64_t nonce,
               BytesView data) {
  Bytes out(data.begin(), data.end());
  crypto::Aes128(key, arm).ctr(nonce, out.data(), out.size());
  return out;
}

TEST(AesArmTest, PortableArmPassesEcbVectors) {
  expect_ecb_vectors(AesArm::kPortable);
}

TEST(AesArmTest, AesNiArmPassesEcbVectors) {
  if (!crypto::aes_arm_available(AesArm::kAesNi)) {
    GTEST_SKIP() << "host has no AES-NI";
  }
  expect_ecb_vectors(AesArm::kAesNi);
}

TEST(AesArmTest, AesNiCtrMatchesPortableOnEveryLength) {
  if (!crypto::aes_arm_available(AesArm::kAesNi)) {
    GTEST_SKIP() << "host has no AES-NI";
  }
  Rng rng(0xAE5);
  Bytes msg;
  for (std::size_t len = 0; len < 1200; ++len) {
    crypto::AesKey key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
    // High bit set: the counter's byte order must hold in the top byte too.
    const std::uint64_t nonce = rng.next() | (std::uint64_t{1} << 63);
    ASSERT_EQ(ctr_with(AesArm::kAesNi, key, nonce, msg),
              ctr_with(AesArm::kPortable, key, nonce, msg))
        << "len=" << len;
    msg.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
}

// ctr() on a window of a larger buffer, at every alignment, touches only the
// window and equals the one-shot copy.
TEST(AesArmTest, InPlaceCtrAtUnalignedOffsetsMatchesOneShot) {
  const crypto::AesKey key = fips_key();
  Rng rng(0xAE6);
  Bytes base(4096 + 64);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.below(256));
  for (AesArm arm : {AesArm::kPortable, AesArm::kAesNi}) {
    if (!crypto::aes_arm_available(arm)) continue;
    const crypto::Aes128 aes(key, arm);
    for (std::size_t offset = 0; offset < 32; ++offset) {
      for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 127u, 128u, 129u, 4000u}) {
        Bytes buf = base;
        const std::uint64_t nonce = 0x8000000000000000ULL + offset;
        aes.ctr(nonce, buf.data() + offset, len);
        const Bytes want = crypto::aes128_ctr(
            key, nonce, BytesView(base.data() + offset, len));
        ASSERT_TRUE(equal(BytesView(buf.data() + offset, len), want))
            << crypto::aes_arm_name(arm) << " offset=" << offset
            << " len=" << len;
        ASSERT_TRUE(equal(BytesView(buf.data(), offset),
                          BytesView(base.data(), offset)));
        ASSERT_TRUE(equal(BytesView(buf.data() + offset + len,
                                    buf.size() - offset - len),
                          BytesView(base.data() + offset + len,
                                    base.size() - offset - len)));
      }
    }
  }
}

TEST(AesArmTest, ActiveArmFollowsOverride) {
  // Bound once per process: the env override pins the portable arm,
  // otherwise ciphers take AES-NI whenever the host has it.
  const char* force = std::getenv("CSHIELD_FORCE_SCALAR");
  const bool forced = force != nullptr && std::string_view(force) != "0";
  const bool aes_ni = crypto::aes_arm_available(AesArm::kAesNi);
  EXPECT_EQ(crypto::aes_active_arm(),
            aes_ni && !forced ? AesArm::kAesNi : AesArm::kPortable);
}

TEST(AesArmTest, UnavailableArmThrows) {
  if (crypto::aes_arm_available(AesArm::kAesNi)) {
    GTEST_SKIP() << "host has AES-NI; nothing unavailable to probe";
  }
  EXPECT_THROW(crypto::Aes128(fips_key(), AesArm::kAesNi),
               std::invalid_argument);
}

}  // namespace
}  // namespace cshield
