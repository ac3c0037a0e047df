// AES-128 block cipher and CTR-mode stream (FIPS 197 / SP 800-38A).
//
// This is the "encrypt everything at the client" baseline the paper argues
// against in SVII-E and the cipher behind the distributor's partial-AES
// protection mode, so it must cost what a real host pays for AES.
//
// Block encryption has two arms, bound per cipher object at construction:
//
//   kPortable  the textbook FIPS-197 rounds: S-box lookups and a bit-loop
//              GF(2^8) multiply in MixColumns; runs everywhere.
//   kAesNi     the x86 AES instructions (AESENC/AESENCLAST), CTR mode
//              interleaving four blocks so the AES unit stays busy.
//
// Both arms use the one portable key schedule; the AES-NI arm loads its 11
// round keys from it, so there is no second key expansion. Default-built
// ciphers take the arm bound once per process (util/cpu.hpp: AES-NI when
// the host has it, unless CSHIELD_FORCE_SCALAR is set in the environment or
// at build time). The arms are byte-identical by test: tests/crypto_test.cpp
// runs the FIPS-197 and SP 800-38A vectors under each and sweeps their CTR
// streams against each other. Decryption of single blocks is portable only;
// CTR mode never needs it. (The portable arm is not hardened against timing
// side channels.)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cshield::crypto {

using AesKey = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/// AES block-encryption arms.
enum class AesArm { kPortable, kAesNi };

[[nodiscard]] std::string_view aes_arm_name(AesArm arm);

/// True when `arm` can execute on this host (kPortable always can; kAesNi
/// needs AES-NI and SSSE3 and a build that did not force SIMD out).
[[nodiscard]] bool aes_arm_available(AesArm arm);

/// The arm default-constructed ciphers use (bound on first use).
[[nodiscard]] AesArm aes_active_arm();

/// AES-128 with a precomputed key schedule.
class Aes128 {
 public:
  /// Requires aes_arm_available(arm).
  explicit Aes128(const AesKey& key, AesArm arm = aes_active_arm());

  /// Encrypts one 16-byte block in place.
  void encrypt_block(AesBlock& block) const;

  /// Decrypts one 16-byte block in place (portable arm).
  void decrypt_block(AesBlock& block) const;

  /// CTR mode in place: XORs the keystream into `data[0, n)`. Encryption
  /// and decryption are the same operation. `nonce` is the first 8 bytes
  /// of the counter block (big-endian); the remaining 8 are a big-endian
  /// block index starting at 0.
  void ctr(std::uint64_t nonce, std::uint8_t* data, std::size_t n) const;

 private:
  AesArm arm_;
  std::array<std::uint8_t, 176> round_keys_{};  // 11 round keys x 16 bytes
};

/// One-shot CTR over a copy of `data` under the active arm.
[[nodiscard]] Bytes aes128_ctr(const AesKey& key, std::uint64_t nonce,
                               BytesView data);

}  // namespace cshield::crypto
