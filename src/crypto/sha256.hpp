// SHA-256 (FIPS 180-4).
//
// Used for chunk integrity digests: the distributor stores a digest per chunk
// so silent corruption at a provider is detected on read (the paper's threat
// model includes providers an attacker has compromised). Verified against the
// FIPS test vectors in tests/crypto_test.cpp.
//
// The block compress has two arms:
//
//   kPortable  the FIPS 180-4 reference loop; runs everywhere.
//   kShaNi     the x86 SHA extensions (SHA256RNDS2/MSG1/MSG2), several
//              times faster per byte.
//
// Every default-constructed hasher uses the arm bound once per process
// (util/cpu.hpp: SHA-NI when the host has it, unless CSHIELD_FORCE_SCALAR is
// set in the environment or at build time). The arms are bit-identical by
// test: tests/crypto_test.cpp runs every FIPS vector under both and sweeps
// them against each other.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cshield::crypto {

/// 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// SHA-256 block-compress arms.
enum class Sha256Arm { kPortable, kShaNi };

[[nodiscard]] std::string_view sha256_arm_name(Sha256Arm arm);

/// True when `arm` can execute on this host (kPortable always can; kShaNi
/// needs the SHA extensions and a build that did not force SIMD out).
[[nodiscard]] bool sha256_arm_available(Sha256Arm arm);

/// The arm default-constructed hashers use (bound on first use).
[[nodiscard]] Sha256Arm sha256_active_arm();

/// Incremental hasher; also see the one-shot sha256() below.
class Sha256 {
 public:
  Sha256();
  /// A hasher pinned to one arm (tests and benches). Requires
  /// sha256_arm_available(arm).
  explicit Sha256(Sha256Arm arm);

  void reset();
  void update(BytesView data);
  [[nodiscard]] Digest finish();

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

  CompressFn compress_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot digest.
[[nodiscard]] Digest sha256(BytesView data);

/// Hex rendering for logs/tests.
[[nodiscard]] std::string digest_hex(const Digest& d);

}  // namespace cshield::crypto
