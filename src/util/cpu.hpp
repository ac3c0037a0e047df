// CPU feature detection for the runtime-dispatched SIMD kernels.
//
// The erasure-code data plane (crypto/gf256_kernels) picks its widest usable
// arm once per process: AVX2 when the host has it, SSSE3 below that, and a
// portable 64-bit SWAR arm everywhere else. The SHA-256 digest
// (crypto/sha256) likewise binds its SHA-NI compress when the host has the
// x86 SHA extensions, and the portable FIPS 180-4 loop otherwise; AES-128
// (crypto/aes) binds its AES-NI arm when the host has AES-NI, and the
// portable FIPS-197 rounds otherwise. Detection is a one-time CPUID probe;
// the result is cached in a function-local static so the hot paths never
// re-query.
//
// Overrides, strongest first:
//   * CMake -DCSHIELD_FORCE_SCALAR=ON compiles the SIMD, SHA-NI and AES-NI
//     arms out entirely (the macro CSHIELD_FORCE_SCALAR is defined;
//     hardware_level() reports kScalar, hardware_sha() and hardware_aes()
//     false).
//   * Environment CSHIELD_FORCE_SCALAR=1 (any value other than "0"/"swar")
//     forces the byte-at-a-time scalar arm at startup.
//   * CSHIELD_FORCE_SCALAR=swar forces the portable word-wide arm, which is
//     what non-x86 hosts get by default.
//   * Any value other than "0" (so "swar" too) pins the portable SHA-256
//     compress and the portable AES rounds.
#pragma once

#include <cstdlib>
#include <string_view>

namespace cshield::cpu {

/// Kernel arms, ordered weakest to widest.
enum class SimdLevel { kScalar, kSwar, kSsse3, kAvx2 };

[[nodiscard]] constexpr std::string_view simd_level_name(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSwar: return "swar64";
    case SimdLevel::kSsse3: return "ssse3";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "invalid";
}

/// Raw hardware capability (ignores every override). On non-x86 builds the
/// ceiling is the portable SWAR arm.
[[nodiscard]] inline SimdLevel hardware_level() {
#if defined(CSHIELD_FORCE_SCALAR)
  return SimdLevel::kScalar;
#elif defined(__x86_64__) || defined(__i386__)
  static const SimdLevel level = [] {
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("ssse3")) return SimdLevel::kSsse3;
    return SimdLevel::kSwar;
  }();
  return level;
#else
  return SimdLevel::kSwar;
#endif
}

/// Raw SHA extensions capability: SHA-NI plus the SSE4.1 its compress
/// shuffles need (ignores the environment override). Always false when the
/// build forced SIMD out and on non-x86 builds.
[[nodiscard]] inline bool hardware_sha() {
#if defined(CSHIELD_FORCE_SCALAR)
  return false;
#elif defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("sha") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
#else
  return false;
#endif
}

/// Raw AES-NI capability: the AES instructions plus the SSSE3 byte shuffle
/// that builds CTR counter blocks (ignores the environment override).
/// Always false when the build forced SIMD out and on non-x86 builds.
[[nodiscard]] inline bool hardware_aes() {
#if defined(CSHIELD_FORCE_SCALAR)
  return false;
#elif defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("aes") &&
                          __builtin_cpu_supports("ssse3");
  return has;
#else
  return false;
#endif
}

/// The CSHIELD_FORCE_SCALAR environment value, read once per process;
/// null when unset or "0".
[[nodiscard]] inline const char* force_scalar_env() {
  static const char* const value = [] {
    const char* force = std::getenv("CSHIELD_FORCE_SCALAR");
    return force != nullptr && std::string_view(force) != "0" ? force
                                                              : nullptr;
  }();
  return value;
}

/// Hardware level clamped by the CSHIELD_FORCE_SCALAR environment override.
/// This is what the kernel dispatcher binds at startup.
[[nodiscard]] inline SimdLevel preferred_level() {
  static const SimdLevel level = [] {
    if (const char* force = force_scalar_env()) {
      return std::string_view(force) == "swar" ? SimdLevel::kSwar
                                               : SimdLevel::kScalar;
    }
    return hardware_level();
  }();
  return level;
}

/// hardware_sha() clamped by the environment override: any
/// CSHIELD_FORCE_SCALAR value pins the portable SHA-256 compress. This is
/// what crypto/sha256 binds at startup.
[[nodiscard]] inline bool preferred_sha() {
  return hardware_sha() && force_scalar_env() == nullptr;
}

/// hardware_aes() clamped by the environment override: any
/// CSHIELD_FORCE_SCALAR value pins the portable AES rounds. This is what
/// crypto/aes binds at startup.
[[nodiscard]] inline bool preferred_aes() {
  return hardware_aes() && force_scalar_env() == nullptr;
}

}  // namespace cshield::cpu
