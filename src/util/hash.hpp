// Non-cryptographic hashing used for table lookups, the DHT ring, and
// deterministic derivation of virtual-id streams. Integrity digests use
// crypto/sha256 instead -- never these.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cshield {

/// FNV-1a 64-bit over raw bytes.
[[nodiscard]] constexpr std::uint64_t fnv1a64(const char* data,
                                              std::size_t size) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  return fnv1a64(s.data(), s.size());
}

[[nodiscard]] inline std::uint64_t fnv1a64(BytesView b) {
  return fnv1a64(reinterpret_cast<const char*>(b.data()), b.size());
}

namespace detail {

/// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320, built
/// at compile time: kCrc32Tables[k][b] is the CRC register after byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the register
/// over eight input bytes at once.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) -- the frame
/// checksum of the write-ahead journal, so it runs over every byte of every
/// record on append and again on replay (a bulk put's record is ~110 KB).
/// Slice-by-8: eight bytes per step through the compile-time tables above,
/// then a byte-at-a-time tail. Portable C++, the same value as the bitwise
/// definition for every input. Known vector: crc32("123456789") ==
/// 0xCBF43926.
[[nodiscard]] constexpr std::uint32_t crc32(const std::uint8_t* data,
                                            std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint8_t* p = data + i;
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; i < size; ++i) crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

[[nodiscard]] inline std::uint32_t crc32(BytesView b) {
  return crc32(b.data(), b.size());
}

/// Strong 64-bit avalanche mix (SplitMix64 finalizer).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// boost-style hash combine with a 64-bit constant.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t v) {
  return seed ^ (mix64(v) + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace cshield
