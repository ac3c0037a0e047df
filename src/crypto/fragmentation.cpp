#include "crypto/fragmentation.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/gf256_kernels.hpp"
#include "util/hash.hpp"

namespace cshield::crypto::fragmentation {
namespace {

/// One fragment's [pointer, length) within the payload. Fragment i occupies
/// [i*L, min((i+1)*L, n)) for L = ceil(n/k) -- raid::encode's shard slices.
struct Frag {
  std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

[[nodiscard]] Frag frag_at(std::uint8_t* data, std::size_t n, std::size_t len,
                           std::size_t i) {
  const std::size_t begin = i * len;
  if (begin >= n) return {};
  return {data + begin, std::min(len, n - begin)};
}

/// XORs the SplitMix64-finalizer keystream expanded from `nonce` over
/// payload bytes [begin, end). Self-inverse. Byte j of block b is byte j of
/// mix64(nonce ^ phi*(b+1)) in little-endian order, where block b covers
/// payload bytes [8b, 8b+8) -- a fixed formula, independent of the range
/// split, so the pinned reference in tests/fragmentation_test.cpp can
/// reproduce it byte-at-a-time. Whole blocks XOR as one 64-bit word.
void whiten(std::uint8_t* data, std::size_t begin, std::size_t end,
            std::uint64_t nonce) {
  constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ULL;
  const auto keystream = [&](std::size_t block) {
    return mix64(nonce ^ (kPhi * (block + 1)));
  };
  const auto xor_bytes = [&](std::size_t from, std::size_t to) {
    const std::uint64_t ks = keystream(from / 8);
    for (std::size_t off = from; off < to; ++off) {
      data[off] ^= static_cast<std::uint8_t>(ks >> (8 * (off % 8)));
    }
  };
  std::size_t off = begin;
  if (off % 8 != 0 && off < end) {
    const std::size_t head_end = std::min(end, (off / 8 + 1) * 8);
    xor_bytes(off, head_end);
    off = head_end;
  }
  for (; off + 8 <= end; off += 8) {
    std::uint64_t ks = keystream(off / 8);
    if constexpr (std::endian::native == std::endian::big) {
      ks = __builtin_bswap64(ks);
    }
    std::uint64_t word;
    std::memcpy(&word, data + off, 8);
    word ^= ks;
    std::memcpy(data + off, &word, 8);
  }
  if (off < end) xor_bytes(off, end);
}

/// Whitens fragment i of an n-byte payload cut into fragments of `len`.
void whiten_frag(std::uint8_t* data, std::size_t n, std::size_t len,
                 std::size_t i, std::uint64_t nonce) {
  const std::size_t begin = std::min(i * len, n);
  whiten(data, begin, std::min(begin + len, n), nonce);
}

/// Nonzero coefficient in [1, 255] from a mixed index; `salt` separates the
/// forward and backward schedules.
[[nodiscard]] std::uint8_t coeff(std::size_t i, std::uint64_t salt) {
  return static_cast<std::uint8_t>(1 + mix64(salt ^ i) % 255);
}

}  // namespace

std::uint8_t forward_coeff(std::size_t i) { return coeff(i, 0xF0A4C1D5ULL); }

std::uint8_t backward_coeff(std::size_t i) { return coeff(i, 0xB1E55EDULL); }

void entangle(std::uint8_t* data, std::size_t n, std::size_t fragments,
              std::uint64_t nonce) {
  if (n == 0) return;
  const std::size_t k = std::max<std::size_t>(1, fragments);
  const std::size_t len = (n + k - 1) / k;
  // Fragment i is whitened just before the forward step that first reads
  // it, while the sweep is about to bring it into cache anyway.
  whiten_frag(data, n, len, 0, nonce);
  for (std::size_t i = 1; i < k; ++i) {
    whiten_frag(data, n, len, i, nonce);
    const Frag dst = frag_at(data, n, len, i);
    const Frag src = frag_at(data, n, len, i - 1);
    const std::size_t m = std::min(dst.len, src.len);
    if (m != 0) gf256::kernels::mul_add(forward_coeff(i), src.data, dst.data, m);
  }
  for (std::size_t i = k - 1; i-- > 0;) {
    const Frag dst = frag_at(data, n, len, i);
    const Frag src = frag_at(data, n, len, i + 1);
    const std::size_t m = std::min(dst.len, src.len);
    if (m != 0) {
      gf256::kernels::mul_add(backward_coeff(i), src.data, dst.data, m);
    }
  }
}

void detangle(std::uint8_t* data, std::size_t n, std::size_t fragments,
              std::uint64_t nonce) {
  if (n == 0) return;
  const std::size_t k = std::max<std::size_t>(1, fragments);
  const std::size_t len = (n + k - 1) / k;
  // Undo the elementary row operations in exact reverse order: each reads
  // a fragment the sweep did not modify after that step, so the XOR update
  // cancels with the same operand bytes. Once its forward step is undone a
  // fragment is final but for the whitening, which is stripped right away.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    const Frag dst = frag_at(data, n, len, i);
    const Frag src = frag_at(data, n, len, i + 1);
    const std::size_t m = std::min(dst.len, src.len);
    if (m != 0) {
      gf256::kernels::mul_add(backward_coeff(i), src.data, dst.data, m);
    }
  }
  for (std::size_t i = k - 1; i >= 1; --i) {
    const Frag dst = frag_at(data, n, len, i);
    const Frag src = frag_at(data, n, len, i - 1);
    const std::size_t m = std::min(dst.len, src.len);
    if (m != 0) {
      gf256::kernels::mul_add(forward_coeff(i), src.data, dst.data, m);
    }
    whiten_frag(data, n, len, i, nonce);
  }
  whiten_frag(data, n, len, 0, nonce);
}

}  // namespace cshield::crypto::fragmentation
