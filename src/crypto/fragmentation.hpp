// Key-less fragment entanglement (fast fragmentation).
//
// Kapusta & Memmi ("A Fast Fragmentation Algorithm For Data Protection In a
// Multi-Cloud Environment", PAPERS.md) replace bulk encryption with an
// all-or-nothing transform over the fragments of a dispersed object: every
// output fragment is a mix of ALL input fragments, so an adversary holding
// j < k of them faces 256^((k-j)*L) candidate preimages -- the security
// comes from dispersal, not from a client-held key.
//
// Our construction over the distributor's contiguous padded chunk payload
// (the stripe arena raid::encode slices into k data shards):
//
//   1. whiten   -- XOR a SplitMix64 keystream expanded from a per-chunk
//                  nonce (stored in the distributor-side Chunk Table, never
//                  shipped to providers), one 64-bit word at a time.
//                  Destroys plaintext byte statistics inside each fragment.
//   2. forward  -- for i = 1..k-1:   f[i] ^= c_i * f[i-1]   over GF(2^8)
//   3. backward -- for i = k-2..0:   f[i] ^= d_i * f[i+1]
//
// Steps 1 and 2 are fused: each fragment is whitened just before the
// forward step that first reads it, so the whitening adds no pass of its
// own over the chunk. The output is that of the three separate steps.
//
// The sweeps run on the dispatched gf256::kernels::mul_add arms (scalar /
// SWAR / SSSE3 / AVX2 -- bit-identical by construction and by
// tests/fragmentation_test.cpp), so entangling rides the same 20+ GB/s
// data plane as parity. After the forward chain f[k-1] depends on every
// fragment; the backward chain then propagates that dependency to every
// earlier fragment, so each output fragment is a full-rank linear
// combination of all k inputs. Detangling replays the elementary row
// operations in exact reverse order (each is a self-inverse XOR update),
// stripping each fragment's whitening as soon as its forward step is
// undone.
//
// The mixing coefficients are public constants derived from the fragment
// index -- the all-or-nothing argument does not rest on their secrecy, only
// on the adversary's missing fragments. The nonce adds defense in depth:
// without the metadata tables even the keystream is unknown.
//
// Fragment geometry: a payload of n bytes splits into k fragments of
// L = ceil(n/k) bytes, the last one short (possibly empty). This matches
// raid::encode's shard slicing exactly, so "fragment i" and "data shard i"
// are the same bytes. Sweeps at the ragged tail mix over the overlap
// length; every byte still depends on every fragment that has a byte at
// its offset.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace cshield::crypto::fragmentation {

/// Public mixing coefficient of the forward sweep at fragment i (1..k-1).
/// Always nonzero, so every sweep step is a proper row operation.
[[nodiscard]] std::uint8_t forward_coeff(std::size_t i);

/// Public mixing coefficient of the backward sweep at fragment i (0..k-2).
[[nodiscard]] std::uint8_t backward_coeff(std::size_t i);

/// Entangles `n` bytes in place as `fragments` contiguous fragments.
/// fragments == 0 is treated as 1 (whitening only); n == 0 is a no-op.
void entangle(std::uint8_t* data, std::size_t n, std::size_t fragments,
              std::uint64_t nonce);

/// Exact inverse of entangle with the same (fragments, nonce).
void detangle(std::uint8_t* data, std::size_t n, std::size_t fragments,
              std::uint64_t nonce);

inline void entangle(Bytes& data, std::size_t fragments,
                     std::uint64_t nonce) {
  entangle(data.data(), data.size(), fragments, nonce);
}

inline void detangle(Bytes& data, std::size_t fragments,
                     std::uint64_t nonce) {
  detangle(data.data(), data.size(), fragments, nonce);
}

}  // namespace cshield::crypto::fragmentation
