// Little-endian binary wire format helpers shared by the record codec and
// the metadata-table serializer. Writer appends primitives to a Bytes
// buffer; Reader consumes them with explicit underflow signalling (returns
// false rather than throwing -- truncated input is data, not a bug).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace cshield::wire {

/// Stores `v` little-endian at p[0, sizeof(T)).
template <typename T>
constexpr void store_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Loads a little-endian T from p[0, sizeof(T)).
template <typename T>
[[nodiscard]] constexpr T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { store_le(grow(sizeof(v)), v); }
  void u64(std::uint64_t v) { store_le(grow(sizeof(v)), v); }

  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(d));
    u64(bits);
  }

  /// Length-prefixed string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(out_, BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size()));
  }

  /// Length-prefixed raw bytes.
  void bytes(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(out_, b);
  }

  /// Count-prefixed u32 array, the same bytes as a u32 count followed by
  /// one u32() per element, written into the buffer as one block.
  void u32s(std::span<const std::uint32_t> vs) {
    u32(static_cast<std::uint32_t>(vs.size()));
    std::uint8_t* p = grow(sizeof(std::uint32_t) * vs.size());
    for (std::uint32_t v : vs) {
      store_le(p, v);
      p += sizeof(v);
    }
  }

 private:
  /// Extends the buffer by `n` bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  Bytes& out_;
};

class Reader {
 public:
  explicit Reader(BytesView b) : b_(b) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (pos_ + 1 > b_.size()) return false;
    v = b_[pos_++];
    return true;
  }

  [[nodiscard]] bool u32(std::uint32_t& v) { return le(v); }
  [[nodiscard]] bool u64(std::uint64_t& v) { return le(v); }

  [[nodiscard]] bool f64(double& d) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&d, &bits, sizeof(d));
    return true;
  }

  [[nodiscard]] bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (pos_ + len > b_.size()) return false;
    s.assign(reinterpret_cast<const char*>(b_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  /// Exactly out.size() raw bytes, no length prefix.
  [[nodiscard]] bool raw(std::span<std::uint8_t> out) {
    if (out.size() > remaining()) return false;
    std::memcpy(out.data(), b_.data() + pos_, out.size());
    pos_ += out.size();
    return true;
  }

  /// Count-prefixed u32 array (the form Writer::u32s writes).
  [[nodiscard]] bool u32s(std::vector<std::uint32_t>& out) {
    std::uint32_t n = 0;
    if (!u32(n) || static_cast<std::size_t>(n) > remaining() / 4) {
      return false;
    }
    out.resize(n);
    for (std::uint32_t& v : out) {
      v = load_le<std::uint32_t>(b_.data() + pos_);
      pos_ += sizeof(v);
    }
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return b_.size() - pos_; }

 private:
  template <typename T>
  [[nodiscard]] bool le(T& v) {
    if (sizeof(T) > remaining()) return false;
    v = load_le<T>(b_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  BytesView b_;
  std::size_t pos_ = 0;
};

}  // namespace cshield::wire
