#include "core/misleading.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cshield::core {

MisleadingCodec::Encoded MisleadingCodec::inject(BytesView data,
                                                 double fraction, Rng& rng) {
  CS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
             "misleading fraction outside [0,1]");
  Encoded out;
  if (fraction == 0.0 || data.empty()) {
    out.data.assign(data.begin(), data.end());
    return out;
  }
  const std::size_t chaff = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(data.size())));
  const std::size_t total = data.size() + chaff;

  // Choose chaff positions uniformly over the final buffer with Floyd's
  // algorithm for a sample of `chaff` distinct indices in [0, total).
  // Membership is one bit per output byte, so the sorted position list falls
  // out of a word-by-word scan; the rng.below() draws are the same calls in
  // the same order whatever the set representation.
  std::vector<std::uint64_t> chosen((total + 63) / 64, 0);
  const auto test_and_set = [&chosen](std::size_t i) {
    std::uint64_t& word = chosen[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const bool was_set = (word & bit) != 0;
    word |= bit;
    return was_set;
  };
  for (std::size_t j = total - chaff; j < total; ++j) {
    if (test_and_set(rng.below(j + 1))) test_and_set(j);
  }
  out.positions.reserve(chaff);
  for (std::size_t w = 0; w < chosen.size(); ++w) {
    for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
      out.positions.push_back(
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }

  // Copy the real bytes between chaff positions as runs. Each chaff byte is
  // sampled from the real payload's byte distribution, so it is
  // statistically indistinguishable from data; they are drawn in position
  // order.
  out.data.resize(total);
  std::uint8_t* dst = out.data.data();
  std::size_t src = 0;
  std::size_t next = 0;  // first output index not yet written
  for (const std::uint32_t p : out.positions) {
    const std::size_t run = p - next;
    std::memcpy(dst + next, data.data() + src, run);
    src += run;
    dst[p] = data[rng.below(data.size())];
    next = p + std::size_t{1};
  }
  std::memcpy(dst + next, data.data() + src, total - next);
  src += total - next;
  CS_REQUIRE(src == data.size() && out.positions.size() == chaff,
             "misleading inject accounting error");
  return out;
}

Bytes MisleadingCodec::strip(BytesView data,
                             const std::vector<std::uint32_t>& positions) {
  if (positions.empty()) return Bytes(data.begin(), data.end());
  CS_REQUIRE(positions.size() <= data.size(),
             "strip: more chaff positions than bytes");
  Bytes out(data.size() - positions.size());
  std::uint8_t* dst = out.data();
  std::size_t next = 0;  // first input index not yet consumed
  for (const std::uint32_t p : positions) {
    CS_REQUIRE(p < data.size(), "strip: position beyond buffer end");
    CS_REQUIRE(p >= next, "strip: positions not strictly increasing");
    // `out` is empty (data() may be null) when every byte is chaff, so
    // zero-length runs skip the copy.
    const std::size_t run = p - next;
    if (run != 0) std::memcpy(dst, data.data() + next, run);
    dst += run;
    next = p + std::size_t{1};
  }
  if (next < data.size()) {
    std::memcpy(dst, data.data() + next, data.size() - next);
  }
  return out;
}

}  // namespace cshield::core
