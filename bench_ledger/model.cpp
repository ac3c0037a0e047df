// Workload table, the client model and the seeded op generator.
#include <cmath>
#include <cstring>
#include <optional>

#include "ledger.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace ledger {
namespace {

using cshield::Rng;

// Why each workload exists is in README.md; in short: bulk is the data
// plane, sensitive the per-chunk fixed cost, smallops the journal and
// request layer under real round trips, maintenance recovery and migration
// contending with foreground traffic.
const WorkloadSpec kWorkloads[] = {
    {"bulk", false, PrivacyLevel::kLow, ProtectionMode::kFragmentation,
     256 * 1024, 256 * 1024, {30, 40, 30, 0}, 4, false, 2, 4, false},
    {"sensitive", false, PrivacyLevel::kHigh, ProtectionMode::kPartialAes,
     64 * 1024, 64 * 1024, {25, 35, 40, 0}, 4, false, 4, 4, false},
    {"smallops", true, PrivacyLevel::kModerate,
     ProtectionMode::kMisleadingBytes, 1024, 8 * 1024, {30, 45, 10, 15}, 0,
     true, 64, 4, false},
    {"maintenance", false, PrivacyLevel::kModerate,
     ProtectionMode::kMisleadingBytes, 16 * 1024, 16 * 1024,
     {15, 50, 25, 10}, 0, false, 32, 3, true},
};

/// Zipf(theta) ranks over a population that changes size, after Gray et
/// al.'s generator (the one YCSB uses); zeta(n) is tabulated as n grows.
class Zipf {
 public:
  std::size_t sample(std::size_t n, Rng& rng) {
    if (n <= 1) return 0;
    while (zeta_.size() <= n) {
      const double k = static_cast<double>(zeta_.size());
      zeta_.push_back(zeta_.back() + 1.0 / std::pow(k, kTheta));
    }
    const double zetan = zeta_[n];
    const double alpha = 1.0 / (1.0 - kTheta);
    const double eta =
        (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) /
        (1.0 - zeta_[2] / zetan);
    const double u = rng.uniform();
    const double uz = u * zetan;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, kTheta)) return 1;
    const auto r = static_cast<std::size_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return std::min(r, n - 1);
  }

 private:
  static constexpr double kTheta = 0.99;
  std::vector<double> zeta_{0.0, 1.0};  ///< zeta_[k] = sum 1/i^theta, i<=k
};

std::uint32_t draw_offset(const Payloads& pool, std::uint32_t size,
                          Rng& rng) {
  return static_cast<std::uint32_t>(rng.below(pool.bytes.size() - size + 1));
}

OpKind draw_kind(const WorkloadSpec& w, Rng& rng) {
  double total = 0.0;
  for (double m : w.mix) total += m;
  double x = rng.uniform() * total;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    if (x < w.mix[k]) return static_cast<OpKind>(k);
    x -= w.mix[k];
  }
  return OpKind::kGet;
}

/// A live file of `cf`: Zipf over recency (newest hottest) or uniform.
std::uint32_t pick_file(const WorkloadSpec& w, const ClientFiles& cf,
                        Rng& rng, Zipf& zipf) {
  const std::size_t n = cf.order.size();
  if (w.zipf_reads) return cf.order[n - 1 - zipf.sample(n, rng)];
  return cf.order[rng.below(n)];
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return cshield::mix64(seed ^ cshield::mix64((stream << 32) ^ index ^
                                              0x1ED6E7ULL));
}

Op make_put(const WorkloadSpec& w, const Payloads& pool, Rng& rng,
            std::size_t client, std::uint32_t file) {
  Op op;
  op.kind = OpKind::kPut;
  op.client = static_cast<std::uint16_t>(client);
  op.file = file;
  op.size = w.min_bytes;
  if (w.max_bytes != w.min_bytes) {  // log-uniform
    const double lo = std::log(static_cast<double>(w.min_bytes));
    const double hi = std::log(static_cast<double>(w.max_bytes) + 1.0);
    op.size = std::clamp(
        static_cast<std::uint32_t>(std::exp(rng.uniform(lo, hi))),
        w.min_bytes, w.max_bytes);
  }
  op.offset = draw_offset(pool, op.size, rng);
  return op;
}

void Model::apply(const Op& op) {
  ClientFiles& c = clients[op.client];
  switch (op.kind) {
    case OpKind::kPut: {
      FileState f;
      f.size = op.size;
      const std::size_t n = (op.size + chunk_size - 1) / chunk_size;
      for (std::size_t i = 0; i < n; ++i) {
        f.chunk_off.push_back(op.offset +
                              static_cast<std::uint32_t>(i * chunk_size));
      }
      f.snapshot.assign(n, 0);
      c.files[op.file] = std::move(f);
      c.order.push_back(op.file);
      c.next_id = std::max(c.next_id, op.file + 1);
      return;
    }
    case OpKind::kUpdate: {
      FileState& f = c.files.at(op.file);
      f.chunk_off[op.serial] = op.offset;
      f.snapshot[op.serial] = 1;
      return;
    }
    case OpKind::kRemove:
      c.files.erase(op.file);
      if (!c.order.empty() && c.order.front() == op.file) {
        c.order.pop_front();
      } else {
        c.order.erase(std::find(c.order.begin(), c.order.end(), op.file));
      }
      return;
    case OpKind::kGet:
      return;
  }
}

std::uint64_t Model::retained_bytes() const {
  std::uint64_t total = 0;
  for (const ClientFiles& c : clients) {
    for (const auto& [id, f] : c.files) {
      for (std::size_t s = 0; s < f.chunk_off.size(); ++s) {
        total += chunk_len(f, s) * (1u + f.snapshot[s]);
      }
    }
  }
  return total;
}

std::uint32_t Model::chunk_len(const FileState& f, std::size_t serial) const {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(chunk_size, f.size - serial * chunk_size));
}

const std::string& client_name(std::size_t client) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (std::size_t c = 0; c < kClients; ++c) {
      v.push_back((c < 10 ? "c0" : "c") + std::to_string(c));
    }
    return v;
  }();
  return names.at(client);
}

std::string file_name(std::uint32_t file) {
  return "f" + std::to_string(file);
}

bool matches(const Model& model, const FileState& f, const Payloads& pool,
             const Bytes& got) {
  if (got.size() != f.size) return false;
  std::size_t pos = 0;
  for (std::size_t s = 0; s < f.chunk_off.size(); ++s) {
    const std::uint32_t len = model.chunk_len(f, s);
    if (std::memcmp(got.data() + pos, pool.bytes.data() + f.chunk_off[s],
                    len) != 0) {
      return false;
    }
    pos += len;
  }
  return true;
}

std::vector<Op> generate_ops(const WorkloadSpec& w, const Model& model,
                             const Payloads& pool, std::uint64_t seed,
                             std::size_t threads, std::size_t thread,
                             std::size_t count, bool every_kind) {
  Rng rng(seed);
  Zipf zipf;
  Model local;
  local.chunk_size = model.chunk_size;
  std::vector<std::uint16_t> mine;
  for (std::size_t c = thread; c < kClients; c += threads) {
    mine.push_back(static_cast<std::uint16_t>(c));
    local.clients[c] = model.clients[c];
  }
  std::array<bool, kNumOpKinds> seen{};
  auto missing = [&]() -> std::optional<OpKind> {
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
      if (!seen[k]) return static_cast<OpKind>(k);
    }
    return std::nullopt;
  };
  std::vector<Op> ops;
  ops.reserve(count + 1);
  for (std::size_t i = 0;
       ops.size() < count || (every_kind && missing().has_value()); ++i) {
    Op op;
    op.client = mine[i % mine.size()];
    ClientFiles& cf = local.clients[op.client];
    op.kind = ops.size() < count ? draw_kind(w, rng) : *missing();
    if (cf.order.empty()) op.kind = OpKind::kPut;
    switch (op.kind) {
      case OpKind::kPut:
        if (w.live_cap != 0 && cf.order.size() >= w.live_cap) {
          Op evict;
          evict.kind = OpKind::kRemove;
          evict.client = op.client;
          evict.file = cf.order.front();
          local.apply(evict);
          ops.push_back(evict);
          seen[static_cast<std::size_t>(OpKind::kRemove)] = true;
        }
        op = make_put(w, pool, rng, op.client, cf.next_id);
        break;
      case OpKind::kGet:
        op.file = pick_file(w, cf, rng, zipf);
        break;
      case OpKind::kUpdate: {
        op.file = pick_file(w, cf, rng, zipf);
        const FileState& f = cf.files.at(op.file);
        op.serial = static_cast<std::uint32_t>(rng.below(f.chunk_off.size()));
        op.size = local.chunk_len(f, op.serial);
        op.offset = draw_offset(pool, op.size, rng);
        break;
      }
      case OpKind::kRemove:
        op.file = cf.order.front();
        break;
    }
    local.apply(op);
    ops.push_back(op);
    seen[static_cast<std::size_t>(op.kind)] = true;
  }
  return ops;
}

}  // namespace ledger
