// GB/s microbenchmark + CI gate for the SIMD erasure-code data plane.
//
// Four sections:
//   1. Kernel arms: xor_into and mul_add through every arm the host can run
//      (scalar byte loop, 64-bit SWAR, SSSE3, AVX2) across shard sizes
//      4 KiB / 64 KiB / 1 MiB, reported in GB/s.
//   2. RAID data plane: encode / worst-case decode GB/s for RAID-5 and
//      RAID-6 stripes over the arena engine.
//   3. Targeted rebuild: reconstruct_shard (P, Q, and a data shard) vs the
//      old full-stripe path (decode + re-encode, reproduced here), reported
//      as a speedup.
//   4. SHA-256 arms: one-shot digest GB/s through every compress arm the
//      host can run (portable FIPS 180-4 loop, SHA-NI) at 4 KiB and 64 KiB.
//      Recorded only; no gate reads them.
//
// Gate (exit non-zero on failure; skipped when the host has no SIMD or
// CSHIELD_FORCE_SCALAR is set, but the numbers are always recorded):
//   * vectorized mul_add >= 4x the scalar byte loop at 64 KiB
//   * vectorized xor     >= 4x the scalar byte loop at 64 KiB
//   * targeted reconstruct >= 2x the decode+re-encode path (RAID-6 k=8)
//
// Results land in ./BENCH_kernels.json (a bare argument overrides the path)
// so the perf trajectory is diffable across PRs; see EXPERIMENTS.md E16.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/gf256.hpp"
#include "crypto/gf256_kernels.hpp"
#include "crypto/sha256.hpp"
#include "raid/raid.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"
#include "util/status.hpp"

namespace {

using namespace cshield;
namespace kern = gf256::kernels;
using kern::Arm;

Bytes make_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Best-of-three GB/s for `fn` touching `bytes_per_call` per invocation.
/// Reps are auto-scaled so each sample runs >= ~20 ms of wall clock.
template <typename Fn>
double gbps(std::size_t bytes_per_call, Fn&& fn) {
  // Calibrate.
  std::size_t reps = 1;
  for (;;) {
    Stopwatch w;
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (w.elapsed_seconds() >= 0.02 || reps >= (1u << 24)) break;
    reps *= 4;
  }
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    Stopwatch w;
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double s = w.elapsed_seconds();
    const double rate =
        static_cast<double>(bytes_per_call) * static_cast<double>(reps) / s /
        1e9;
    best = std::max(best, rate);
  }
  return best;
}

struct KernelRow {
  std::string kernel;  // "xor" | "mul_add"
  std::string arm;
  std::size_t size = 0;
  double gb_s = 0.0;
};

std::vector<Arm> available_arms() {
  std::vector<Arm> arms;
  for (Arm a : {Arm::kScalar, Arm::kSwar, Arm::kSsse3, Arm::kAvx2}) {
    if (kern::arm_available(a)) arms.push_back(a);
  }
  return arms;
}

struct ShaRow {
  std::string arm;
  std::size_t size = 0;
  double gb_s = 0.0;
};

struct RaidRow {
  std::string op;     // "encode" | "decode2"
  std::string level;  // "raid5" | "raid6"
  std::size_t payload = 0;
  double gb_s = 0.0;
};

struct RebuildRow {
  std::string target;  // "data" | "p" | "q"
  double targeted_gb_s = 0.0;
  double full_path_gb_s = 0.0;
  [[nodiscard]] double speedup() const {
    return full_path_gb_s > 0 ? targeted_gb_s / full_path_gb_s : 0.0;
  }
};

/// The pre-SIMD-PR rebuild strategy, kept here as the comparison baseline:
/// decode the whole padded stripe, re-encode every shard, take one.
Bytes rebuild_via_full_path(const raid::StripeLayout& layout,
                            const std::vector<std::optional<Bytes>>& shards,
                            std::size_t target, std::size_t shard_size) {
  const std::size_t padded = shard_size * layout.data_shards;
  Result<Bytes> payload = raid::decode(layout, shards, padded);
  CS_REQUIRE(payload.ok(), payload.status().to_string());
  raid::EncodedStripe re = raid::encode(layout, payload.value());
  return re.shard_copy(target);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  if (argc > 1) out_path = argv[1];

  const cpu::SimdLevel hw = cpu::hardware_level();
  const cpu::SimdLevel active = kern::active_arm();
  const bool simd_active =
      active == Arm::kSsse3 || active == Arm::kAvx2;
  std::cout << "=== kernel dispatch ===\n";
  std::cout << "hardware: " << cpu::simd_level_name(hw)
            << ", active arm: " << cpu::simd_level_name(active)
            << (simd_active ? "" : " (gate skipped: no SIMD arm active)")
            << "\n";

  // --- section 1: kernel arms ----------------------------------------------
  std::cout << "\n=== kernel arms (GB/s, best of 3) ===\n";
  std::vector<KernelRow> kernel_rows;
  const std::vector<std::size_t> sizes = {4096, 64 * 1024, 1 << 20};
  for (std::size_t n : sizes) {
    const Bytes src = make_payload(n, n);
    Bytes dst = make_payload(n, n + 1);
    for (Arm arm : available_arms()) {
      KernelRow row;
      row.kernel = "xor";
      row.arm = cpu::simd_level_name(arm);
      row.size = n;
      row.gb_s = gbps(n, [&] {
        kern::xor_into_arm(arm, dst.data(), src.data(), n);
      });
      kernel_rows.push_back(row);
      row.kernel = "mul_add";
      row.gb_s = gbps(n, [&] {
        kern::mul_add_arm(arm, 0x8E, src.data(), dst.data(), n);
      });
      kernel_rows.push_back(row);
    }
  }
  for (const auto& r : kernel_rows) {
    std::cout << r.kernel << " " << r.arm << " " << r.size / 1024 << " KiB: "
              << r.gb_s << " GB/s\n";
  }

  // --- section 2: raid data plane ------------------------------------------
  std::cout << "\n=== raid arena engine (GB/s of payload) ===\n";
  std::vector<RaidRow> raid_rows;
  for (auto [level, name] :
       {std::pair{raid::RaidLevel::kRaid5, "raid5"},
        std::pair{raid::RaidLevel::kRaid6, "raid6"}}) {
    const raid::StripeLayout layout = raid::StripeLayout::make(level, 8);
    for (std::size_t payload_size : {64ul * 1024, 1ul << 20}) {
      const Bytes payload = make_payload(payload_size, payload_size + 7);
      raid_rows.push_back(
          {"encode", name, payload_size, gbps(payload_size, [&] {
             raid::EncodedStripe s = raid::encode(layout, payload);
             CS_REQUIRE(s.arena.size() >= payload_size, "encode");
           })});
      const raid::EncodedStripe stripe = raid::encode(layout, payload);
      auto shards = raid::shard_copies(stripe);
      for (std::size_t e = 0; e < layout.fault_tolerance(); ++e) {
        shards[e].reset();
      }
      raid_rows.push_back(
          {"decode2", name, payload_size, gbps(payload_size, [&] {
             Result<Bytes> r = raid::decode(layout, shards, payload_size);
             CS_REQUIRE(r.ok(), "decode");
           })});
    }
  }
  for (const auto& r : raid_rows) {
    std::cout << r.op << " " << r.level << " " << r.payload / 1024
              << " KiB payload: " << r.gb_s << " GB/s\n";
  }

  // --- section 3: targeted rebuild vs full path ----------------------------
  std::cout << "\n=== targeted reconstruct vs decode+re-encode "
               "(raid6 k=8, 64 KiB shards) ===\n";
  std::vector<RebuildRow> rebuild_rows;
  {
    const std::size_t k = 8;
    const raid::StripeLayout layout =
        raid::StripeLayout::make(raid::RaidLevel::kRaid6, k);
    const std::size_t shard_size = 64 * 1024;
    const Bytes payload = make_payload(k * shard_size, 0xEC);
    const raid::EncodedStripe stripe = raid::encode(layout, payload);
    const auto run_target = [&](std::size_t target, const char* name) {
      auto shards = raid::shard_copies(stripe);
      shards[target].reset();
      RebuildRow row;
      row.target = name;
      row.targeted_gb_s = gbps(k * shard_size, [&] {
        Result<Bytes> r = raid::reconstruct_shard(layout, shards, target);
        CS_REQUIRE(r.ok(), "reconstruct");
      });
      row.full_path_gb_s = gbps(k * shard_size, [&] {
        const Bytes b =
            rebuild_via_full_path(layout, shards, target, shard_size);
        CS_REQUIRE(b.size() == shard_size, "full path");
      });
      rebuild_rows.push_back(row);
    };
    run_target(2, "data");
    run_target(k, "p");
    run_target(k + 1, "q");
  }
  for (const auto& r : rebuild_rows) {
    std::cout << "rebuild " << r.target << ": targeted " << r.targeted_gb_s
              << " GB/s vs full-path " << r.full_path_gb_s << " GB/s -> "
              << r.speedup() << "x\n";
  }

  // --- section 4: sha-256 arms ---------------------------------------------
  std::cout << "\n=== sha-256 arms (GB/s, best of 3; active: "
            << crypto::sha256_arm_name(crypto::sha256_active_arm())
            << ") ===\n";
  std::vector<ShaRow> sha_rows;
  for (std::size_t n : {std::size_t{4096}, std::size_t{64 * 1024}}) {
    const Bytes msg = make_payload(n, n + 11);
    for (crypto::Sha256Arm arm :
         {crypto::Sha256Arm::kPortable, crypto::Sha256Arm::kShaNi}) {
      if (!crypto::sha256_arm_available(arm)) continue;
      crypto::Sha256 h(arm);
      sha_rows.push_back(
          {std::string(crypto::sha256_arm_name(arm)), n, gbps(n, [&] {
             h.update(msg);
             (void)h.finish();
           })});
    }
  }
  for (const auto& r : sha_rows) {
    std::cout << "sha256 " << r.arm << " " << r.size / 1024
              << " KiB: " << r.gb_s << " GB/s\n";
  }

  // --- gate ----------------------------------------------------------------
  auto find_rate = [&](const char* kernel, Arm arm) {
    double best = 0.0;
    for (const auto& r : kernel_rows) {
      if (r.kernel == kernel && r.size == 64 * 1024 &&
          r.arm == cpu::simd_level_name(arm)) {
        best = std::max(best, r.gb_s);
      }
    }
    return best;
  };
  const double xor_scalar = find_rate("xor", Arm::kScalar);
  const double mul_scalar = find_rate("mul_add", Arm::kScalar);
  const double xor_simd = find_rate("xor", active);
  const double mul_simd = find_rate("mul_add", active);
  double min_rebuild_speedup = 1e9;
  for (const auto& r : rebuild_rows) {
    min_rebuild_speedup = std::min(min_rebuild_speedup, r.speedup());
  }
  const double xor_ratio = xor_scalar > 0 ? xor_simd / xor_scalar : 0.0;
  const double mul_ratio = mul_scalar > 0 ? mul_simd / mul_scalar : 0.0;

  bool gate_ok = true;
  std::cout << "\n=== gate ===\n";
  if (simd_active) {
    std::cout << "mul_add " << cpu::simd_level_name(active) << "/scalar: "
              << mul_ratio << "x (need >= 4)\n";
    std::cout << "xor     " << cpu::simd_level_name(active) << "/scalar: "
              << xor_ratio << "x (need >= 4)\n";
    std::cout << "reconstruct targeted/full: " << min_rebuild_speedup
              << "x (need >= 2)\n";
    gate_ok = mul_ratio >= 4.0 && xor_ratio >= 4.0 &&
              min_rebuild_speedup >= 2.0;
    std::cout << (gate_ok ? "PASS" : "FAIL") << "\n";
  } else {
    std::cout << "no SIMD arm active; speedup gate skipped "
                 "(numbers recorded)\n";
  }

  // --- JSON ----------------------------------------------------------------
  std::ostringstream js;
  js << "{\n";
  js << "  \"hardware\": \"" << cpu::simd_level_name(hw) << "\",\n";
  js << "  \"active_arm\": \"" << cpu::simd_level_name(active) << "\",\n";
  js << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const auto& r = kernel_rows[i];
    js << "    {\"kernel\": \"" << r.kernel << "\", \"arm\": \"" << r.arm
       << "\", \"bytes\": " << r.size << ", \"gb_s\": " << r.gb_s << "}"
       << (i + 1 == kernel_rows.size() ? "\n" : ",\n");
  }
  js << "  ],\n";
  js << "  \"raid\": [\n";
  for (std::size_t i = 0; i < raid_rows.size(); ++i) {
    const auto& r = raid_rows[i];
    js << "    {\"op\": \"" << r.op << "\", \"level\": \"" << r.level
       << "\", \"payload_bytes\": " << r.payload << ", \"gb_s\": " << r.gb_s
       << "}" << (i + 1 == raid_rows.size() ? "\n" : ",\n");
  }
  js << "  ],\n";
  js << "  \"reconstruct\": [\n";
  for (std::size_t i = 0; i < rebuild_rows.size(); ++i) {
    const auto& r = rebuild_rows[i];
    js << "    {\"target\": \"" << r.target << "\", \"targeted_gb_s\": "
       << r.targeted_gb_s << ", \"full_path_gb_s\": " << r.full_path_gb_s
       << ", \"speedup\": " << r.speedup() << "}"
       << (i + 1 == rebuild_rows.size() ? "\n" : ",\n");
  }
  js << "  ],\n";
  js << "  \"sha256\": [\n";
  for (std::size_t i = 0; i < sha_rows.size(); ++i) {
    const auto& r = sha_rows[i];
    js << "    {\"arm\": \"" << r.arm << "\", \"bytes\": " << r.size
       << ", \"gb_s\": " << r.gb_s << "}"
       << (i + 1 == sha_rows.size() ? "\n" : ",\n");
  }
  js << "  ],\n";
  js << "  \"gate\": {\"simd_active\": " << (simd_active ? "true" : "false")
     << ", \"mul_add_ratio\": " << mul_ratio
     << ", \"xor_ratio\": " << xor_ratio
     << ", \"min_reconstruct_speedup\": "
     << (rebuild_rows.empty() ? 0.0 : min_rebuild_speedup)
     << ", \"pass\": " << (gate_ok ? "true" : "false") << "}\n";
  js << "}\n";
  std::ofstream out(out_path);
  out << js.str();
  out.close();
  std::cout << "\nwrote " << out_path << "\n";

  return gate_ok ? 0 : 1;
}
