// GB/s microbenchmark + CI gate for the SIMD erasure-code data plane.
//
// Six sections:
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
//   5. AES-128-CTR arms: in-place CTR GB/s through every AES arm the host
//      can run (portable FIPS-197 rounds, AES-NI) at 1 KiB and 256 KiB.
//   6. Pipeline stages: split_file on 1 MiB, MisleadingCodec::inject on
//      64 KiB, HashRing::lookup, crc32 on 64 KiB, and one journal frame
//      (encode_record plus crc32) of a bulk-shaped kCommitPut.
// Sections 4 to 6 are recorded only; no gate reads them.
//
// Gate (exit non-zero on failure; skipped when the host has no SIMD or
// CSHIELD_FORCE_SCALAR is set, but the numbers are always recorded):
//   * vectorized mul_add >= 4x the scalar byte loop at 64 KiB
//   * vectorized xor     >= 4x the scalar byte loop at 64 KiB
//   * targeted reconstruct >= 2x the decode+re-encode path (RAID-6 k=8)
//
// Results land in ./BENCH_kernels.json through the bench harness envelope
// (a bare argument overrides the path); see EXPERIMENTS.md E16.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/chunker.hpp"
#include "core/journal.hpp"
#include "core/misleading.hpp"
#include "crypto/aes.hpp"
#include "crypto/gf256.hpp"
#include "crypto/gf256_kernels.hpp"
#include "crypto/sha256.hpp"
#include "dht/ring.hpp"
#include "harness.hpp"
#include "raid/raid.hpp"
#include "util/cpu.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"
#include "util/status.hpp"

namespace {

using namespace cshield;
namespace kern = gf256::kernels;
using kern::Arm;

using bench::gbps;
using bench::Json;
using bench::make_payload;

std::vector<Arm> available_arms() {
  std::vector<Arm> arms;
  for (Arm a : {Arm::kScalar, Arm::kSwar, Arm::kSsse3, Arm::kAvx2}) {
    if (kern::arm_available(a)) arms.push_back(a);
  }
  return arms;
}

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

/// A kCommitPut shaped like one 256 KiB bulk put: 16 chunk rows on 4-shard
/// RAID-5 stripes, each with four digests and ~10 % chaff positions (about
/// 26k positions, a ~110 KB record).
core::JournalRecord bulk_commit_record() {
  core::JournalRecord rec;
  rec.op = core::JournalOp::kCommitPut;
  rec.client = "client-0";
  rec.filename = "bulk-000000";
  for (std::uint64_t c = 0; c < 16; ++c) {
    core::ChunkEntry e;
    e.privacy_level = PrivacyLevel::kLow;
    e.layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
    for (std::uint64_t s = 0; s < 4; ++s) {
      e.stripe.push_back({static_cast<ProviderIndex>(s), mix64(c * 4 + s)});
    }
    for (std::uint32_t i = 0; i < 1638; ++i) e.misleading.push_back(10 * i);
    e.padded_size = 16384 + 1638;
    e.shard_digests.resize(4);
    e.protection = ProtectionMode::kFragmentation;
    rec.chunks.push_back(core::JournalChunk{c, c, e});
  }
  return rec;
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
  Json kernel_rows = Json::array();
  // 64 KiB rates the gate compares: [kernel][scalar or active arm].
  double rate64[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (std::size_t n : {std::size_t{4096}, std::size_t{64 * 1024},
                        std::size_t{1} << 20}) {
    const Bytes src = make_payload(n, n);
    Bytes dst = make_payload(n, n + 1);
    for (Arm arm : available_arms()) {
      const double rates[2] = {
          gbps(n, [&] { kern::xor_into_arm(arm, dst.data(), src.data(), n); }),
          gbps(n, [&] {
            kern::mul_add_arm(arm, 0x8E, src.data(), dst.data(), n);
          })};
      for (int k = 0; k < 2; ++k) {
        const char* kernel = k == 0 ? "xor" : "mul_add";
        std::cout << kernel << " " << cpu::simd_level_name(arm) << " "
                  << n / 1024 << " KiB: " << rates[k] << " GB/s\n";
        kernel_rows.push(Json::object()
                             .set("kernel", kernel)
                             .set("arm", cpu::simd_level_name(arm))
                             .set("bytes", n)
                             .set("gb_s", rates[k]));
        if (n == 64 * 1024 && arm == Arm::kScalar) rate64[k][0] = rates[k];
        if (n == 64 * 1024 && arm == active) rate64[k][1] = rates[k];
      }
    }
  }

  // --- section 2: raid data plane ------------------------------------------
  std::cout << "\n=== raid arena engine (GB/s of payload) ===\n";
  Json raid_rows = Json::array();
  const auto raid_row = [&](const char* op, const char* level,
                            std::size_t payload, double gb_s) {
    std::cout << op << " " << level << " " << payload / 1024
              << " KiB payload: " << gb_s << " GB/s\n";
    raid_rows.push(Json::object()
                       .set("op", op)
                       .set("level", level)
                       .set("payload_bytes", payload)
                       .set("gb_s", gb_s));
  };
  for (auto [level, name] :
       {std::pair{raid::RaidLevel::kRaid5, "raid5"},
        std::pair{raid::RaidLevel::kRaid6, "raid6"}}) {
    const raid::StripeLayout layout = raid::StripeLayout::make(level, 8);
    for (std::size_t payload_size : {64ul * 1024, 1ul << 20}) {
      const Bytes payload = make_payload(payload_size, payload_size + 7);
      raid_row("encode", name, payload_size, gbps(payload_size, [&] {
                 raid::EncodedStripe s = raid::encode(layout, payload);
                 CS_REQUIRE(s.arena.size() >= payload_size, "encode");
               }));
      const raid::EncodedStripe stripe = raid::encode(layout, payload);
      auto shards = raid::shard_copies(stripe);
      for (std::size_t e = 0; e < layout.fault_tolerance(); ++e) {
        shards[e].reset();
      }
      raid_row("decode2", name, payload_size, gbps(payload_size, [&] {
                 Result<Bytes> r = raid::decode(layout, shards, payload_size);
                 CS_REQUIRE(r.ok(), "decode");
               }));
    }
  }

  // --- section 3: targeted rebuild vs full path ----------------------------
  std::cout << "\n=== targeted reconstruct vs decode+re-encode "
               "(raid6 k=8, 64 KiB shards) ===\n";
  Json rebuild_rows = Json::array();
  double min_rebuild_speedup = 1e9;
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
      const double targeted = gbps(k * shard_size, [&] {
        Result<Bytes> r = raid::reconstruct_shard(layout, shards, target);
        CS_REQUIRE(r.ok(), "reconstruct");
      });
      const double full_path = gbps(k * shard_size, [&] {
        const Bytes b =
            rebuild_via_full_path(layout, shards, target, shard_size);
        CS_REQUIRE(b.size() == shard_size, "full path");
      });
      const double speedup = full_path > 0 ? targeted / full_path : 0.0;
      min_rebuild_speedup = std::min(min_rebuild_speedup, speedup);
      std::cout << "rebuild " << name << ": targeted " << targeted
                << " GB/s vs full-path " << full_path << " GB/s -> "
                << speedup << "x\n";
      rebuild_rows.push(Json::object()
                            .set("target", name)
                            .set("targeted_gb_s", targeted)
                            .set("full_path_gb_s", full_path)
                            .set("speedup", speedup));
    };
    run_target(2, "data");
    run_target(k, "p");
    run_target(k + 1, "q");
  }

  // --- section 4: sha-256 arms ---------------------------------------------
  std::cout << "\n=== sha-256 arms (GB/s, best of 3; active: "
            << crypto::sha256_arm_name(crypto::sha256_active_arm())
            << ") ===\n";
  Json sha_rows = Json::array();
  for (std::size_t n : {std::size_t{4096}, std::size_t{64 * 1024}}) {
    const Bytes msg = make_payload(n, n + 11);
    for (crypto::Sha256Arm arm :
         {crypto::Sha256Arm::kPortable, crypto::Sha256Arm::kShaNi}) {
      if (!crypto::sha256_arm_available(arm)) continue;
      crypto::Sha256 h(arm);
      const double gb_s = gbps(n, [&] {
        h.update(msg);
        (void)h.finish();
      });
      std::cout << "sha256 " << crypto::sha256_arm_name(arm) << " "
                << n / 1024 << " KiB: " << gb_s << " GB/s\n";
      sha_rows.push(Json::object()
                        .set("arm", crypto::sha256_arm_name(arm))
                        .set("bytes", n)
                        .set("gb_s", gb_s));
    }
  }

  // --- section 5: aes-128-ctr arms -----------------------------------------
  std::cout << "\n=== aes-128-ctr arms (GB/s, best of 3; active: "
            << crypto::aes_arm_name(crypto::aes_active_arm()) << ") ===\n";
  Json aes_rows = Json::array();
  const crypto::AesKey key = {1, 2, 3, 4, 5, 6, 7, 8,
                              9, 10, 11, 12, 13, 14, 15, 16};
  for (std::size_t n : {std::size_t{1024}, std::size_t{256 * 1024}}) {
    Bytes msg = make_payload(n, n + 13);
    for (crypto::AesArm arm :
         {crypto::AesArm::kPortable, crypto::AesArm::kAesNi}) {
      if (!crypto::aes_arm_available(arm)) continue;
      const crypto::Aes128 cipher(key, arm);
      const double gb_s =
          gbps(n, [&] { cipher.ctr(7, msg.data(), msg.size()); });
      std::cout << "aes128_ctr " << crypto::aes_arm_name(arm) << " "
                << n / 1024 << " KiB: " << gb_s << " GB/s\n";
      aes_rows.push(Json::object()
                        .set("arm", crypto::aes_arm_name(arm))
                        .set("bytes", n)
                        .set("gb_s", gb_s));
    }
  }

  // --- section 6: pipeline stages -----------------------------------------
  std::cout << "\n=== pipeline stages (best of 3) ===\n";
  Json stage_rows = Json::array();
  // `bytes` 0 marks a per-call op (ring lookup) with no GB/s figure.
  const auto stage = [&](const char* op, std::size_t bytes, double calls_s) {
    const double gb_s = static_cast<double>(bytes) * calls_s / 1e9;
    std::cout << op << " " << bytes / 1024 << " KiB: " << calls_s
              << " calls/s";
    if (bytes > 0) std::cout << ", " << gb_s << " GB/s";
    std::cout << "\n";
    Json row = Json::object().set("op", op).set("bytes", bytes);
    if (bytes > 0) row.set("gb_s", gb_s);
    stage_rows.push(row.set("calls_per_s", calls_s));
  };
  {
    const Bytes file = make_payload(1 << 20, 0x5F);
    const core::ChunkSizePolicy policy;
    stage("split_file", file.size(), bench::calls_per_sec([&] {
            const auto chunks =
                core::split_file(file, PrivacyLevel::kHigh, policy);
            CS_REQUIRE(!chunks.empty(), "split_file");
          }));
  }
  {
    const Bytes chunk = make_payload(64 * 1024, 0x3C);
    Rng rng(3);
    stage("misleading_inject", chunk.size(), bench::calls_per_sec([&] {
            const auto enc = core::MisleadingCodec::inject(chunk, 0.2, rng);
            CS_REQUIRE(enc.data.size() > chunk.size(), "inject");
          }));
  }
  {
    dht::HashRing ring(128);
    for (ProviderIndex p = 0; p < 16; ++p) {
      ring.add_provider(p, "provider" + std::to_string(p));
    }
    std::uint64_t key_hash = 1;
    std::uint64_t owners = 0;  // keeps the lookups observable
    stage("ring_lookup", 0, bench::calls_per_sec([&] {
            key_hash = mix64(key_hash);
            owners += ring.lookup(key_hash);
          }));
    CS_REQUIRE(owners > 0, "ring_lookup");
  }
  {
    const Bytes block = make_payload(64 * 1024, 0xC2);
    std::uint64_t crcs = 0;  // keeps the checksums observable
    stage("crc32", block.size(), bench::calls_per_sec([&] {
            crcs += crc32(block);
          }));
    CS_REQUIRE(crcs > 0, "crc32");
  }
  {
    const core::JournalRecord rec = bulk_commit_record();
    const std::size_t frame_bytes = core::encode_record(rec).size();
    std::uint64_t crcs = 0;
    stage("journal_frame", frame_bytes, bench::calls_per_sec([&] {
            crcs += crc32(core::encode_record(rec));
          }));
    CS_REQUIRE(crcs > 0, "journal_frame");
  }

  // --- gate ----------------------------------------------------------------
  bench::Report report("kernels");
  report.config.set("hardware_simd", cpu::simd_level_name(hw))
      .set("simd_active", simd_active)
      .set("timer", "best of 3 samples of >= 20 ms each");
  if (simd_active) {
    const std::string arm(cpu::simd_level_name(active));
    report.at_least("xor." + arm + "_over_scalar_64k",
                    "ratio of best-of-3 GB/s",
                    rate64[0][0] > 0 ? rate64[0][1] / rate64[0][0] : 0.0, 4.0);
    report.at_least("mul_add." + arm + "_over_scalar_64k",
                    "ratio of best-of-3 GB/s",
                    rate64[1][0] > 0 ? rate64[1][1] / rate64[1][0] : 0.0, 4.0);
    report.at_least("reconstruct.targeted_over_full_path",
                    "min over targets of best-of-3 GB/s ratios",
                    min_rebuild_speedup, 2.0);
  } else {
    std::cout << "\nno SIMD arm active; speedup gate skipped "
                 "(numbers recorded)\n";
  }
  report.rows.set("kernels", kernel_rows)
      .set("raid", raid_rows)
      .set("reconstruct", rebuild_rows)
      .set("sha256", sha_rows)
      .set("aes128_ctr", aes_rows)
      .set("stages", stage_rows);
  std::cout << "\n";
  return report.finish(out_path);
}
