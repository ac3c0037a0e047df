// E7 -- SVII-E "Encryption vs Fragmentation" -- and E19, the
// protection-mode frontier gate.
//
// Paper's argument: encrypt-everything "has a large disadvantage in the
// form of overhead associated with query processing" (fetch + decrypt the
// whole database before querying), while fragmentation "exploits the
// benefit of parallel query processing" at much lower cost; encryption can
// still complement fragmentation for the most concerned clients.
//
// Section E7 measures a query workload over a stored table under five
// regimes:
//   A  fragmentation only           (this paper's system)
//   B  fragmentation + AES-128-CTR  ("encryption along with fragmentation")
//   C  encrypt-everything, single provider (the strawman the paper attacks:
//      every point query fetches and decrypts the whole file)
//   D  partial encryption: PL3 columns encrypted, rest plaintext
//   E  fast-fragmentation protection mode (key-less GF(256) entanglement,
//      PR 8): the protection transform lives inside the distributor
// reporting CPU cost of crypto on the PUT path, wall-clock cost of the GET
// path (fetch + detangle/decrypt -- the side the old bench never measured),
// modeled transfer time, and point-query latency.
//
// Section E19 is the privacy/throughput FRONTIER and its CI gates:
//   * protection-stage throughput (GB/s, both directions) for partial-AES
//     vs fragmentation at PL1..PL3: partial AES under every AES arm the
//     host can run (portable always, AES-NI when present), fragmentation
//     under the scalar kernel arm and the active one (scalar always
//     included, so the forced-scalar CI build exercises the same gate);
//   * colluding k-of-n adversary: sampled 3-of-12 provider coalitions pool
//     their views and mine the pooled rows, per protection mode and PL;
//   * e19.frontier (exit non-zero on failure): there exists a PL where
//     fragmentation achieves >= 2x partial-AES effective throughput on BOTH
//     put and get under EVERY pair of measured arms, while its
//     worst-coalition mining success is no better for the attacker than
//     partial-AES's;
//   * e19.coverage: at PL1 and PL2, fragmentation's worst-coalition
//     coverage is no higher than partial-AES's (the privacy half alone).
// Results land in ./BENCH_frontier.json through the bench harness envelope
// (a bare argument overrides the path); see EXPERIMENTS.md E19.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "attack/harness.hpp"
#include "core/distributor.hpp"
#include "core/partial_encryption.hpp"
#include "crypto/aes.hpp"
#include "crypto/fragmentation.hpp"
#include "crypto/gf256_kernels.hpp"
#include "harness.hpp"
#include "storage/provider_registry.hpp"
#include "util/cpu.hpp"
#include "util/table.hpp"
#include "workload/bidding.hpp"
#include "workload/records.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;
namespace kern = gf256::kernels;
using kern::Arm;

double ms(SimDuration d) { return static_cast<double>(d.count()) / 1e6; }

struct Regime {
  std::string name;
  bool encrypt_before_store = false;  ///< full-payload AES-CTR
  bool partial_encrypt = false;       ///< PL3 columns only (PartialEncryptor)
  bool whole_file_per_query = false;
  std::size_t providers = 12;
  std::optional<ProtectionMode> protection;  ///< distributor-side transform
};

/// Same AES fraction the distributor applies per privacy level.
std::size_t aes_prefix_for(PrivacyLevel pl, std::size_t n) {
  static constexpr std::size_t kQuarters[] = {0, 1, 2, 4};
  return (n * kQuarters[static_cast<std::size_t>(level_index(pl))] + 3) / 4;
}

// Throughput rows credit a partial transform with the whole payload it
// protects (effective throughput): bench::gbps is given the PROTECTED size.
using bench::gbps;
using bench::Json;

std::vector<Arm> measured_arms() {
  std::vector<Arm> arms = {Arm::kScalar};
  const Arm active = kern::active_arm();
  if (active != Arm::kScalar) arms.push_back(active);
  return arms;
}

std::vector<crypto::AesArm> measured_aes_arms() {
  std::vector<crypto::AesArm> arms;
  for (crypto::AesArm arm :
       {crypto::AesArm::kPortable, crypto::AesArm::kAesNi}) {
    if (crypto::aes_arm_available(arm)) arms.push_back(arm);
  }
  return arms;
}

struct ThroughputRow {
  PrivacyLevel pl = PrivacyLevel::kLow;
  std::string mode;
  std::string arm;  // AES arm for partial-aes, GF(256) arm for fragmentation
  double put_gb_s = 0.0;
  double get_gb_s = 0.0;
};

struct AttackRow {
  PrivacyLevel pl = PrivacyLevel::kLow;
  std::string mode;
  std::size_t coalitions = 0;
  double worst_coverage = 0.0;
  double mean_coverage = 0.0;
  bool regression_ok = false;
  double regression_rmse = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_frontier.json";
  if (argc > 1) out_path = argv[1];

  // 64k-row bidding table (~3 MB) and a workload of 32 point queries, each
  // touching one chunk-sized row range.
  workload::BiddingGenerator gen(0xE7);
  const mining::Dataset table = gen.generate(65536, 120.0);
  const workload::RecordCodec codec{workload::bidding_columns()};
  const Bytes plaintext = codec.encode(table);
  const crypto::AesKey key = {1, 2, 3, 4, 5, 6, 7, 8,
                              9, 10, 11, 12, 13, 14, 15, 16};
  constexpr std::size_t kQueries = 32;

  // Regime D encrypts only the sensitive Bid column (SVII-E "partitioning
  // data and encrypting a portion of it").
  const core::PartialEncryptor partial(workload::bidding_columns(), {"Bid"},
                                       key);
  const Regime regimes[] = {
      {"A fragmentation only", false, false, false, 12, std::nullopt},
      {"B fragmentation + AES (full)", true, false, false, 12, std::nullopt},
      {"C encrypt-everything, 1 provider", true, false, true, 1,
       std::nullopt},
      {"D partial encryption (Bid col) + frag", false, true, false, 12,
       std::nullopt},
      {"E fast-fragmentation mode (entangled stripes)", false, false, false,
       12, ProtectionMode::kFragmentation},
  };

  std::cout << "=== E7: query-processing cost, encryption vs fragmentation "
               "===\n"
            << "table: 65536 rows (" << plaintext.size() / 1024
            << " KiB); workload: " << kQueries
            << " point queries (one chunk each)\n";
  TextTable t({"regime", "crypto CPU ms (upload)", "upload model ms",
               "per-query model ms", "per-query crypto ms",
               "per-query get wall ms", "bytes fetched/query"});
  for (const Regime& regime : regimes) {
    storage::ProviderRegistry registry =
        storage::make_default_registry(regime.providers);
    DistributorConfig config;
    // Regime E stripes each chunk over 3 entangled fragments (RAID-0, no
    // parity -- the fast-fragmentation configuration); the others store
    // chunks whole.
    config.default_raid = regime.protection.has_value()
                              ? raid::RaidLevel::kRaid0
                              : raid::RaidLevel::kNone;
    config.stripe_data_shards = 3;
    config.placement = core::PlacementMode::kUniformSpread;
    CloudDataDistributor cdd(registry, config);
    (void)cdd.register_client("C");
    (void)cdd.add_password("C", "pw", PrivacyLevel::kHigh);

    // Upload.
    Stopwatch crypto_clock;
    Bytes stored = plaintext;
    double upload_crypto_ms = 0.0;
    if (regime.encrypt_before_store) {
      crypto_clock.restart();
      stored = crypto::aes128_ctr(key, 0xE7, plaintext);
      upload_crypto_ms = crypto_clock.elapsed_seconds() * 1e3;
    } else if (regime.partial_encrypt) {
      crypto_clock.restart();
      stored = partial.apply(plaintext).value();
      upload_crypto_ms = crypto_clock.elapsed_seconds() * 1e3;
    }
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kLow;  // 16 KiB chunks
    opts.record_align = codec.record_size();
    opts.protection = regime.protection;
    OpReport put_report;
    if (regime.protection.has_value()) {
      // The transform runs inside put_file; charge its wall time as the
      // upload crypto cost (dominated by entangle + stripe encode).
      crypto_clock.restart();
    }
    Status st = cdd.put_file("C", "pw", "t", stored, opts, &put_report);
    CS_REQUIRE(st.ok(), st.to_string());
    if (regime.protection.has_value()) {
      upload_crypto_ms = crypto_clock.elapsed_seconds() * 1e3;
    }

    // Queries. `get wall ms` is the real-time cost of the get path --
    // fetch + distributor-side detangle/decrypt + any client-side decrypt
    // -- the half of the crypto bill the old bench never measured.
    Rng rng(0xE7E7);
    double query_model_ms = 0.0;
    double query_crypto_ms = 0.0;
    double query_wall_ms = 0.0;
    double bytes_per_query = 0.0;
    Stopwatch wall_clock;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const std::uint64_t serial = rng.below(put_report.chunks);
      OpReport get_report;
      if (regime.whole_file_per_query) {
        // Strawman: fetch the whole file, decrypt, then answer locally.
        wall_clock.restart();
        Result<Bytes> file = cdd.get_file("C", "pw", "t", &get_report);
        CS_REQUIRE(file.ok(), file.status().to_string());
        crypto_clock.restart();
        const Bytes plain = crypto::aes128_ctr(key, 0xE7, file.value());
        query_crypto_ms += crypto_clock.elapsed_seconds() * 1e3;
        query_wall_ms += wall_clock.elapsed_seconds() * 1e3;
        bytes_per_query += static_cast<double>(file.value().size());
        (void)plain;
      } else {
        wall_clock.restart();
        Result<Bytes> chunk = cdd.get_chunk("C", "pw", "t", serial,
                                            &get_report);
        CS_REQUIRE(chunk.ok(), chunk.status().to_string());
        if (regime.encrypt_before_store) {
          // CTR is seekable: decrypt just the fetched range. We charge the
          // cost of one chunk's worth of keystream.
          crypto_clock.restart();
          const Bytes plain = crypto::aes128_ctr(key, 0xE7, chunk.value());
          query_crypto_ms += crypto_clock.elapsed_seconds() * 1e3;
          (void)plain;
        } else if (regime.partial_encrypt) {
          // Record-independent keystreams: decrypt just this chunk's rows.
          crypto_clock.restart();
          const std::size_t base =
              serial * (chunk.value().size() / codec.record_size());
          const Bytes plain = partial.apply(chunk.value(), base).value();
          query_crypto_ms += crypto_clock.elapsed_seconds() * 1e3;
          (void)plain;
        }
        query_wall_ms += wall_clock.elapsed_seconds() * 1e3;
        bytes_per_query += static_cast<double>(chunk.value().size());
      }
      query_model_ms += ms(get_report.sim_time_parallel);
    }
    t.add(regime.name, TextTable::fmt(upload_crypto_ms, 2),
          TextTable::fmt(ms(put_report.sim_time_parallel), 2),
          TextTable::fmt(query_model_ms / kQueries, 2),
          TextTable::fmt(query_crypto_ms / kQueries, 3),
          TextTable::fmt(query_wall_ms / kQueries, 3),
          TextTable::fmt(bytes_per_query / kQueries, 0));
  }
  t.print(std::cout);

  std::cout << "\n=== E7b: parallel fragment fetch (SVII-E: \"various "
               "fragments can be accessed simultaneously\") ===\n";
  {
    TextTable t2({"channels", "get_file model ms", "speedup"});
    double base = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
      storage::ProviderRegistry registry = storage::make_default_registry(12);
      DistributorConfig config;
      config.default_raid = raid::RaidLevel::kNone;
      config.placement = core::PlacementMode::kUniformSpread;
      config.worker_threads = threads;
      CloudDataDistributor cdd(registry, config);
      (void)cdd.register_client("C");
      (void)cdd.add_password("C", "pw", PrivacyLevel::kHigh);
      PutOptions opts;
      opts.privacy_level = PrivacyLevel::kLow;
      Status st = cdd.put_file("C", "pw", "t", plaintext, opts);
      CS_REQUIRE(st.ok(), st.to_string());
      OpReport get_report;
      Result<Bytes> file = cdd.get_file("C", "pw", "t", &get_report);
      CS_REQUIRE(file.ok(), file.status().to_string());
      const double p = ms(get_report.sim_time_parallel);
      if (threads == 1) base = p;
      t2.add(threads, TextTable::fmt(p, 2), TextTable::fmt(base / p, 2));
    }
    t2.print(std::cout);
  }

  // === E19: protection-mode frontier ======================================
  const Arm active = kern::active_arm();
  std::cout << "\n=== E19a: protection-stage throughput (GB/s over protected "
               "payload, best of 3; active arms "
            << cpu::simd_level_name(active) << ", "
            << crypto::aes_arm_name(crypto::aes_active_arm()) << ") ===\n";
  const std::vector<PrivacyLevel> pls = {
      PrivacyLevel::kLow, PrivacyLevel::kModerate, PrivacyLevel::kHigh};
  std::vector<ThroughputRow> tput_rows;
  {
    constexpr std::size_t kPayload = 256 * 1024;  // one PL3-ish chunk
    constexpr std::size_t kFragments = 3;         // stripe_data_shards
    const Bytes payload = bench::make_payload(kPayload, 0xE19);

    for (PrivacyLevel pl : pls) {
      // Partial-AES: encrypt the per-PL prefix in place, as the
      // distributor does, and credit the whole payload. Every AES arm.
      const std::size_t prefix = aes_prefix_for(pl, kPayload);
      for (crypto::AesArm arm : measured_aes_arms()) {
        const crypto::Aes128 cipher(key, arm);
        ThroughputRow row{pl, "partial-aes",
                          std::string(crypto::aes_arm_name(arm)), 0.0, 0.0};
        Bytes buf = payload;
        const auto run_aes = [&] { cipher.ctr(0xE19, buf.data(), prefix); };
        row.put_gb_s = gbps(kPayload, run_aes);
        row.get_gb_s = gbps(kPayload, run_aes);  // CTR is symmetric
        tput_rows.push_back(row);
      }

      // Fragmentation: whiten + two GF(256) sweeps, under every arm.
      for (Arm arm : measured_arms()) {
        const Arm prev = kern::set_active_arm(arm);
        ThroughputRow row{pl, "fragmentation",
                          std::string(cpu::simd_level_name(arm)), 0.0, 0.0};
        Bytes buf = payload;
        row.put_gb_s = gbps(kPayload, [&] {
          crypto::fragmentation::entangle(buf, kFragments, 0xE19);
        });
        row.get_gb_s = gbps(kPayload, [&] {
          crypto::fragmentation::detangle(buf, kFragments, 0xE19);
        });
        kern::set_active_arm(prev);
        tput_rows.push_back(row);
      }
    }
  }
  for (const auto& r : tput_rows) {
    std::cout << privacy_level_name(r.pl) << " " << r.mode << " [" << r.arm
              << "]: put " << r.put_gb_s << " GB/s, get " << r.get_gb_s
              << " GB/s\n";
  }

  std::cout << "\n=== E19b: colluding 3-of-12 adversary vs protection mode "
               "===\n"
            << "2048-row bidding table striped 3-wide over 12 providers; "
               "coalitions of 3 providers (64 sampled of C(12,3)=220) pool "
               "their dumps and mine them; defender scored by its worst "
               "coalition\n";
  std::vector<AttackRow> attack_rows;
  {
    workload::BiddingGenerator agen(0xE19B);
    const mining::Dataset atable = agen.generate(2048, 120.0);
    Result<mining::LinearModel> reference =
        mining::fit_linear(atable, workload::bidding_features(), "Bid");
    CS_REQUIRE(reference.ok(), "reference fit failed");
    constexpr std::size_t kProviders = 12;  // 4 are PL3-trusted
    constexpr std::size_t kColluding = 3;

    TextTable ta({"PL", "mode", "coalitions", "worst cov", "mean cov",
                  "worst RMSE ($)", "mining"});
    for (PrivacyLevel pl : pls) {
      for (ProtectionMode mode :
           {ProtectionMode::kMisleadingBytes, ProtectionMode::kPartialAes,
            ProtectionMode::kFragmentation}) {
        storage::ProviderRegistry registry =
            storage::make_default_registry(kProviders);
        DistributorConfig config;
        config.default_raid = raid::RaidLevel::kRaid0;
        config.stripe_data_shards = 3;
        config.placement = core::PlacementMode::kUniformSpread;
        config.misleading_fraction = 0.25;
        CloudDataDistributor cdd(registry, config);
        (void)cdd.register_client("victim");
        (void)cdd.add_password("victim", "pw", PrivacyLevel::kHigh);
        PutOptions opts;
        opts.privacy_level = pl;
        opts.record_align = codec.record_size();
        opts.protection = mode;
        Status st = cdd.put_file("victim", "pw", "bids",
                                 codec.encode(atable), opts);
        CS_REQUIRE(st.ok(), st.to_string());

        const attack::CollusionSweep sweep = attack::collusion_sweep(
            registry, codec, kColluding, atable.num_rows());
        AttackRow row;
        row.pl = pl;
        row.mode = std::string(protection_mode_name(mode));
        row.coalitions = sweep.coalitions_tried;
        row.worst_coverage = sweep.worst_coverage;
        row.mean_coverage = sweep.mean_coverage;

        // Mine the worst coalition's rows for color (not gated): can the
        // attacker still fit the bid-price equation?
        const mining::Dataset rows = attack::sanitize_rows(
            attack::reconstruct_rows(
                attack::compromise(registry, sweep.worst_coalition), codec));
        const auto r = attack::regression_attack(
            rows, workload::bidding_features(), "Bid", reference.value(),
            atable);
        row.regression_ok = r.mining_succeeded;
        row.regression_rmse = r.prediction_rmse;
        attack_rows.push_back(row);
        ta.add(privacy_level_name(pl), row.mode, row.coalitions,
               TextTable::fmt(row.worst_coverage, 3),
               TextTable::fmt(row.mean_coverage, 3),
               row.regression_ok ? TextTable::fmt(row.regression_rmse, 0)
                                 : "-",
               row.regression_ok ? "ok" : "starved");
      }
    }
    ta.print(std::cout);
  }

  // --- gates ---------------------------------------------------------------
  // e19.frontier passes if some PL has fragmentation >= 2x partial-AES
  // effective throughput (both directions, under every pair of measured
  // AES and kernel arms) at equal-or-better attack degradation
  // (worst-coalition coverage no higher). e19.coverage checks that
  // coverage condition alone at PL1 and PL2.
  const auto tput_of = [&](PrivacyLevel pl, const char* mode,
                           std::string_view arm) -> const ThroughputRow* {
    for (const auto& r : tput_rows) {
      if (r.pl == pl && r.mode == mode && r.arm == arm) return &r;
    }
    return nullptr;
  };
  const auto attack_of = [&](PrivacyLevel pl,
                             const char* mode) -> const AttackRow* {
    for (const auto& r : attack_rows) {
      if (r.pl == pl && r.mode == mode) return &r;
    }
    return nullptr;
  };

  // The best PL's worst-case ratio over put/get and every arm pair, among
  // PLs where fragmentation gives the coalition no more coverage than AES.
  double best_ratio = 0.0;
  // Worst excess of frag over AES worst-coalition coverage at PL1 and PL2.
  double coverage_excess = -1.0;
  Json frontier = Json::array();
  std::cout << "\n=== gate ===\n";
  for (PrivacyLevel pl : pls) {
    const AttackRow* aes_atk = attack_of(pl, "partial-aes");
    const AttackRow* frag_atk = attack_of(pl, "fragmentation");
    if (aes_atk == nullptr || frag_atk == nullptr) continue;
    double min_ratio = 1e18;
    for (crypto::AesArm aes_arm : measured_aes_arms()) {
      const ThroughputRow* aes =
          tput_of(pl, "partial-aes", crypto::aes_arm_name(aes_arm));
      for (Arm arm : measured_arms()) {
        const ThroughputRow* frag =
            tput_of(pl, "fragmentation", cpu::simd_level_name(arm));
        if (aes == nullptr || frag == nullptr) {
          min_ratio = 0.0;
          continue;
        }
        const double put_ratio =
            aes->put_gb_s > 0 ? frag->put_gb_s / aes->put_gb_s : 1e18;
        const double get_ratio =
            aes->get_gb_s > 0 ? frag->get_gb_s / aes->get_gb_s : 1e18;
        min_ratio = std::min({min_ratio, put_ratio, get_ratio});
      }
    }
    const double excess = frag_atk->worst_coverage - aes_atk->worst_coverage;
    if (pl != PrivacyLevel::kHigh) {
      coverage_excess = std::max(coverage_excess, excess);
    }
    const bool atk_ok = excess <= 1e-9;
    const bool pl_ok = min_ratio >= 2.0 && atk_ok;
    std::cout << privacy_level_name(pl) << ": frag/aes throughput >= "
              << min_ratio
              << "x (need >= 2 on put+get, every arm pair), frag worst "
                 "coverage "
              << frag_atk->worst_coverage << " vs aes "
              << aes_atk->worst_coverage << " -> "
              << (pl_ok ? "PASS" : "fail") << "\n";
    if (atk_ok) best_ratio = std::max(best_ratio, min_ratio);
    frontier.push(Json::object()
                      .set("pl", level_index(pl))
                      .set("min_throughput_ratio", min_ratio)
                      .set("frag_worst_coverage", frag_atk->worst_coverage)
                      .set("aes_worst_coverage", aes_atk->worst_coverage)
                      .set("coverage_ok", atk_ok)
                      .set("pass", pl_ok));
  }

  bench::Report report("frontier");
  report.config.set("table_rows", 65536)
      .set("queries", kQueries)
      .set("tput_payload_bytes", 256 * 1024)
      .set("fragments", 3)
      .set("attack_table_rows", 2048)
      .set("attack_providers", 12)
      .set("colluding", 3)
      .set("timer", "best of 3 samples of >= 20 ms each");
  report.gate("e19.frontier",
              "max over PLs of min frag/partial-aes GB/s (put, get, every "
              "arm)",
              best_ratio, 2.0,
              "some PL has value >= bound with frag worst-coalition "
              "coverage <= partial-aes",
              best_ratio >= 2.0);
  report.at_most("e19.coverage",
                 "max over PL1, PL2 of frag minus partial-aes "
                 "worst-coalition coverage",
                 coverage_excess, 0.0);

  Json throughput = Json::array();
  for (const auto& r : tput_rows) {
    throughput.push(Json::object()
                        .set("pl", level_index(r.pl))
                        .set("mode", r.mode)
                        .set("arm", r.arm)
                        .set("put_gb_s", r.put_gb_s)
                        .set("get_gb_s", r.get_gb_s));
  }
  Json attack = Json::array();
  for (const auto& r : attack_rows) {
    attack.push(Json::object()
                    .set("pl", level_index(r.pl))
                    .set("mode", r.mode)
                    .set("coalitions", r.coalitions)
                    .set("worst_coverage", r.worst_coverage)
                    .set("mean_coverage", r.mean_coverage)
                    .set("regression_ok", r.regression_ok)
                    .set("regression_rmse", r.regression_rmse));
  }
  report.rows.set("throughput", throughput)
      .set("attack", attack)
      .set("frontier", frontier);

  std::cout << "expected shape: regime C pays ~#chunks more transfer and a "
               "whole-file decrypt per query; fragmentation regimes answer "
               "point queries at single-chunk cost; at PL1/PL2 key-less "
               "entanglement holds the colluding adversary to lower "
               "coverage than partial AES, and outruns the portable cipher "
               "but not hardware AES.\n\n";
  return report.finish(out_path);
}
