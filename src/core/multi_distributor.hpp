// Extended architecture with multiple Cloud Data Distributors (Fig. 2).
//
// "A single data distributor can create a bottleneck in the system as it can
// be the single point of failure. To eliminate this, multiple distributors
// of cloud data can be introduced. In case of multiple data distributors,
// for each client, a specific distributor will act as the primary
// distributor that will upload data, whereas other distributors will act as
// secondary distributors who can perform the data retrieval operations."
//
// All front-ends share one MetadataPlane (the consistent namespace,
// N-way sharded -- see core/metadata_plane.hpp) and one ProviderRegistry.
// Writes route to the client's primary front-end (a stable hash of the
// client name, so every group member computes the same assignment); reads
// go to any front-end, round-robin. Either way the op resolves against the
// (client, filename) pair's owning shard partition inside the plane, so a
// read served by a secondary sees exactly what the primary committed.
//
// The group keeps per-front-end read/write counters for the convenience
// API below: routing a read through front-end i charges front-end i, never
// the primary that originally wrote the file -- per-distributor load
// attribution stays correct even though the data resolves elsewhere.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/distributor.hpp"
#include "core/metadata_plane.hpp"
#include "util/hash.hpp"

namespace cshield::core {

class DistributorGroup {
 public:
  /// Builds `count` front-ends over the shared registry and a shared
  /// metadata plane. `config.plane` (when set) is used as-is -- pass a
  /// journaled N-shard plane for a durable group; otherwise an in-memory
  /// plane with `meta_shards` partitions is created. Seeds are derived
  /// from config.seed so the group is reproducible.
  DistributorGroup(storage::ProviderRegistry& registry,
                   DistributorConfig config, std::size_t count,
                   std::size_t meta_shards = 1)
      : plane_(config.plane != nullptr
                   ? config.plane
                   : MetadataPlane::make_in_memory(meta_shards)),
        reads_(std::make_unique<std::atomic<std::uint64_t>[]>(count)),
        writes_(std::make_unique<std::atomic<std::uint64_t>[]>(count)) {
    CS_REQUIRE(count > 0, "DistributorGroup needs >= 1 distributor");
    distributors_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      DistributorConfig c = config;
      c.plane = plane_;
      c.seed = config.seed + 0x9E3779B9ULL * (i + 1);
      distributors_.push_back(
          std::make_unique<CloudDataDistributor>(registry, c));
      reads_[i].store(0, std::memory_order_relaxed);
      writes_[i].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t size() const { return distributors_.size(); }

  /// The client's primary front-end index: a stable hash of the client
  /// name, identical on every group member (and across restarts). File
  /// renames do not move a client to another primary -- only the client
  /// name feeds the hash.
  [[nodiscard]] std::size_t primary_index(const std::string& client) const {
    return fnv1a64(client) % distributors_.size();
  }

  /// The client's primary distributor (stable hash of the client name).
  [[nodiscard]] CloudDataDistributor& primary_for(const std::string& client) {
    return *distributors_[primary_index(client)];
  }

  /// Any distributor, round-robin -- the read path.
  [[nodiscard]] CloudDataDistributor& any() {
    return *distributors_[next_.fetch_add(1, std::memory_order_relaxed) %
                          distributors_.size()];
  }

  [[nodiscard]] CloudDataDistributor& at(std::size_t i) {
    CS_REQUIRE(i < distributors_.size(), "DistributorGroup index");
    return *distributors_[i];
  }

  // --- client-facing convenience that enforces the primary/secondary
  //     routing discipline --------------------------------------------------

  Status register_client(const std::string& client) {
    return write_via(primary_index(client)).register_client(client);
  }

  Status add_password(const std::string& client, const std::string& password,
                      PrivacyLevel pl) {
    return write_via(primary_index(client)).add_password(client, password, pl);
  }

  /// Uploads go through the client's primary.
  Status put_file(const std::string& client, const std::string& password,
                  const std::string& filename, BytesView data,
                  const PutOptions& options, OpReport* report = nullptr) {
    return write_via(primary_index(client))
        .put_file(client, password, filename, data, options, report);
  }

  /// Modifications are writes: they go through the primary too.
  Status update_chunk(const std::string& client, const std::string& password,
                      const std::string& filename, std::uint64_t serial,
                      BytesView new_data, OpReport* report = nullptr) {
    return write_via(primary_index(client))
        .update_chunk(client, password, filename, serial, new_data, report);
  }

  Status remove_file(const std::string& client, const std::string& password,
                     const std::string& filename) {
    return write_via(primary_index(client))
        .remove_file(client, password, filename);
  }

  /// Retrievals may hit any distributor; the serving front-end is charged
  /// the read (its spans/counters carry the op), while the data resolves
  /// against the owning shard of the shared plane.
  [[nodiscard]] Result<Bytes> get_file(const std::string& client,
                                       const std::string& password,
                                       const std::string& filename,
                                       OpReport* report = nullptr) {
    return read_via(next_read_index())
        .get_file(client, password, filename, report);
  }

  [[nodiscard]] Result<Bytes> get_chunk(const std::string& client,
                                        const std::string& password,
                                        const std::string& filename,
                                        std::uint64_t serial,
                                        OpReport* report = nullptr) {
    return read_via(next_read_index())
        .get_chunk(client, password, filename, serial, report);
  }

  [[nodiscard]] Result<std::vector<CloudDataDistributor::FileInfo>>
  list_files(const std::string& client, const std::string& password) {
    return read_via(next_read_index()).list_files(client, password);
  }

  /// Per-front-end load attribution for the convenience API above.
  struct FrontEndLoad {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };
  [[nodiscard]] std::vector<FrontEndLoad> load() const {
    std::vector<FrontEndLoad> out(distributors_.size());
    for (std::size_t i = 0; i < distributors_.size(); ++i) {
      out[i].reads = reads_[i].load(std::memory_order_relaxed);
      out[i].writes = writes_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// The shared metadata plane.
  [[nodiscard]] const std::shared_ptr<MetadataPlane>& plane() const {
    return plane_;
  }

 private:
  [[nodiscard]] std::size_t next_read_index() {
    return next_.fetch_add(1, std::memory_order_relaxed) %
           distributors_.size();
  }
  CloudDataDistributor& read_via(std::size_t i) {
    reads_[i].fetch_add(1, std::memory_order_relaxed);
    return *distributors_[i];
  }
  CloudDataDistributor& write_via(std::size_t i) {
    writes_[i].fetch_add(1, std::memory_order_relaxed);
    return *distributors_[i];
  }

  std::shared_ptr<MetadataPlane> plane_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> reads_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> writes_;
  std::vector<std::unique_ptr<CloudDataDistributor>> distributors_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace cshield::core
