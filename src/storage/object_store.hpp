// S3-style object store interface (SVI: put/get/delete by virtual-id key).
//
// Cloud providers in the paper expose exactly three operations keyed by the
// chunk's virtual id; everything above (RAID, placement, tables) is built on
// this interface. MemoryStore is the in-process implementation backing the
// simulated providers.
#pragma once

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace cshield::storage {

/// One object of a batched put. The view must stay valid for the duration
/// of the put_many call (the batching layers hold the shard arenas alive).
struct BatchPut {
  VirtualId id = 0;
  BytesView data;
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Stores (or overwrites) the object under `id`.
  virtual Status put(VirtualId id, BytesView data) = 0;

  /// Fetches a copy of the object.
  [[nodiscard]] virtual Result<Bytes> get(VirtualId id) const = 0;

  /// Deletes the object; kNotFound if absent.
  virtual Status remove(VirtualId id) = 0;

  /// Stores a batch; the returned statuses align with `batch` and items
  /// fail independently.
  virtual std::vector<Status> put_many(const std::vector<BatchPut>& batch) = 0;

  [[nodiscard]] virtual bool contains(VirtualId id) const = 0;
  [[nodiscard]] virtual std::size_t object_count() const = 0;
  [[nodiscard]] virtual std::size_t bytes_stored() const = 0;

  /// Snapshot of all ids currently stored (diagnostics / attack harness:
  /// an adversary who compromises a provider sees exactly this).
  [[nodiscard]] virtual std::vector<VirtualId> list_ids() const = 0;
};

/// Thread-safe in-memory object store.
class MemoryStore final : public ObjectStore {
 public:
  /// Never fails. The object's buffer is allocated on the calling thread.
  Status put(VirtualId id, BytesView data) override {
    std::lock_guard<std::mutex> lock(mu_);
    put_locked(id, data);
    return Status::Ok();
  }

  [[nodiscard]] Result<Bytes> get(VirtualId id) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    return it->second;
  }

  /// Takes the store lock once for the whole batch.
  std::vector<Status> put_many(const std::vector<BatchPut>& batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const BatchPut& item : batch) put_locked(item.id, item.data);
    return std::vector<Status>(batch.size(), Status::Ok());
  }

  Status remove(VirtualId id) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    bytes_ -= it->second.size();
    objects_.erase(it);
    return Status::Ok();
  }

  [[nodiscard]] bool contains(VirtualId id) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return objects_.count(id) != 0;
  }

  [[nodiscard]] std::size_t object_count() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return objects_.size();
  }

  [[nodiscard]] std::size_t bytes_stored() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  [[nodiscard]] std::vector<VirtualId> list_ids() const override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<VirtualId> ids;
    ids.reserve(objects_.size());
    for (const auto& [id, _] : objects_) ids.push_back(id);
    return ids;
  }

  /// Drops everything -- models a provider going out of business (SIII-A).
  void wipe() {
    std::lock_guard<std::mutex> lock(mu_);
    objects_.clear();
    bytes_ = 0;
  }

  /// Test/attack helper: flips one byte of a stored object in place,
  /// modelling silent corruption at the provider.
  Status flip_byte(VirtualId id, std::size_t offset) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    if (offset >= it->second.size()) {
      return Status::InvalidArgument("flip_byte offset out of range");
    }
    it->second[offset] ^= 0xFF;
    return Status::Ok();
  }

 private:
  /// Shared body of put()/put_many(); the caller holds mu_.
  void put_locked(VirtualId id, BytesView data) {
    auto it = objects_.find(id);
    if (it != objects_.end()) {
      bytes_ -= it->second.size();
      it->second.assign(data.begin(), data.end());
    } else {
      objects_.emplace(id, Bytes(data.begin(), data.end()));
    }
    bytes_ += data.size();
  }

  mutable std::mutex mu_;
  std::unordered_map<VirtualId, Bytes> objects_;
  std::size_t bytes_ = 0;
};

}  // namespace cshield::storage
