// Mutex transport: one lock-guarded deque per (source, destination) pair.
// The fallback (and reference) implementation of the fabric interface — the
// SPSC transport must match it bit-for-bit under the epoch drain policy.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/fabric.h"

namespace dynasore::rt {
namespace {

class MutexFabric final : public Fabric {
 public:
  MutexFabric(std::uint32_t num_shards, std::uint32_t capacity)
      : num_shards_(num_shards),
        capacity_(capacity == 0 ? 1 : capacity),
        channels_(static_cast<std::size_t>(num_shards) * num_shards) {}

  bool TrySend(std::uint32_t src, std::uint32_t dst,
               WireBatch& batch) override {
    Channel& ch = at(src, dst);
    std::lock_guard lock(ch.mutex);
    if (ch.batches.size() >= capacity_) return false;
    ch.batches.push_back(std::move(batch));
    return true;
  }

  std::optional<WireBatch> TryRecv(std::uint32_t src,
                                   std::uint32_t dst) override {
    Channel& ch = at(src, dst);
    std::lock_guard lock(ch.mutex);
    if (ch.batches.empty()) return std::nullopt;
    WireBatch batch = std::move(ch.batches.front());
    ch.batches.pop_front();
    return batch;
  }

  std::size_t DrainChannel(std::uint32_t src, std::uint32_t dst,
                           std::vector<WireBatch>& out,
                           std::size_t max) override {
    Channel& ch = at(src, dst);
    std::lock_guard lock(ch.mutex);
    const std::size_t n = std::min(max, ch.batches.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(ch.batches.front()));
      ch.batches.pop_front();
    }
    return n;
  }

  std::uint64_t OldestDispatchNs(std::uint32_t src,
                                 std::uint32_t dst) override {
    Channel& ch = at(src, dst);
    std::lock_guard lock(ch.mutex);
    if (ch.batches.empty()) return 0;
    return ch.batches.front().ops.front().dispatch_ns;
  }

  std::uint32_t Depth(std::uint32_t src, std::uint32_t dst) override {
    Channel& ch = at(src, dst);
    std::lock_guard lock(ch.mutex);
    return static_cast<std::uint32_t>(ch.batches.size());
  }

  std::uint32_t num_shards() const override { return num_shards_; }

 private:
  struct Channel {
    std::mutex mutex;
    std::deque<WireBatch> batches;
  };

  Channel& at(std::uint32_t src, std::uint32_t dst) {
    return channels_[static_cast<std::size_t>(src) * num_shards_ + dst];
  }

  const std::uint32_t num_shards_;
  const std::size_t capacity_;
  std::vector<Channel> channels_;
};

}  // namespace

std::unique_ptr<Fabric> MakeMutexFabric(std::uint32_t num_shards,
                                        std::uint32_t min_channel_capacity);
std::unique_ptr<Fabric> MakeMutexFabric(std::uint32_t num_shards,
                                        std::uint32_t min_channel_capacity) {
  return std::make_unique<MutexFabric>(num_shards, min_channel_capacity);
}

}  // namespace dynasore::rt
