// Lock-free transport: one SpscRing per (source, destination) pair. Each
// channel has exactly one producer (the source shard's worker) and one
// consumer (the destination shard's worker), which is the SPSC contract;
// the dispatcher never touches the fabric.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/fabric.h"
#include "runtime/spsc_ring.h"

namespace dynasore::rt {
namespace {

class SpscFabric final : public Fabric {
 public:
  SpscFabric(std::uint32_t num_shards, std::uint32_t capacity)
      : num_shards_(num_shards) {
    rings_.reserve(static_cast<std::size_t>(num_shards) * num_shards);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(num_shards) * num_shards; ++i) {
      rings_.push_back(std::make_unique<SpscRing<WireBatch>>(capacity));
    }
  }

  bool TrySend(std::uint32_t src, std::uint32_t dst,
               WireBatch& batch) override {
    return at(src, dst).TryPush(batch);
  }

  std::optional<WireBatch> TryRecv(std::uint32_t src,
                                   std::uint32_t dst) override {
    return at(src, dst).TryPop();
  }

  std::size_t DrainChannel(std::uint32_t src, std::uint32_t dst,
                           std::vector<WireBatch>& out,
                           std::size_t max) override {
    return at(src, dst).ConsumeInto(out, max);
  }

  std::uint64_t OldestDispatchNs(std::uint32_t src,
                                 std::uint32_t dst) override {
    const WireBatch* front = at(src, dst).Front();
    return front == nullptr ? 0 : front->ops.front().dispatch_ns;
  }

  std::uint32_t Depth(std::uint32_t src, std::uint32_t dst) override {
    return static_cast<std::uint32_t>(at(src, dst).Size());
  }

  void PrefaultInbound(std::uint32_t dst) override {
    for (std::uint32_t src = 0; src < num_shards_; ++src) {
      at(src, dst).Prefault();
    }
  }

  std::uint32_t num_shards() const override { return num_shards_; }

 private:
  SpscRing<WireBatch>& at(std::uint32_t src, std::uint32_t dst) {
    return *rings_[static_cast<std::size_t>(src) * num_shards_ + dst];
  }

  const std::uint32_t num_shards_;
  std::vector<std::unique_ptr<SpscRing<WireBatch>>> rings_;
};

}  // namespace

// Defined in fabric_mutex.cc.
std::unique_ptr<Fabric> MakeMutexFabric(std::uint32_t num_shards,
                                        std::uint32_t min_channel_capacity);

std::unique_ptr<Fabric> MakeFabric(FabricTransport transport,
                                   std::uint32_t num_shards,
                                   std::uint32_t min_channel_capacity) {
  if (transport == FabricTransport::kMutex) {
    return MakeMutexFabric(num_shards, min_channel_capacity);
  }
  return std::make_unique<SpscFabric>(num_shards, min_channel_capacity);
}

}  // namespace dynasore::rt
