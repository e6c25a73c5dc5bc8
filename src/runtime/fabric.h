// The runtime's communication plane, extracted from ShardedRuntime so the
// transport is pluggable: one logical single-producer/single-consumer
// channel per (source shard, destination shard) pair carrying flat-encoded
// batches of remote work.
//
// Two transports implement the interface:
//   - kSpsc (fabric_spsc.cc): one lock-free SpscRing per channel. The epoch
//     protocol bounds occupancy (every channel is fully drained at each
//     epoch boundary while producers are quiescent), so rings are statically
//     sized from RuntimeConfig::queue_depth.
//   - kMutex (fabric_mutex.cc): the original mutex-guarded queue path, kept
//     as a selectable fallback and as the bit-for-bit reference the lock-free
//     transport is tested against.
//
// All operations are non-blocking; a full channel returns false from
// TrySend and the caller keeps (and keeps coalescing into) the batch.
//
// Thread-safety contract: each (src, dst) channel is a strict SPSC pair —
// shard src's worker is the channel's only producer, shard dst's worker its
// only consumer; no method is safe to call from any other thread. A fabric
// instance is fixed at `num_shards()`: online reconfiguration does not
// resize a fabric but *replaces* it (ShardedRuntime swaps in a fabric built
// for the new shard set). That swap is epoch-boundary-only — it is safe
// exactly when every worker is quiescent and every channel is empty, which
// the boundary drain guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"

namespace dynasore::rt {

// A slice of one logical request shipped between shards; applied on the
// destination in global sequence order at drain points. Targets live in the
// owning WireBatch's flat buffer so staging a remote slice never allocates
// per request.
struct FlatOp {
  // flags bit: this write op is a replication record for a designated
  // backup (rt::Replicator) — the receiver counts it toward repl_applies on
  // top of the normal apply. Transports never inspect flags.
  static constexpr std::uint8_t kReplicated = 1u << 0;

  std::uint64_t seq = 0;          // global dispatch order
  std::uint64_t dispatch_ns = 0;  // steady-clock stamp at dispatch
  SimTime time = 0;
  UserId user = 0;
  OpType op = OpType::kRead;
  std::uint8_t flags = 0;
  std::uint32_t target_begin = 0;  // into WireBatch::targets (reads only)
  std::uint32_t target_count = 0;
};

// A batch of remote ops from one source shard, ops in ascending seq order.
// Senders never ship empty batches, so ops.front() is always the batch's
// oldest op.
struct WireBatch {
  std::vector<FlatOp> ops;
  std::vector<ViewId> targets;
};

enum class FabricTransport : std::uint8_t { kMutex, kSpsc };

class Fabric {
 public:
  virtual ~Fabric() = default;

  // Producer side: only shard `src` may send on (src, *) channels. Moves
  // from `batch` and returns true on success; leaves `batch` untouched and
  // returns false when the channel is full.
  virtual bool TrySend(std::uint32_t src, std::uint32_t dst,
                       WireBatch& batch) = 0;

  // Consumer side: only shard `dst` may receive on (*, dst) channels.
  virtual std::optional<WireBatch> TryRecv(std::uint32_t src,
                                           std::uint32_t dst) = 0;

  // Consumer side, batched: appends up to `max` queued batches to `out`
  // under one synchronized claim (one acquire/release pair on the SPSC
  // transport, one lock acquisition on the mutex transport) and returns the
  // number drained. The runtime's epoch-boundary drain empties a whole
  // channel with a single call instead of one TryRecv per batch.
  virtual std::size_t DrainChannel(std::uint32_t src, std::uint32_t dst,
                                   std::vector<WireBatch>& out,
                                   std::size_t max) = 0;

  // Consumer side: dispatch stamp of the oldest undelivered op on the
  // channel, or 0 when it is empty. Gates the eager drain's staleness test
  // without popping still-fresh batches.
  virtual std::uint64_t OldestDispatchNs(std::uint32_t src,
                                         std::uint32_t dst) = 0;

  // Consumer side: batches currently queued on the channel — telemetry's
  // ring-depth probe. The producer may be mid-push, so the value is a lower
  // bound at the instant of the call; exact whenever the producer is
  // quiescent (epoch-boundary drains, where the runtime samples it).
  virtual std::uint32_t Depth(std::uint32_t src, std::uint32_t dst) = 0;

  // Consumer side: touches the consumer-facing storage of every (*, dst)
  // channel from the calling thread so the pages fault (and, under
  // first-touch NUMA policies, land) on the destination worker's node.
  // Only safe while every channel into dst is empty and all producers are
  // quiescent — the runtime's placement phase. Default no-op: the mutex
  // transport's deques allocate lazily on push, so there is nothing to
  // touch up front.
  virtual void PrefaultInbound(std::uint32_t dst) { (void)dst; }

  // The shard count this fabric was built for — immutable for the fabric's
  // lifetime (see the reconfiguration note above).
  virtual std::uint32_t num_shards() const = 0;
};

// Builds a fabric for `num_shards` shards whose channels hold at least
// `min_channel_capacity` batches each.
std::unique_ptr<Fabric> MakeFabric(FabricTransport transport,
                                   std::uint32_t num_shards,
                                   std::uint32_t min_channel_capacity);

}  // namespace dynasore::rt
