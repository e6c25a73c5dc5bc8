// Algorithm 1 of the paper: Estimate_Profit. The utility of keeping a view
// replica on a server is the cost of rerouting its logged reads to the next
// closest replica, minus the cost of serving them here, minus the cost of
// keeping the replica updated on writes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "net/topology.h"
#include "store/store_server.h"

namespace dynasore::core {

// `owner` is the server whose statistics `stats` were recorded on (origin
// indices are relative to it). `candidate` is where the view is evaluated
// (equal to `owner` when scoring the replica in place). `nearest` is the
// fallback replica that would serve the logged reads otherwise; it must be a
// valid server (the caller pins sole replicas instead of scoring them).
// `write_rack` hosts the view's write proxy.
double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest, RackId write_rack,
                      std::vector<store::ReplicaStats::OriginReads>& scratch);

// Cost of serving the logged `reads` (origins relative to `owner`) from
// `target`, summed in origin order.
double ReadCost(const net::Topology& topo, bool exact_origins,
                std::span<const store::ReplicaStats::OriginReads> reads,
                ServerId owner, ServerId target);

// EstimateProfit over reads collected once (ReplicaStats::CollectReads) and
// scored at many candidates: `nearest_read_cost` is ReadCost(..., nearest)
// and `writes` the replica's TotalWrites(). Bit-identical to the overload
// above for the same inputs.
double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      std::span<const store::ReplicaStats::OriginReads> reads,
                      std::uint32_t writes, ServerId owner, ServerId candidate,
                      double nearest_read_cost, RackId write_rack);

}  // namespace dynasore::core
