#include "core/utility.h"

namespace dynasore::core {

double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest, RackId write_rack,
                      std::vector<store::ReplicaStats::OriginReads>& scratch) {
  stats.CollectReads(scratch);
  return EstimateProfit(
      topo, exact_origins, scratch, stats.TotalWrites(), owner, candidate,
      ReadCost(topo, exact_origins, scratch, owner, nearest), write_rack);
}

double ReadCost(const net::Topology& topo, bool exact_origins,
                std::span<const store::ReplicaStats::OriginReads> reads,
                ServerId owner, ServerId target) {
  double cost = 0;
  for (const auto& [origin, count] : reads) {
    cost += static_cast<double>(count) *
            topo.OriginCost(owner, origin, target, exact_origins);
  }
  return cost;
}

double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      std::span<const store::ReplicaStats::OriginReads> reads,
                      std::uint32_t writes, ServerId owner, ServerId candidate,
                      double nearest_read_cost, RackId write_rack) {
  const double server_read_cost =
      ReadCost(topo, exact_origins, reads, owner, candidate);
  const double write_cost = static_cast<double>(writes) *
                            topo.RackToServerCost(write_rack, candidate);
  return nearest_read_cost - server_read_cost - write_cost;
}

}  // namespace dynasore::core
