#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/utility.h"

namespace dynasore::core {

Engine::Engine(const net::Topology& topo,
               const place::PlacementResult& initial,
               const EngineConfig& config)
    : topo_(&topo),
      config_(config),
      registry_(initial, topo),
      traffic_(topo, config.traffic) {
  servers_.reserve(topo.num_servers());
  for (ServerId s = 0; s < topo.num_servers(); ++s) {
    servers_.emplace_back(s, config.store);
  }
  for (ViewId v = 0; v < registry_.num_views(); ++v) {
    for (ServerId s : registry_.info(v).replicas) {
      const bool ok = servers_[s].Insert(v);
      assert(ok && "initial placement exceeds server capacity");
      (void)ok;
    }
  }
  rack_cache_.assign(topo.num_racks(), RackCache{});
  rack_first_.assign(topo.num_racks(), kInvalidServer);
  int_first_.assign(topo.num_intermediates(), kInvalidServer);
}

std::uint64_t Engine::TotalUsed() const {
  std::uint64_t used = 0;
  for (const auto& s : servers_) used += s.used();
  return used;
}

std::uint64_t Engine::TotalCapacity() const {
  std::uint64_t capacity = 0;
  for (const auto& s : servers_) capacity += s.capacity();
  return capacity;
}

std::uint64_t Engine::TakeWatchedReads() {
  const std::uint64_t reads = watched_reads_;
  watched_reads_ = 0;
  return reads;
}

// ----- Request execution -----

void Engine::ExecuteRead(UserId reader, std::span<const ViewId> targets,
                         SimTime t, std::vector<store::Event>* feed_out) {
  ExecuteReadPartial(reader, targets, t, /*count_request=*/true, feed_out);
}

std::uint32_t Engine::ExecuteReadPartial(UserId reader,
                                         std::span<const ViewId> targets,
                                         SimTime t, bool count_request,
                                         std::vector<store::Event>* feed_out) {
  if (count_request) ++counters_.reads;
  std::uint32_t round_trips = 0;
  const BrokerId broker = registry_.info(reader).read_proxy;
  const RackId broker_rack = topo_->rack_of_broker(broker);

  accessed_scratch_.clear();
  for (ViewId v : targets) {
    const ServerId s = registry_.ClosestReplica(broker, v, *topo_);
    accessed_scratch_.push_back(s);
    ++counters_.view_reads;
    if (v == watched_view_) ++watched_reads_;
    if (!config_.traffic.batch_per_server) {
      traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, s),
                               config_.traffic.app_msg_size,
                               net::MsgClass::kApp, t);
    }
    if (feed_out != nullptr) {
      if (const store::ViewData* data = servers_[s].FindData(v)) {
        const auto events = data->events();
        feed_out->insert(feed_out->end(), events.begin(), events.end());
      }
    }
    if (config_.adaptive) {
      servers_[s].RecordRead(
          v, topo_->OriginIndex(s, broker_rack, config_.exact_origins));
      if (!InCooldown(v)) MaybeAdapt(v, s, t);
    }
  }

  if (config_.traffic.batch_per_server) {
    // One request/answer pair per distinct server contacted.
    auto unique_servers = accessed_scratch_;
    std::sort(unique_servers.begin(), unique_servers.end());
    unique_servers.erase(
        std::unique(unique_servers.begin(), unique_servers.end()),
        unique_servers.end());
    for (ServerId s : unique_servers) {
      traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, s),
                               config_.traffic.app_msg_size,
                               net::MsgClass::kApp, t);
    }
    round_trips = static_cast<std::uint32_t>(unique_servers.size());
  } else {
    round_trips = static_cast<std::uint32_t>(targets.size());
  }

  // Proxy placement belongs to the request's owner: a remotely applied
  // slice (count_request=false) must not migrate the reader's proxy on a
  // non-owner engine — mirroring ApplyReplicatedWrite, which skips write
  // proxy migration.
  if (count_request && config_.adaptive && config_.enable_proxy_migration &&
      !targets.empty()) {
    MaybeMigrateReadProxy(reader, accessed_scratch_, t);
  }
  return round_trips;
}

void Engine::ExecuteWrite(UserId writer, SimTime t) {
  ++counters_.writes;
  const ViewId v = writer;  // producer-pivoted views: one view per user
  const BrokerId broker = registry_.info(v).write_proxy;

  std::span<const store::Event> new_version;
  if (persist_ != nullptr && config_.store.payload_mode) {
    new_version = persist_->FetchView(writer);
  }

  accessed_scratch_.clear();
  for (ServerId s : registry_.info(v).replicas) {
    accessed_scratch_.push_back(s);
    ++counters_.replica_updates;
    traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, s),
                             config_.traffic.app_msg_size, net::MsgClass::kApp,
                             t);
    if (config_.adaptive) servers_[s].RecordWrite(v);
    if (!new_version.empty()) {
      if (store::ViewData* data = servers_[s].FindData(v)) {
        data->ReplaceWith(new_version);
      }
    }
  }

  if (config_.adaptive && config_.enable_proxy_migration) {
    MaybeMigrateWriteProxy(writer, t);
  }
}

void Engine::ApplyReplicatedWrite(ViewId v, SimTime t) {
  (void)t;  // the originating shard already charged the fan-out traffic
  std::span<const store::Event> new_version;
  if (persist_ != nullptr && config_.store.payload_mode) {
    new_version = persist_->FetchView(v);
  }
  for (ServerId s : registry_.info(v).replicas) {
    if (config_.adaptive) servers_[s].RecordWrite(v);
    if (!new_version.empty()) {
      if (store::ViewData* data = servers_[s].FindData(v)) {
        data->ReplaceWith(new_version);
      }
    }
  }
}

// ----- Proxy placement (§3.2 "Proxy placement") -----

BrokerId Engine::BestBrokerFor(std::span<const ServerId> accessed,
                               BrokerId current) const {
  if (topo_->is_flat()) {
    // Machines double as brokers: pick the machine serving the most views,
    // leaving the proxy in place on ties.
    flat_counts_.assign(topo_->num_servers(), 0);
    for (ServerId s : accessed) ++flat_counts_[s];
    BrokerId best = current;
    for (ServerId s = 0; s < topo_->num_servers(); ++s) {
      if (flat_counts_[s] > flat_counts_[best]) best = s;
    }
    return best;
  }
  // Walk down from the root, following the branch that transferred the most
  // views; ties keep the current proxy's branch to avoid gratuitous moves.
  int_counts_.assign(topo_->num_intermediates(), 0);
  rack_counts_.assign(topo_->num_racks(), 0);
  for (ServerId s : accessed) {
    ++int_counts_[topo_->intermediate_of_server(s)];
    ++rack_counts_[topo_->rack_of_server(s)];
  }
  const RackId current_rack = topo_->rack_of_broker(current);
  const std::uint16_t current_int = topo_->intermediate_of_rack(current_rack);
  std::uint16_t best_int = current_int;
  for (std::uint16_t i = 0; i < topo_->num_intermediates(); ++i) {
    if (int_counts_[i] > int_counts_[best_int]) best_int = i;
  }
  RackId best_rack = best_int == current_int
                         ? current_rack
                         : static_cast<RackId>(best_int *
                                               topo_->racks_per_intermediate());
  for (RackId r = static_cast<RackId>(best_int *
                                      topo_->racks_per_intermediate());
       r < (best_int + 1) * topo_->racks_per_intermediate(); ++r) {
    if (rack_counts_[r] > rack_counts_[best_rack]) best_rack = r;
  }
  return topo_->broker_of_rack(best_rack);
}

void Engine::MaybeMigrateReadProxy(UserId u,
                                   std::span<const ServerId> accessed,
                                   SimTime t) {
  ViewInfo& info = registry_.info(u);
  const BrokerId best = BestBrokerFor(accessed, info.read_proxy);
  if (best == info.read_proxy) return;
  // Proxy state transfer between brokers.
  traffic_.Record(topo_->PathBrokerBroker(info.read_proxy, best),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  info.read_proxy = best;
  ++counters_.read_proxy_migrations;
}

void Engine::MaybeMigrateWriteProxy(UserId u, SimTime t) {
  ViewInfo& info = registry_.info(u);
  const BrokerId best =
      BestBrokerFor(registry_.info(u).replicas, info.write_proxy);
  if (best == info.write_proxy) return;
  // State transfer plus a notification to every replica server, which store
  // their write proxy's location (§3.2).
  traffic_.Record(topo_->PathBrokerBroker(info.write_proxy, best),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  for (ServerId s : info.replicas) {
    traffic_.Record(topo_->PathBrokerServer(best, s),
                    config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  }
  info.write_proxy = best;
  ++counters_.write_proxy_migrations;
}

// ----- Adaptation (Algorithms 2 and 3) -----

void Engine::RefreshRackCache(RackId r) const {
  RackCache& cache = rack_cache_[r];
  cache.first = kInvalidServer;
  cache.second = kInvalidServer;
  cache.non_full = 0;
  for (ServerId s = topo_->rack_server_begin(r); s < topo_->rack_server_end(r);
       ++s) {
    if (servers_[s].Full()) continue;
    ++cache.non_full;
    if (cache.first == kInvalidServer ||
        servers_[s].used() < servers_[cache.first].used()) {
      cache.second = cache.first;
      cache.first = s;
    } else if (cache.second == kInvalidServer ||
               servers_[s].used() < servers_[cache.second].used()) {
      cache.second = s;
    }
  }
  cache.dirty = false;
}

ServerId Engine::RackCandidate(RackId r, ViewId v) const {
  const RackCache& cache = rack_cache_[r];
  if (cache.dirty) RefreshRackCache(r);
  // The cache lists the least-loaded non-full servers in order, so the
  // first one not holding `v` is the answer; a rack whose cached servers
  // all hold `v` has a candidate only beyond them.
  if (cache.first == kInvalidServer) return kInvalidServer;  // rack is full
  if (!servers_[cache.first].Has(v)) return cache.first;
  if (cache.second == kInvalidServer) return kInvalidServer;
  if (!servers_[cache.second].Has(v)) return cache.second;
  if (cache.non_full <= 2) return kInvalidServer;
  // Both least-loaded servers hold the view already: fall back to a scan.
  ServerId best = kInvalidServer;
  for (ServerId s = topo_->rack_server_begin(r); s < topo_->rack_server_end(r);
       ++s) {
    if (servers_[s].Full() || servers_[s].Has(v)) continue;
    if (best == kInvalidServer || servers_[s].used() < servers_[best].used()) {
      best = s;
    }
  }
  return best;
}

Engine::OriginScan Engine::ScanOrigin(ServerId owner, std::uint16_t origin,
                                      ViewId v) const {
  OriginScan scan;
  const auto [rack_lo, rack_hi] =
      topo_->OriginRackRange(owner, origin, config_.exact_origins);
  for (RackId r = rack_lo; r < rack_hi; ++r) {
    const ServerId candidate = RackCandidate(r, v);
    if (candidate == kInvalidServer) continue;
    if (scan.least_loaded == kInvalidServer ||
        servers_[candidate].used() < servers_[scan.least_loaded].used()) {
      scan.least_loaded = candidate;
    }
  }
  // The admission bar is the candidate server's own threshold (the
  // least-loaded server is also the one whose threshold the brokers learn
  // through the rack-minimum piggybacking of §3.2).
  if (scan.least_loaded != kInvalidServer) {
    scan.min_threshold = servers_[scan.least_loaded].admission_threshold();
  }
  return scan;
}

void Engine::MaybeAdapt(ViewId v, ServerId s, SimTime t) {
  if (config_.enable_replication && TryReplicate(v, s, t)) return;
  if (config_.enable_migration) TryMigrate(v, s, t);
}

bool Engine::TryReplicate(ViewId v, ServerId s, SimTime t) {
  const store::ReplicaStats* stats = servers_[s].Find(v);
  assert(stats != nullptr);
  stats->CollectReads(origin_scratch_);
  if (origin_scratch_.empty()) return false;

  const double writes = stats->TotalWrites();
  const RackId wrack = write_rack(v);

  double best_profit = 0;
  ServerId best_target = kInvalidServer;
  std::uint16_t best_origin = kNoOrigin;
  for (const auto& [origin, reads] : origin_scratch_) {
    const int cost_here =
        topo_->OriginCost(s, origin, s, config_.exact_origins);
    if (cost_here <= 1) continue;  // already as local as it gets
    const OriginScan scan = ScanOrigin(s, origin, v);
    if (scan.least_loaded == kInvalidServer) continue;
    const int cost_there =
        topo_->OriginCost(s, origin, scan.least_loaded, config_.exact_origins);
    if (cost_there >= cost_here) continue;
    // Only the origin's reads reroute to the new replica; the gain is their
    // locality improvement minus the cost of keeping one more copy updated.
    const double profit =
        static_cast<double>(reads) * (cost_here - cost_there) -
        writes * topo_->RackToServerCost(wrack, scan.least_loaded);
    if (profit > scan.min_threshold && profit > best_profit) {
      best_profit = profit;
      best_target = scan.least_loaded;
      best_origin = origin;
    }
  }
  if (best_target == kInvalidServer) return false;
  CreateReplica(v, best_target, s, t, /*move_stats=*/false, best_origin);
  ++counters_.replicas_created;
  return true;
}

void Engine::TryMigrate(ViewId v, ServerId s, SimTime t) {
  const store::ReplicaStats* stats = servers_[s].Find(v);
  assert(stats != nullptr);

  const bool pinned = Pinned(v);
  ServerId nearest = registry_.NextClosestReplica(s, v, *topo_);
  if (nearest == kInvalidServer) nearest = s;  // sole replica: compare moves

  // Every candidate is scored over the same collected reads and the same
  // fallback cost, so both are computed once.
  const RackId wrack = write_rack(v);
  stats->CollectReads(origin_scratch_);
  const std::uint32_t writes = stats->TotalWrites();
  const double nearest_cost =
      ReadCost(*topo_, config_.exact_origins, origin_scratch_, s, nearest);
  const auto profit_at = [&](ServerId candidate) {
    return EstimateProfit(*topo_, config_.exact_origins, origin_scratch_,
                          writes, s, candidate, nearest_cost, wrack);
  };
  double best_profit = profit_at(s);
  const double own_utility = best_profit;
  ServerId best_position = s;

  // A view read from very many distinct origins has no single better
  // position (the flat topology exposes up to one origin per machine);
  // evaluating every candidate would also make Algorithm 3 quadratic in the
  // origin count. The tree topology's n + m - 1 origins stay well below
  // this cap.
  constexpr std::size_t kMaxMigrationOrigins = 24;
  if (origin_scratch_.size() <= kMaxMigrationOrigins) {
    for (const auto& [origin, reads] : origin_scratch_) {
      (void)reads;
      const OriginScan scan = ScanOrigin(s, origin, v);
      if (scan.least_loaded == kInvalidServer) continue;
      const double profit = profit_at(scan.least_loaded);
      if (profit > best_profit && profit > scan.min_threshold) {
        best_profit = profit;
        best_position = scan.least_loaded;
      }
    }
  }

  if (best_position == s) {
    // Algorithm 3: a replica whose utility is negative and has no better
    // position is removed (never the last copy).
    if (!pinned && own_utility < 0) {
      DropReplica(v, s, t);
      ++counters_.replicas_dropped;
      ++counters_.drops_negative;
    }
    return;
  }
  CreateReplica(v, best_position, s, t, /*move_stats=*/true);
  DropReplica(v, s, t);
  ++counters_.migrations;
}

// ----- Replica set changes -----

void Engine::SnapshotClosest(ViewId v, std::vector<ServerId>& out) const {
  out.clear();
  out.reserve(topo_->num_brokers());
  const std::vector<ServerId>& replicas = registry_.info(v).replicas;
  if (topo_->is_flat()) {
    for (BrokerId b = 0; b < topo_->num_brokers(); ++b) {
      out.push_back(registry_.ClosestReplica(b, v, *topo_));
    }
    return;
  }
  // Tree distances are 1 inside the broker's rack, 3 inside its
  // intermediate sub-tree and 5 elsewhere, and ties go to the lower id: the
  // closest replica is the first (replicas ascend) in the broker's rack,
  // else in its sub-tree, else overall.
  for (ServerId r : replicas) {
    const RackId rack = topo_->rack_of_server(r);
    ServerId& rack_first = rack_first_[rack];
    if (rack_first == kInvalidServer) rack_first = r;
    ServerId& int_first = int_first_[topo_->intermediate_of_rack(rack)];
    if (int_first == kInvalidServer) int_first = r;
  }
  for (BrokerId b = 0; b < topo_->num_brokers(); ++b) {
    const RackId rack = topo_->rack_of_broker(b);
    ServerId closest = rack_first_[rack];
    if (closest == kInvalidServer) {
      closest = int_first_[topo_->intermediate_of_rack(rack)];
    }
    out.push_back(closest != kInvalidServer ? closest : replicas.front());
  }
  for (ServerId r : replicas) {
    const RackId rack = topo_->rack_of_server(r);
    rack_first_[rack] = kInvalidServer;
    int_first_[topo_->intermediate_of_rack(rack)] = kInvalidServer;
  }
}

void Engine::NotifyRoutingChange(ViewId v,
                                 std::span<const ServerId> closest_before,
                                 SimTime t) {
  const BrokerId wp = registry_.info(v).write_proxy;
  SnapshotClosest(v, closest_after_scratch_);
  for (BrokerId b = 0; b < topo_->num_brokers(); ++b) {
    if (closest_after_scratch_[b] != closest_before[b]) {
      traffic_.Record(topo_->PathBrokerBroker(wp, b),
                      config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
    }
  }
}

std::vector<std::uint16_t> Engine::RemapOrigin(ServerId source,
                                               ServerId target,
                                               std::uint16_t origin) const {
  std::vector<std::uint16_t> mapped;
  const auto [lo, hi] =
      topo_->OriginRackRange(source, origin, config_.exact_origins);
  mapped.reserve(hi - lo);
  for (RackId r = lo; r < hi; ++r) {
    const std::uint16_t idx =
        topo_->OriginIndex(target, r, config_.exact_origins);
    if (std::find(mapped.begin(), mapped.end(), idx) == mapped.end()) {
      mapped.push_back(idx);
    }
  }
  return mapped;
}

void Engine::CreateReplica(ViewId v, ServerId target, ServerId source,
                           SimTime t, bool move_stats,
                           std::uint16_t seed_origin) {
  assert(!servers_[target].Full());
  assert(!servers_[target].Has(v));
  const BrokerId wp = registry_.info(v).write_proxy;

  // Replication request to the write proxy (the synchronization point for
  // all replica-set changes, §3.2), its instruction back to the source, and
  // the view copy itself.
  traffic_.Record(topo_->PathBrokerServer(wp, source),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  traffic_.Record(topo_->PathBrokerServer(wp, source),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  traffic_.Record(topo_->PathServerServer(source, target),
                  config_.traffic.view_copy_size, net::MsgClass::kSystem, t);

  SnapshotClosest(v, closest_scratch_);
  const bool inserted = servers_[target].Insert(v);
  assert(inserted);
  (void)inserted;
  TouchServer(target);
  registry_.AddReplica(v, target);
  registry_.info(v).last_change_slot = current_slot_;
  NotifyRoutingChange(v, closest_scratch_, t);

  if (move_stats) {
    const store::ReplicaStats* source_stats = servers_[source].Find(v);
    store::ReplicaStats* target_stats = servers_[target].Find(v);
    assert(source_stats != nullptr && target_stats != nullptr);
    // Re-map origins from the source's frame to the target's: fine-grained
    // rack entries that leave the target's sub-tree collapse into its
    // aggregates, and incoming aggregates spread across their racks.
    target_stats->MergeRemapped(*source_stats, [&](std::uint16_t origin) {
      return RemapOrigin(source, target, origin);
    });
  } else if (seed_origin != kNoOrigin) {
    // The new replica takes over `seed_origin`'s reads: move that slice of
    // the access log with it so its utility reflects the traffic it now
    // serves (an empty log would read as useless at the next tick).
    store::ReplicaStats* source_stats = servers_[source].Find(v);
    store::ReplicaStats* target_stats = servers_[target].Find(v);
    assert(source_stats != nullptr && target_stats != nullptr);
    const std::uint32_t reads = source_stats->ExtractOrigin(seed_origin);
    if (reads > 0) {
      const std::vector<std::uint16_t> mapped =
          RemapOrigin(source, target, seed_origin);
      const auto share =
          static_cast<std::uint32_t>(reads / std::max<std::size_t>(
                                                 1, mapped.size()));
      std::uint32_t remainder =
          reads - share * static_cast<std::uint32_t>(mapped.size());
      for (std::uint16_t idx : mapped) {
        std::uint32_t amount = share + (remainder > 0 ? 1 : 0);
        if (remainder > 0) --remainder;
        if (amount > 0) target_stats->RecordRead(idx, amount);
      }
    }
  }

  if (config_.store.payload_mode) {
    const store::ViewData* source_data = servers_[source].FindData(v);
    store::ViewData* target_data = servers_[target].FindData(v);
    if (source_data != nullptr && target_data != nullptr) {
      target_data->ReplaceWith(source_data->events());
    }
  }
}

void Engine::DropReplica(ViewId v, ServerId s, SimTime t) {
  assert(registry_.ReplicaCount(v) > 1);
  const BrokerId wp = registry_.info(v).write_proxy;
  // Eviction request to the write proxy and its acknowledgment (§3.2: the
  // write proxy serializes evictions so at least one replica survives).
  traffic_.Record(topo_->PathBrokerServer(wp, s),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  traffic_.Record(topo_->PathBrokerServer(wp, s),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);

  // The dropped replica's reads reroute to the next closest copy: its
  // access history travels there (piggybacked on the eviction messages) so
  // the surviving replica's utility stays accurate instead of the window
  // restarting from zero.
  const ServerId heir = registry_.NextClosestReplica(s, v, *topo_);
  if (heir != kInvalidServer) {
    const store::ReplicaStats* from = servers_[s].Find(v);
    store::ReplicaStats* to = servers_[heir].Find(v);
    if (from != nullptr && to != nullptr) {
      to->MergeRemapped(
          *from,
          [&](std::uint16_t origin) { return RemapOrigin(s, heir, origin); },
          /*include_writes=*/false);
    }
  }

  SnapshotClosest(v, closest_scratch_);
  servers_[s].Erase(v);
  TouchServer(s);
  registry_.RemoveReplica(v, s);
  registry_.info(v).last_change_slot = current_slot_;
  NotifyRoutingChange(v, closest_scratch_, t);
}

// ----- Online reconfiguration (state hand-off between shard engines) -----

ViewStateSnapshot Engine::ExportViewState(ViewId v) const {
  ViewStateSnapshot snap;
  snap.view = v;
  const ViewInfo& info = registry_.info(v);
  snap.read_proxy = info.read_proxy;
  snap.write_proxy = info.write_proxy;
  snap.last_change_slot = info.last_change_slot;
  snap.replicas.reserve(info.replicas.size());
  for (ServerId s : info.replicas) {
    const store::ReplicaStats* stats = servers_[s].Find(v);
    assert(stats != nullptr);
    ViewStateSnapshot::Replica replica;
    replica.server = s;
    replica.stats = *stats;
    replica.utility = servers_[s].utility(v);
    if (config_.store.payload_mode) {
      if (const store::ViewData* data = servers_[s].FindData(v)) {
        const auto events = data->events();
        replica.events.assign(events.begin(), events.end());
      }
    }
    snap.replicas.push_back(std::move(replica));
  }
  return snap;
}

void Engine::ImportViewState(const ViewStateSnapshot& snap) {
  const ViewId v = snap.view;
  ViewInfo& info = registry_.info(v);
  for (ServerId s : info.replicas) {
    servers_[s].Erase(v);
    TouchServer(s);
  }
  info.replicas.clear();
  for (const ViewStateSnapshot::Replica& replica : snap.replicas) {
    const bool inserted = servers_[replica.server].Insert(v, /*force=*/true);
    assert(inserted);
    (void)inserted;
    TouchServer(replica.server);
    registry_.AddReplica(v, replica.server);
    store::ReplicaStats* stats = servers_[replica.server].Find(v);
    assert(stats != nullptr);
    *stats = replica.stats;
    servers_[replica.server].set_utility(v, replica.utility);
    if (config_.store.payload_mode && !replica.events.empty()) {
      if (store::ViewData* data = servers_[replica.server].FindData(v)) {
        data->ReplaceWith(replica.events);
      }
    }
  }
  info.read_proxy = snap.read_proxy;
  info.write_proxy = snap.write_proxy;
  info.last_change_slot = snap.last_change_slot;
}

std::vector<ViewStateSnapshot> Engine::ExportViewStates(
    std::span<const ViewId> views) const {
  std::vector<ViewStateSnapshot> snaps;
  snaps.reserve(views.size());
  for (ViewId v : views) snaps.push_back(ExportViewState(v));
  return snaps;
}

void Engine::ImportViewStates(std::span<const ViewStateSnapshot> snaps) {
  for (const ViewStateSnapshot& snap : snaps) ImportViewState(snap);
}

// ----- Periodic maintenance (§3.2) -----

void Engine::RecomputeUtilities(ServerId s, std::span<const ViewId> views) {
  store::StoreServer& server = servers_[s];
  for (ViewId v : views) {
    if (Pinned(v)) {
      server.set_utility(v, store::kInfiniteUtility);
      continue;
    }
    const ServerId nearest = registry_.NextClosestReplica(s, v, *topo_);
    assert(nearest != kInvalidServer);
    const store::ReplicaStats* stats = server.Find(v);
    server.set_utility(
        v, EstimateProfit(*topo_, config_.exact_origins, *stats, s, s,
                          nearest, write_rack(v), origin_scratch_));
  }
}

void Engine::UpdateThresholdAndEvict(ServerId s, SimTime t,
                                     std::vector<ViewId>& views) {
  store::StoreServer& server = servers_[s];

  // Views with negative utility are automatically removed (§3.2); `views`
  // keeps the survivors.
  std::size_t kept = 0;
  for (ViewId v : views) {
    if (!Pinned(v) && server.utility(v) < 0) {
      DropReplica(v, s, t);
      ++counters_.replicas_dropped;
      ++counters_.drops_negative;
    } else {
      views[kept++] = v;
    }
  }
  views.resize(kept);

  // Admission threshold: the utility of the view at the threshold_fill
  // percentile of *capacity*, or 0 while the server has room below it.
  std::vector<double> utilities;
  utilities.reserve(views.size());
  for (ViewId v : views) utilities.push_back(server.utility(v));
  const auto fill_slots = static_cast<std::size_t>(
      std::ceil(config_.store.threshold_fill * server.capacity()));
  if (utilities.size() < fill_slots || fill_slots == 0) {
    server.set_admission_threshold(0);
  } else {
    std::sort(utilities.begin(), utilities.end(), std::greater<double>());
    server.set_admission_threshold(utilities[fill_slots - 1]);
  }

  // Proactive eviction keeps memory available above the watermark: the
  // lowest-utility evictable view goes first, ties to the lower id. Dropping
  // one view changes neither another view's stored utility nor its pinned
  // status (only the victim's replica count moves), so one sorted pass
  // yields the same victims as re-picking the minimum after every drop.
  if (!server.AboveWatermark()) return;
  std::vector<std::pair<double, ViewId>> evictable;
  for (ViewId v : views) {
    if (Pinned(v)) continue;
    const double utility = server.utility(v);
    if (utility < store::kInfiniteUtility) evictable.emplace_back(utility, v);
  }
  std::sort(evictable.begin(), evictable.end());
  for (const auto& [utility, victim] : evictable) {
    if (!server.AboveWatermark()) break;
    DropReplica(victim, s, t);
    ++counters_.replicas_dropped;
    ++counters_.evictions_watermark;
  }
}

void Engine::Tick(SimTime t) {
  ++current_slot_;
  if (!config_.adaptive) return;
  for (auto& server : servers_) server.RotateCounters();
  // Each server's maintained views, listed once: during the tick a server's
  // view set changes only through its own drops in UpdateThresholdAndEvict.
  std::vector<std::vector<ViewId>> views(servers_.size());
  for (ServerId s = 0; s < servers_.size(); ++s) {
    views[s] = servers_[s].SortedViews();
    std::erase_if(views[s], [&](ViewId v) { return !Maintains(v); });
    RecomputeUtilities(s, views[s]);
  }
  for (ServerId s = 0; s < servers_.size(); ++s) {
    UpdateThresholdAndEvict(s, t, views[s]);
  }
}

// ----- Cluster management -----

void Engine::CrashServer(ServerId s, SimTime t) {
  store::StoreServer& server = servers_[s];
  const std::vector<ViewId> lost = server.SortedViews();
  for (ViewId v : lost) {
    SnapshotClosest(v, closest_scratch_);
    registry_.RemoveReplica(v, s);
    registry_.info(v).last_change_slot = current_slot_;
    if (registry_.ReplicaCount(v) == 0) {
      // Rebuild from the persistent store onto the crashed server's rack
      // (or the least-loaded server anywhere if the rack is full).
      const RackId rack = topo_->rack_of_server(s);
      ServerId target = kInvalidServer;
      for (ServerId cand = topo_->rack_server_begin(rack);
           cand < topo_->rack_server_end(rack); ++cand) {
        if (cand == s || servers_[cand].Full()) continue;
        if (target == kInvalidServer ||
            servers_[cand].used() < servers_[target].used()) {
          target = cand;
        }
      }
      if (target == kInvalidServer) {
        for (ServerId cand = 0; cand < servers_.size(); ++cand) {
          if (cand == s || servers_[cand].Full()) continue;
          if (target == kInvalidServer ||
              servers_[cand].used() < servers_[target].used()) {
            target = cand;
          }
        }
      }
      assert(target != kInvalidServer && "cluster has no space to recover");
      const bool inserted = servers_[target].Insert(v);
      assert(inserted);
      (void)inserted;
      TouchServer(target);
      registry_.AddReplica(v, target);
      if (config_.store.payload_mode && persist_ != nullptr) {
        if (store::ViewData* data = servers_[target].FindData(v)) {
          data->ReplaceWith(persist_->FetchView(v));
        }
      }
      ++counters_.crash_rebuilds;
    }
    NotifyRoutingChange(v, closest_scratch_, t);
  }
  // The machine restarts empty with the same capacity.
  servers_[s] = store::StoreServer(s, config_.store);
  TouchServer(s);
}

ViewId Engine::AddUser() {
  ServerId target = 0;
  for (ServerId s = 1; s < servers_.size(); ++s) {
    if (servers_[s].used() < servers_[target].used()) target = s;
  }
  const bool inserted = servers_[target].Insert(registry_.num_views());
  assert(inserted && "no capacity for a new user");
  (void)inserted;
  TouchServer(target);
  return registry_.AddView(
      target, topo_->broker_of_rack(topo_->rack_of_server(target)));
}

}  // namespace dynasore::core
