// Property-style sweeps over the adaptive engine: system-wide invariants
// that must hold for any seed, memory budget, topology shape and mechanism
// subset. These are the safety net for the churny parts of DynaSoRe
// (creation / eviction / migration racing each other).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::core {
namespace {

struct WorkloadCase {
  net::TreeConfig tree;
  std::uint32_t num_views;
  std::uint32_t capacity;
  std::uint64_t seed;
};

// Engine::SnapshotClosest must equal ViewRegistry::ClosestReplica for every
// (view, broker) pair.
void ExpectSnapshotMatchesRegistry(const Engine& engine,
                                   const net::Topology& topo,
                                   std::uint32_t num_views) {
  std::vector<ServerId> snapshot;
  for (ViewId v = 0; v < num_views; ++v) {
    engine.SnapshotClosest(v, snapshot);
    ASSERT_EQ(snapshot.size(), topo.num_brokers());
    for (BrokerId b = 0; b < topo.num_brokers(); ++b) {
      ASSERT_EQ(snapshot[b], engine.registry().ClosestReplica(b, v, topo))
          << "view " << v << " broker " << b;
    }
  }
}

// Drives a random mix of reads/writes/ticks through an engine and checks
// the invariants after every simulated hour.
void DriveAndCheck(Engine& engine, const net::Topology& topo,
                   std::uint32_t num_views, std::uint64_t seed, int hours) {
  common::Rng rng(seed);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < hours; ++hour) {
    for (int i = 0; i < 120; ++i) {
      t += 30;
      const auto user = static_cast<UserId>(rng.NextBounded(num_views));
      if (rng.NextBool(0.2)) {
        engine.ExecuteWrite(user, t);
        continue;
      }
      targets.clear();
      const std::uint64_t fanout = 1 + rng.NextBounded(6);
      for (std::uint64_t k = 0; k < fanout; ++k) {
        targets.push_back(static_cast<ViewId>(rng.NextBounded(num_views)));
      }
      engine.ExecuteRead(user, targets, t);
    }
    engine.Tick(t);

    // Invariant 1: every view has at least one replica.
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_GE(engine.ReplicaCount(v), 1u) << "view lost, hour " << hour;
    }
    // Invariant 2: no server over capacity; registry and stores agree.
    std::uint64_t store_total = 0;
    for (ServerId s = 0; s < topo.num_servers(); ++s) {
      ASSERT_LE(engine.server(s).used(), engine.server(s).capacity());
      store_total += engine.server(s).used();
    }
    std::uint64_t registry_total = 0;
    for (ViewId v = 0; v < num_views; ++v) {
      const auto& replicas = engine.registry().info(v).replicas;
      ASSERT_TRUE(std::is_sorted(replicas.begin(), replicas.end()));
      ASSERT_TRUE(std::adjacent_find(replicas.begin(), replicas.end()) ==
                  replicas.end())
          << "duplicate replica entry";
      registry_total += replicas.size();
      for (ServerId s : replicas) {
        ASSERT_TRUE(engine.server(s).Has(v))
            << "registry/store mismatch at view " << v;
      }
    }
    ASSERT_EQ(store_total, registry_total);
    // Invariant 3: proxies are valid brokers.
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_LT(engine.read_proxy(v), topo.num_brokers());
      ASSERT_LT(engine.write_proxy(v), topo.num_brokers());
    }
    // Invariant 4: the engine's routing snapshot is the registry's routing.
    ExpectSnapshotMatchesRegistry(engine, topo, num_views);
  }
}

class EngineInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(EngineInvariantTest, HoldUnderChurn) {
  const auto [seed, extra, exact_origins] = GetParam();
  const net::TreeConfig tree{3, 3, 4};
  const auto topo = net::Topology::MakeTree(tree);
  const std::uint32_t num_views = 200;
  const auto capacity = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     (1.0 + extra) * num_views /
                                     topo.num_servers()) +
                                     1));
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(seed));
  EngineConfig config;
  config.store.capacity_views = capacity;
  config.exact_origins = exact_origins;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views, static_cast<std::uint64_t>(seed) + 7,
                /*hours=*/8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariantTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.3, 1.0, 2.0),
                       ::testing::Bool()));

class FlatEngineInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatEngineInvariantTest, HoldOnFlatTopology) {
  const auto topo = net::Topology::MakeFlat(20);
  const std::uint32_t num_views = 150;
  const std::uint32_t capacity = 12;
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(GetParam()));
  EngineConfig config;
  config.store.capacity_views = capacity;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views,
                static_cast<std::uint64_t>(GetParam()) + 11, /*hours=*/6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatEngineInvariantTest,
                         ::testing::Values(10, 20, 30));

class MechanismSubsetTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(MechanismSubsetTest, AnySubsetIsSafe) {
  const auto [replication, migration, proxy_migration] = GetParam();
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 120;
  const std::uint32_t capacity = 16;
  const auto placement = place::RandomPlacement(num_views, topo, capacity, 3);
  EngineConfig config;
  config.store.capacity_views = capacity;
  config.enable_replication = replication;
  config.enable_migration = migration;
  config.enable_proxy_migration = proxy_migration;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views, 13, /*hours=*/6);
  if (!replication && !migration) {
    EXPECT_EQ(engine.counters().replicas_created, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Subsets, MechanismSubsetTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// Crash storms: repeatedly crash random servers mid-workload; nothing may
// ever be lost and the cluster must keep absorbing requests.
class CrashStormTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashStormTest, NoViewEverLost) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 3, 4});
  const std::uint32_t num_views = 150;
  const std::uint32_t capacity = 16;
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(GetParam()));
  EngineConfig config;
  config.store.capacity_views = capacity;
  Engine engine(topo, placement, config);

  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 80; ++i) {
      t += 40;
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
      if (i % 5 == 0) {
        engine.ExecuteWrite(static_cast<UserId>(rng.NextBounded(num_views)),
                            t);
      }
    }
    const auto victim =
        static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
    engine.CrashServer(victim, t);
    EXPECT_EQ(engine.server(victim).used(), 0u);
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_GE(engine.ReplicaCount(v), 1u)
          << "view " << v << " lost after crashing server " << victim;
      for (ServerId s : engine.registry().info(v).replicas) {
        ASSERT_TRUE(engine.server(s).Has(v));
      }
    }
    engine.Tick(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStormTest, ::testing::Values(1, 2, 3));

// Random replica sets of every size, from one copy to a quarter of the
// cluster, on tree shapes with a single rack per intermediate, the paper's
// 5x5x10, one server per rack over 600 racks, and a flat cluster.
TEST(ClosestSnapshotTest, OnePassMatchesRegistryOnRandomReplicaSets) {
  const std::vector<net::Topology> topologies = {
      net::Topology::MakeTree(net::TreeConfig{3, 1, 4}),
      net::Topology::MakeTree(net::TreeConfig{5, 5, 10}),
      net::Topology::MakeTree(net::TreeConfig{2, 300, 2}),
      net::Topology::MakeFlat(40),
  };
  for (const net::Topology& topo : topologies) {
    common::Rng rng(topo.num_servers());
    const std::uint32_t num_views = 200;
    place::PlacementResult placement;
    for (ViewId v = 0; v < num_views; ++v) {
      const std::uint64_t copies =
          1 + rng.NextBounded(std::max(1, topo.num_servers() / 4));
      std::vector<ServerId> replicas;
      while (replicas.size() < copies) {
        const auto s =
            static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
        if (std::find(replicas.begin(), replicas.end(), s) == replicas.end()) {
          replicas.push_back(s);
        }
      }
      std::sort(replicas.begin(), replicas.end());
      placement.master.push_back(replicas.front());
      placement.replicas.push_back(std::move(replicas));
    }
    EngineConfig config;
    config.store.capacity_views = num_views;
    const Engine engine(topo, placement, config);
    ExpectSnapshotMatchesRegistry(engine, topo, num_views);
  }
}

// Determinism: identical configuration and request sequence must produce
// bit-identical traffic and replica layouts.
TEST(EngineDeterminismTest, IdenticalRunsMatchExactly) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 100;
  const auto placement = place::RandomPlacement(num_views, topo, 20, 9);
  EngineConfig config;
  config.store.capacity_views = 20;

  auto run = [&]() {
    Engine engine(topo, placement, config);
    common::Rng rng(55);
    SimTime t = 0;
    std::vector<ViewId> targets;
    for (int i = 0; i < 2000; ++i) {
      t += 25;
      if (i % 500 == 499) engine.Tick(t);
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
    }
    return std::pair{engine.traffic().TierTotal(net::Tier::kTop,
                                                net::MsgClass::kApp),
                     engine.counters().replicas_created};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// The batching ablation must not change *which* replicas serve reads, only
// how many messages carry them.
TEST(BatchingTest, SameViewReadsFewerMessages) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 60;
  const auto placement = place::RandomPlacement(num_views, topo, 40, 2);

  auto run = [&](bool batch) {
    EngineConfig config;
    config.store.capacity_views = 40;
    config.adaptive = false;
    config.traffic.batch_per_server = batch;
    Engine engine(topo, placement, config);
    std::vector<ViewId> targets;
    for (ViewId v = 0; v < num_views; ++v) targets.push_back(v);
    engine.ExecuteRead(0, targets, 10);
    return std::pair{engine.counters().view_reads,
                     engine.traffic().TierTotal(net::Tier::kRack,
                                                net::MsgClass::kApp)};
  };
  const auto per_view = run(false);
  const auto batched = run(true);
  EXPECT_EQ(per_view.first, batched.first);   // same views fetched
  EXPECT_GT(per_view.second, batched.second);  // more bytes on the wire
}

// Durability mode (min_replicas_pin = R) must maintain R copies wherever
// memory allows, across churn.
class DurabilitySweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DurabilitySweepTest, PinnedCopiesSurviveChurn) {
  const std::uint32_t pin = GetParam();
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 40;
  place::PlacementResult placement;
  // Start every view with `pin` replicas on distinct servers.
  for (ViewId v = 0; v < num_views; ++v) {
    std::vector<ServerId> replicas;
    for (std::uint32_t r = 0; r < pin; ++r) {
      replicas.push_back(
          static_cast<ServerId>((v + r * 3) % topo.num_servers()));
    }
    std::sort(replicas.begin(), replicas.end());
    replicas.erase(std::unique(replicas.begin(), replicas.end()),
                   replicas.end());
    placement.replicas.push_back(replicas);
    placement.master.push_back(replicas.front());
  }
  EngineConfig config;
  config.store.capacity_views = 30;
  config.store.min_replicas_pin = pin;
  Engine engine(topo, placement, config);

  common::Rng rng(17);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < 6; ++hour) {
    for (int i = 0; i < 100; ++i) {
      t += 36;
      engine.ExecuteWrite(static_cast<UserId>(rng.NextBounded(num_views)), t);
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
    }
    engine.Tick(t);
    for (ViewId v = 0; v < num_views; ++v) {
      // Views that started with `pin` copies never drop below it.
      ASSERT_GE(engine.ReplicaCount(v),
                std::min<std::uint32_t>(
                    pin, static_cast<std::uint32_t>(
                             placement.replicas[v].size())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PinLevels, DurabilitySweepTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace dynasore::core
