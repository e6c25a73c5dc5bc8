// Regression test for trees wider than the paper's 5x5: proxy migration
// counts the views a request touched per intermediate and per rack, and
// those counters must cover every rack of the topology (TreeConfig allows up
// to 65535). Here 2 intermediates x 300 racks x 2 machines give 600 racks
// with one cache server each, and the adaptive engine runs reads, writes,
// replication, migration and both proxy migrations across all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "net/topology.h"
#include "placement/placement.h"

namespace dynasore::core {
namespace {

TEST(EngineLargeTreeTest, ProxyMigrationCoversRacksBeyond512) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 300, 2});
  ASSERT_EQ(topo.num_racks(), 600);
  ASSERT_EQ(topo.num_servers(), 600);

  const std::uint32_t num_views = 1200;
  EngineConfig config;
  config.store.capacity_views = 4;
  const place::PlacementResult placement =
      place::RandomPlacement(num_views, topo, config.store.capacity_views, 3);
  Engine engine(topo, placement, config);

  // Readers follow views homed in the highest racks, so proxies are drawn
  // toward brokers past the old 512-rack limit.
  std::vector<ViewId> high_views;
  for (ViewId v = 0; v < num_views; ++v) {
    if (topo.rack_of_server(placement.replicas[v].front()) >= 520) {
      high_views.push_back(v);
    }
  }
  ASSERT_FALSE(high_views.empty());

  common::Rng rng(17);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < 3; ++hour) {
    for (int i = 0; i < 600; ++i) {
      t += 5;
      const auto user = static_cast<UserId>(rng.NextBounded(num_views));
      if (i % 4 == 3) {
        engine.ExecuteWrite(user, t);
        continue;
      }
      targets.clear();
      for (int k = 0; k < 3; ++k) {
        targets.push_back(high_views[rng.NextBounded(high_views.size())]);
      }
      engine.ExecuteRead(user, targets, t);
    }
    engine.Tick(t);
  }

  EXPECT_EQ(engine.counters().reads + engine.counters().writes, 1800u);
  EXPECT_GT(engine.counters().read_proxy_migrations, 0u);
  EXPECT_GT(engine.counters().write_proxy_migrations, 0u);
  bool proxy_past_512 = false;
  for (ViewId v = 0; v < num_views; ++v) {
    ASSERT_LT(engine.read_proxy(v), topo.num_brokers());
    ASSERT_LT(engine.write_proxy(v), topo.num_brokers());
    ASSERT_GE(engine.ReplicaCount(v), 1u);
    proxy_past_512 |= engine.read_proxy(v) >= 512;
  }
  EXPECT_TRUE(proxy_past_512);
  for (ServerId s = 0; s < topo.num_servers(); ++s) {
    ASSERT_LE(engine.server(s).used(), engine.server(s).capacity());
  }
}

}  // namespace
}  // namespace dynasore::core
