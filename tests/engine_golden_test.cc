// Golden oracle for the adaptive engine: on one fixed small input (facebook
// preset at scale 0.001, half a day of the §4.2 synthetic log, fixed seeds)
// the per-tier application and system traffic, every EngineCounters field
// and the memory in use must equal constants recorded from the engine
// before its Algorithm 2/3 hot path was rewritten for speed. Such rewrites
// must keep every decision, and a changed decision moves at least one of
// these numbers.
//
// On a mismatch the suite prints the actual values as a ready-to-paste
// initializer; re-record only after an intentional behaviour change.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>

#include "graph/presets.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore {
namespace {

struct Golden {
  std::array<std::uint64_t, net::kNumTiers> app;
  std::array<std::uint64_t, net::kNumTiers> sys;
  core::EngineCounters counters;
  std::uint64_t used;
};

graph::SocialGraph GoldenGraph() {
  return graph::GenerateDataset(graph::Dataset::kFacebook, 0.001, 21);
}

wl::RequestLog GoldenLog(const graph::SocialGraph& g) {
  wl::SyntheticLogConfig config;
  config.days = 0.5;
  config.seed = 22;
  return wl::GenerateSyntheticLog(g, config);
}

sim::ExperimentConfig GoldenConfig() {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kDynaSoRe;
  config.extra_memory_pct = 50;
  config.seed = 23;
  return config;
}

void PrintGolden(const char* name, const Golden& g) {
  const core::EngineCounters& c = g.counters;
  std::printf(
      "const Golden %s{\n    {%llu, %llu, %llu},\n    {%llu, %llu, %llu},\n"
      "    {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
      "%llu, %llu},\n    %llu};\n",
      name, static_cast<unsigned long long>(g.app[0]),
      static_cast<unsigned long long>(g.app[1]),
      static_cast<unsigned long long>(g.app[2]),
      static_cast<unsigned long long>(g.sys[0]),
      static_cast<unsigned long long>(g.sys[1]),
      static_cast<unsigned long long>(g.sys[2]),
      static_cast<unsigned long long>(c.reads),
      static_cast<unsigned long long>(c.writes),
      static_cast<unsigned long long>(c.view_reads),
      static_cast<unsigned long long>(c.replica_updates),
      static_cast<unsigned long long>(c.replicas_created),
      static_cast<unsigned long long>(c.replicas_dropped),
      static_cast<unsigned long long>(c.evictions_watermark),
      static_cast<unsigned long long>(c.drops_negative),
      static_cast<unsigned long long>(c.migrations),
      static_cast<unsigned long long>(c.read_proxy_migrations),
      static_cast<unsigned long long>(c.write_proxy_migrations),
      static_cast<unsigned long long>(c.crash_rebuilds),
      static_cast<unsigned long long>(g.used));
}

void ExpectGolden(const Golden& expected, const Golden& actual) {
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(actual.app[tier], expected.app[tier]) << "app tier " << tier;
    EXPECT_EQ(actual.sys[tier], expected.sys[tier]) << "sys tier " << tier;
  }
  const core::EngineCounters& a = actual.counters;
  const core::EngineCounters& e = expected.counters;
  EXPECT_EQ(a.reads, e.reads);
  EXPECT_EQ(a.writes, e.writes);
  EXPECT_EQ(a.view_reads, e.view_reads);
  EXPECT_EQ(a.replica_updates, e.replica_updates);
  EXPECT_EQ(a.replicas_created, e.replicas_created);
  EXPECT_EQ(a.replicas_dropped, e.replicas_dropped);
  EXPECT_EQ(a.evictions_watermark, e.evictions_watermark);
  EXPECT_EQ(a.drops_negative, e.drops_negative);
  EXPECT_EQ(a.migrations, e.migrations);
  EXPECT_EQ(a.read_proxy_migrations, e.read_proxy_migrations);
  EXPECT_EQ(a.write_proxy_migrations, e.write_proxy_migrations);
  EXPECT_EQ(a.crash_rebuilds, e.crash_rebuilds);
  EXPECT_EQ(actual.used, expected.used);
  if (::testing::Test::HasFailure()) PrintGolden("kExpected", actual);
}

Golden SequentialGolden(const sim::ExperimentConfig& config) {
  const auto g = GoldenGraph();
  const auto log = GoldenLog(g);
  const sim::SimResult result = sim::RunExperiment(g, log, config);

  Golden actual{};
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    actual.app[tier] = static_cast<std::uint64_t>(result.full_run[tier].app);
    actual.sys[tier] = static_cast<std::uint64_t>(result.full_run[tier].sys);
  }
  actual.counters = result.counters;
  actual.used = result.memory_used;
  return actual;
}

TEST(EngineGoldenTest, SequentialSimulatorMatchesRecordedTraffic) {
  const Golden kExpected{
      {2204260, 5696340, 7650700},
      {110945, 248459, 284902},
      {6000, 1500, 205560, 2371, 3938, 2672, 2553, 119, 805, 2627, 374, 0},
      4266};
  ExpectGolden(kExpected, SequentialGolden(GoldenConfig()));
}

// The flat cluster of §4.5: one origin per machine, so Algorithm 3 runs its
// origin cap and every machine is its own rack.
TEST(EngineGoldenTest, SequentialFlatSimulatorMatchesRecordedTraffic) {
  sim::ExperimentConfig config = GoldenConfig();
  config.cluster.flat = true;
  const Golden kExpected{
      {3680760, 0, 0},
      {869258, 0, 0},
      {6000, 1500, 205560, 1500, 0, 0, 0, 0, 3335, 2904, 1117, 0},
      3000};
  ExpectGolden(kExpected, SequentialGolden(config));
}

TEST(EngineGoldenTest, TwoShardRuntimeMatchesRecordedTraffic) {
  const auto g = GoldenGraph();
  const auto log = GoldenLog(g);
  const sim::ExperimentConfig config = GoldenConfig();
  const net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), topo.num_servers(), config.extra_memory_pct);
  engine.adaptive = true;
  const place::PlacementResult placement = sim::MakeInitialPlacement(
      g, topo, engine.store.capacity_views, config);

  rt::RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt::ShardedRuntime runtime(g, topo, placement, engine, rt_config);
  const rt::RuntimeResult result = runtime.Run(log);
  ASSERT_EQ(result.totals.requests, result.expected_requests);

  Golden actual{};
  actual.app = result.traffic_app;
  actual.sys = result.traffic_sys;
  actual.counters = result.counters;
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    actual.used += runtime.shard_engine(s).TotalUsed();
  }

  const Golden kExpected{
      {2025380, 5558840, 7705160},
      {190379, 416156, 465453},
      {6000, 1500, 205560, 3025, 7886, 5336, 5091, 245, 8, 2510, 521, 0},
      8550};
  ExpectGolden(kExpected, actual);
}

}  // namespace
}  // namespace dynasore
