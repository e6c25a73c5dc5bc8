// Worker lifecycle of the threaded runtime: a shard's worker is spawned once
// and stays parked on its task queue between Runs, so the serving path's
// many small Runs pay no thread spawn or join. These tests pin down what
// that lifetime must preserve — placement runs once per worker, not per
// Run; a long sequence of micro-batch Runs with between-runs resizes stays
// bit-identical to the inline fallback; an aborted Run and a between-runs
// kill leave workers that the next Run replaces; and a runtime is destroyed
// cleanly with parked workers (a hang here is caught by the test timeout).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "graph/generator.h"
#include "runtime/sharded_runtime.h"
#include "runtime/telemetry.h"
#include "sim/experiment.h"

namespace dynasore::rt {
namespace {

// ----- Fixtures -----

graph::SocialGraph TestGraph() {
  graph::GraphGenConfig config;
  config.num_users = 400;
  config.links_per_user = 8.0;
  config.seed = 7;
  return GenerateCommunityGraph(config);
}

struct RuntimeFixture {
  net::Topology topo;
  place::PlacementResult placement;
  core::EngineConfig engine;
};

RuntimeFixture MakeFixture(const graph::SocialGraph& g) {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kDynaSoRe;
  config.extra_memory_pct = 50;
  config.seed = 5;
  RuntimeFixture fx{sim::MakeTopology(config.cluster), {}, config.engine};
  fx.engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), fx.topo.num_servers(), config.extra_memory_pct);
  fx.engine.adaptive = true;
  fx.placement = sim::MakeInitialPlacement(
      g, fx.topo, fx.engine.store.capacity_views, config);
  return fx;
}

// One micro-batch as the server forms it in serving mode: every time
// rebased to 0 and a zero duration, so each Run is a single epoch with no
// ticks.
wl::RequestLog MicroBatch(const graph::SocialGraph& g, common::Rng& rng,
                          std::uint32_t ops) {
  wl::RequestLog log;
  for (std::uint32_t i = 0; i < ops; ++i) {
    Request r;
    r.user = static_cast<UserId>(rng.NextBounded(g.num_users()));
    r.op = rng.NextBool(0.3) ? OpType::kWrite : OpType::kRead;
    ++(r.op == OpType::kRead ? log.num_reads : log.num_writes);
    log.requests.push_back(r);
  }
  return log;
}

RuntimeConfig Config(std::uint32_t shards, bool threaded = true) {
  RuntimeConfig config;
  config.num_shards = shards;
  config.drain = DrainPolicy::kEpoch;
  config.spawn_threads = threaded;
  return config;
}

void ExpectCountersEq(const core::EngineCounters& a,
                      const core::EngineCounters& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.view_reads, b.view_reads);
  EXPECT_EQ(a.replica_updates, b.replica_updates);
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  EXPECT_EQ(a.replicas_dropped, b.replicas_dropped);
  EXPECT_EQ(a.evictions_watermark, b.evictions_watermark);
  EXPECT_EQ(a.drops_negative, b.drops_negative);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.read_proxy_migrations, b.read_proxy_migrations);
  EXPECT_EQ(a.write_proxy_migrations, b.write_proxy_migrations);
  EXPECT_EQ(a.crash_rebuilds, b.crash_rebuilds);
}

// Every request the runtime has accepted executed exactly once and
// completed its end-to-end join.
void ExpectConserved(const RuntimeResult& r, std::uint64_t requests) {
  EXPECT_EQ(r.totals.requests, requests);
  EXPECT_EQ(r.totals.reads + r.totals.writes, requests);
  EXPECT_EQ(r.e2e_latency.count(), requests);
  for (ShardHealth h : r.shard_health) EXPECT_EQ(h, ShardHealth::kUp);
}

std::uint64_t CountPlacements(const RuntimeResult& r) {
  std::uint64_t placements = 0;
  for (const TraceEvent& e : r.telemetry->events) {
    if (e.type == TraceEventType::kPlacement) ++placements;
  }
  return placements;
}

// ----- Placement runs once per worker -----

TEST(RuntimeWorkersTest, PlacementRunsOncePerWorkerAcrossRuns) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  RuntimeConfig config = Config(3);
  config.placement.pin_threads = true;
  config.telemetry.enabled = true;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, config);

  common::Rng rng(21);
  std::uint64_t sent = 0;
  RuntimeResult r;
  for (int run = 0; run < 3; ++run) {
    const wl::RequestLog log = MicroBatch(g, rng, 8);
    sent += log.requests.size();
    r = runtime.Run(log);
  }
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(r.telemetry->dropped_events, 0u);
  // Workers persist across Runs, so pinning happened once per worker: one
  // kPlacement event per shard over the runtime's lifetime.
  EXPECT_EQ(CountPlacements(r), 3u);
  ExpectConserved(r, sent);
}

// ----- Persistent workers match the inline fallback -----

TEST(RuntimeWorkersTest, MicroBatchRunsWithResizesMatchInline) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  ShardedRuntime threaded(g, fx.topo, fx.placement, fx.engine, Config(2));
  ShardedRuntime inline_rt(g, fx.topo, fx.placement, fx.engine,
                           Config(2, /*threaded=*/false));

  common::Rng rng(33);
  std::uint64_t sent = 0;
  RuntimeResult a;
  RuntimeResult b;
  for (int run = 0; run < 50; ++run) {
    // Resizes between Runs: a split spawns workers for the new shards at
    // the next Run, a merge joins the retired shards' parked workers.
    if (run == 20) {
      threaded.Reconfigure(4);
      inline_rt.Reconfigure(4);
    }
    if (run == 35) {
      threaded.Reconfigure(2);
      inline_rt.Reconfigure(2);
    }
    const wl::RequestLog log =
        MicroBatch(g, rng, 1 + static_cast<std::uint32_t>(run % 8));
    sent += log.requests.size();
    a = threaded.Run(log);
    b = inline_rt.Run(log);
  }

  ExpectConserved(a, sent);
  ExpectConserved(b, sent);
  EXPECT_EQ(a.reconfig_events.size(), 2u);
  EXPECT_EQ(a.totals.requests, b.totals.requests);
  EXPECT_EQ(a.totals.remote_read_slices, b.totals.remote_read_slices);
  EXPECT_EQ(a.totals.remote_write_applies, b.totals.remote_write_applies);
  EXPECT_EQ(a.totals.remote_slice_msgs, b.totals.remote_slice_msgs);
  EXPECT_EQ(a.totals.messages_sent, b.totals.messages_sent);
  EXPECT_EQ(a.totals.epochs, b.totals.epochs);
  ExpectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.shard_counters.size(), b.shard_counters.size());
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
  }
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(a.traffic_app[tier], b.traffic_app[tier]);
    EXPECT_EQ(a.traffic_sys[tier], b.traffic_sys[tier]);
  }
}

// ----- Recovery: aborted Run, between-runs kill -----

TEST(RuntimeWorkersTest, RunAfterAbortRespawnsWorkersAndConserves) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  RuntimeConfig config = Config(3);
  config.placement.pin_threads = true;
  config.telemetry.enabled = true;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, config);

  common::Rng rng(45);
  const wl::RequestLog first = MicroBatch(g, rng, 8);
  runtime.SetEpochHook([](SimTime, std::uint64_t) {
    throw std::runtime_error("hook failure");
  });
  EXPECT_THROW(runtime.Run(first), std::runtime_error);

  // The abort joined every worker; the next Run must spawn them again. The
  // hook fired after the boundary drain, so the aborted Run's requests did
  // execute and complete their joins.
  runtime.SetEpochHook({});
  const wl::RequestLog second = MicroBatch(g, rng, 8);
  const RuntimeResult r = runtime.Run(second);
  ExpectConserved(r, first.requests.size() + second.requests.size());
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(CountPlacements(r), 6u);  // 3 workers, spawned twice
}

TEST(RuntimeWorkersTest, RunAfterBetweenRunsKillConserves) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, Config(3));

  common::Rng rng(57);
  std::uint64_t sent = 0;
  for (int run = 0; run < 4; ++run) {
    const wl::RequestLog log = MicroBatch(g, rng, 6);
    sent += log.requests.size();
    runtime.Run(log);
  }
  // Joins shard 1's parked worker and swaps in a fresh engine; the rebuild
  // completes now, between runs.
  runtime.KillShard(1);
  RuntimeResult r;
  for (int run = 0; run < 4; ++run) {
    const wl::RequestLog log = MicroBatch(g, rng, 6);
    sent += log.requests.size();
    r = runtime.Run(log);
  }
  ExpectConserved(r, sent);
  ASSERT_EQ(r.fault_events.size(), 1u);
  EXPECT_EQ(r.fault_events.front().shard, 1u);
}

// ----- Teardown with parked workers -----

TEST(RuntimeWorkersTest, DestroyRightAfterRun) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  common::Rng rng(69);
  {
    ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, Config(4));
    const RuntimeResult r = runtime.Run(MicroBatch(g, rng, 8));
    EXPECT_EQ(r.totals.requests, 8u);
  }  // destroyed with four parked workers
}

TEST(RuntimeWorkersTest, DestroyAfterBetweenRunsMerge) {
  const auto g = TestGraph();
  const RuntimeFixture fx = MakeFixture(g);
  common::Rng rng(81);
  {
    ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, Config(4));
    runtime.Run(MicroBatch(g, rng, 8));
    runtime.Reconfigure(2);  // joins the two retired shards' workers
    EXPECT_EQ(runtime.num_shards(), 2u);
  }  // destroyed with the two surviving workers parked
}

}  // namespace
}  // namespace dynasore::rt
