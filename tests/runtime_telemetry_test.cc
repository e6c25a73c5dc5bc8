// rt::Telemetry — the observability layer's load-bearing properties: the
// Chrome trace export is well-formed and chronological per track, the
// per-epoch metric series reconciles bit-for-bit with the run's aggregate
// counters (counters are per-epoch deltas, so columns sum to run totals,
// including across mid-run resizes), event tracks survive reconfiguration
// (a retired shard keeps its history, ring drops keep sequence numbers
// monotone), and a telemetry-off run carries a null snapshot while staying
// bit-identical to a telemetry-on run under the deterministic kEpoch drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generator.h"
#include "runtime/auto_scaler.h"
#include "runtime/fault_injector.h"
#include "runtime/sharded_runtime.h"
#include "runtime/telemetry.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::rt {
namespace {

// ----- Fixtures (mirrors runtime_autoscale_test.cc) -----

graph::SocialGraph TestGraph(std::uint32_t users = 800) {
  graph::GraphGenConfig config;
  config.num_users = users;
  config.links_per_user = 8.0;
  config.seed = 7;
  return GenerateCommunityGraph(config);
}

wl::RequestLog TestLog(const graph::SocialGraph& g, double days = 1.0) {
  wl::SyntheticLogConfig config;
  config.days = days;
  config.seed = 11;
  return GenerateSyntheticLog(g, config);
}

struct RuntimeFixture {
  net::Topology topo;
  place::PlacementResult placement;
  core::EngineConfig engine;
};

RuntimeFixture MakeFixture(const graph::SocialGraph& g,
                           bool adaptive = false) {
  sim::ExperimentConfig config;
  config.policy = adaptive ? sim::Policy::kDynaSoRe : sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = 5;
  RuntimeFixture fx{sim::MakeTopology(config.cluster), {}, config.engine};
  fx.engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), fx.topo.num_servers(), config.extra_memory_pct);
  fx.engine.adaptive = adaptive;
  fx.placement = sim::MakeInitialPlacement(
      g, fx.topo, fx.engine.store.capacity_views, config);
  return fx;
}

struct PlanStep {
  std::uint64_t at_epoch;
  std::uint32_t shards;
};

RuntimeResult RunWithPlan(const graph::SocialGraph& g,
                          const wl::RequestLog& log, RuntimeConfig rt_config,
                          std::vector<PlanStep> plan, bool adaptive = false) {
  const RuntimeFixture fx = MakeFixture(g, adaptive);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.SetEpochHook(
      [&runtime, plan = std::move(plan)](SimTime, std::uint64_t idx) {
        for (const PlanStep& step : plan) {
          if (step.at_epoch == idx) runtime.Reconfigure(step.shards);
        }
      });
  return runtime.Run(log);
}

RuntimeConfig TelemetryConfigOn(std::uint32_t shards,
                                std::uint32_t capacity = 16384) {
  RuntimeConfig rt_config;
  rt_config.num_shards = shards;
  rt_config.telemetry.enabled = true;
  rt_config.telemetry.event_capacity = capacity;
  return rt_config;
}

// ----- Structural helpers -----

// Minimal JSON well-formedness: every brace/bracket balances, tracked
// outside string literals (labels like "split-load" contain no structural
// characters, but the checker stays string-aware regardless).
void ExpectBalancedJson(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

void ExpectEventsOrderedAndChronological(const TelemetrySnapshot& snap) {
  std::map<std::uint32_t, std::uint64_t> last_seq;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  std::uint32_t last_track = 0;
  for (const TraceEvent& e : snap.events) {
    EXPECT_GE(e.track, last_track) << "events must be grouped by track";
    if (e.track != last_track) last_track = e.track;
    EXPECT_LT(e.track, snap.num_tracks);
    auto [seq_it, first] = last_seq.try_emplace(e.track, e.seq);
    if (!first) {
      EXPECT_GT(e.seq, seq_it->second)
          << "per-track sequence must be strictly increasing";
      seq_it->second = e.seq;
    }
    auto [ts_it, first_ts] = last_ts.try_emplace(e.track, e.ts_ns);
    if (!first_ts) {
      EXPECT_GE(e.ts_ns, ts_it->second)
          << "per-track timestamps must be non-decreasing (track "
          << e.track << ", seq " << e.seq << ")";
      ts_it->second = e.ts_ns;
    }
    EXPECT_GE(e.ts_ns, snap.base_ts_ns);
  }
}

std::uint64_t CountEvents(const TelemetrySnapshot& snap, TraceEventType type) {
  std::uint64_t n = 0;
  for (const TraceEvent& e : snap.events) n += (e.type == type) ? 1 : 0;
  return n;
}

void ExpectSeriesReconciles(const RuntimeResult& r) {
  ASSERT_NE(r.telemetry, nullptr);
  const common::MetricSeries& series = r.telemetry->series;
  const auto total = [&](const char* name) {
    return static_cast<std::uint64_t>(series.ColumnTotal(name));
  };
  EXPECT_EQ(total("requests"), r.totals.requests);
  EXPECT_EQ(total("reads"), r.totals.reads);
  EXPECT_EQ(total("writes"), r.totals.writes);
  EXPECT_EQ(total("remote_read_slices"), r.totals.remote_read_slices);
  EXPECT_EQ(total("remote_write_applies"), r.totals.remote_write_applies);
  EXPECT_EQ(total("messages_sent"), r.totals.messages_sent);
  EXPECT_EQ(total("eager_drains"), r.totals.eager_drains);
  EXPECT_EQ(total("engine_view_reads"), r.counters.view_reads);
}

// Under the deterministic kEpoch drain every remote op reaches its
// destination through a batched boundary claim, so drain_batch_ops — the
// count of ops served from batched DrainChannel claims — must equal the sum
// of the remote-delivery counters bit for bit.
void ExpectBatchedDrainReconciles(const RuntimeResult& r) {
  ASSERT_NE(r.telemetry, nullptr);
  const common::MetricSeries& series = r.telemetry->series;
  EXPECT_EQ(static_cast<std::uint64_t>(series.ColumnTotal("drain_batch_ops")),
            r.totals.remote_read_slices + r.totals.remote_write_applies);
}

void ExpectCountersEq(const core::EngineCounters& a,
                      const core::EngineCounters& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.view_reads, b.view_reads);
  EXPECT_EQ(a.replica_updates, b.replica_updates);
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  EXPECT_EQ(a.replicas_dropped, b.replicas_dropped);
}

// ----- Trace export -----

TEST(RuntimeTelemetryTest, ChromeTraceIsWellFormedAndChronological) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);
  const RuntimeResult result =
      RunWithPlan(g, log, TelemetryConfigOn(2), {{4, 4}});
  ASSERT_NE(result.telemetry, nullptr);
  const TelemetrySnapshot& snap = *result.telemetry;

  ExpectEventsOrderedAndChronological(snap);
  EXPECT_EQ(snap.num_tracks, 5u);  // dispatcher + 4 shards after the split
  EXPECT_EQ(snap.dropped_events, 0u);

  // Every epoch boundary put one kEpoch span on the dispatcher track, in
  // epoch order, each reporting the live shard count.
  std::uint64_t epochs_seen = 0;
  std::uint64_t last_epoch = 0;
  for (const TraceEvent& e : snap.events) {
    if (e.type != TraceEventType::kEpoch) continue;
    EXPECT_EQ(e.track, 0u);
    EXPECT_GT(e.dur_ns, 0u);
    if (epochs_seen > 0) {
      EXPECT_GT(e.epoch, last_epoch);
    }
    last_epoch = e.epoch;
    EXPECT_TRUE(e.u0 == 2 || e.u0 == 4);
    ++epochs_seen;
  }
  EXPECT_GE(epochs_seen, 10u);  // 12 epochs in a half-day log
  EXPECT_GE(CountEvents(snap, TraceEventType::kBatch), 1u);
  EXPECT_GE(CountEvents(snap, TraceEventType::kDrain), 1u);
  EXPECT_EQ(CountEvents(snap, TraceEventType::kReconfigure), 1u);

  const std::string json = ChromeTraceJson(snap);
  ExpectBalancedJson(json);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatcher\""), std::string::npos);
  EXPECT_NE(json.find("\"shard 3\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"reconfigure\""), std::string::npos);
}

TEST(RuntimeTelemetryTest, RingDropsOldestButKeepsSequenceMonotone) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  // A 8-event ring per track is far below the run's event volume, so every
  // track overwrites; retained events must still be the *newest* per track
  // with strictly increasing sequence numbers.
  const RuntimeResult result =
      RunWithPlan(g, log, TelemetryConfigOn(2, /*capacity=*/8), {});
  ASSERT_NE(result.telemetry, nullptr);
  const TelemetrySnapshot& snap = *result.telemetry;
  EXPECT_GT(snap.dropped_events, 0u);
  ExpectEventsOrderedAndChronological(snap);
  for (std::uint32_t track = 0; track < snap.num_tracks; ++track) {
    const auto held = std::count_if(
        snap.events.begin(), snap.events.end(),
        [track](const TraceEvent& e) { return e.track == track; });
    EXPECT_LE(held, 8);
  }
  // The trailing boundary's drain events survive: the last retained shard
  // event is from the run's end, not its beginning.
  ExpectBalancedJson(ChromeTraceJson(snap));
}

// ----- Metric reconciliation -----

TEST(RuntimeTelemetryTest, MetricTotalsReconcileWithRunAggregates) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const RuntimeResult result = RunWithPlan(g, log, TelemetryConfigOn(4), {});
  EXPECT_EQ(result.totals.requests, result.expected_requests);
  ExpectSeriesReconciles(result);

  // One row per (boundary, shard): 24 epochs x 4 shards.
  const common::MetricSeries& series = result.telemetry->series;
  EXPECT_EQ(series.rows().size(), 24u * 4u);
  EXPECT_EQ(series.schema().size(), 25u);
  // Under kEpoch no staleness-gated polls run.
  EXPECT_EQ(series.ColumnTotal("eager_drains"), 0.0);
  // With the scaler and the staleness tuner disabled the SLO columns are
  // all-zero, and so are the RuntimeResult lifetime totals they mirror.
  EXPECT_EQ(series.ColumnTotal("slo_decisions"), 0.0);
  EXPECT_EQ(series.ColumnTotal("staleness_tuned"), 0.0);
  EXPECT_EQ(result.slo_split_decisions, 0u);
  EXPECT_EQ(result.staleness_tunings, 0u);
  // The end-to-end join still runs (it is not gated on telemetry or the
  // scaler): one sample per owned request.
  EXPECT_EQ(result.e2e_latency.count(), result.totals.requests);
  // Every remote op was delivered by a batched boundary claim.
  ExpectBatchedDrainReconciles(result);
  EXPECT_GT(series.ColumnTotal("drain_claims"), 0.0);
  // The CSV round-trips the header and row count.
  const std::string csv = series.ToCsv();
  EXPECT_EQ(csv.rfind("epoch,epoch_end_s,shard,requests,", 0), 0u);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            series.rows().size() + 1);
}

TEST(RuntimeTelemetryTest, BatchedDrainCountersReconcileAndSingleOpIsZero) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig batched_config = TelemetryConfigOn(4);
  batched_config.batched_drain = true;
  const RuntimeResult batched = RunWithPlan(g, log, batched_config, {});
  ExpectBatchedDrainReconciles(batched);
  const common::MetricSeries& bs = batched.telemetry->series;
  EXPECT_GT(bs.ColumnTotal("drain_claims"), 0.0);
  // Claims count DrainChannel calls that returned work; each claim yields
  // at least one batch and each batch at least one op.
  EXPECT_GE(bs.ColumnTotal("drain_batch_ops"), bs.ColumnTotal("drain_claims"));

  // The single-op reference path records no batched-claim activity but is
  // otherwise bit-identical: same engine counters, same remote deliveries.
  RuntimeConfig single_config = batched_config;
  single_config.batched_drain = false;
  const RuntimeResult single = RunWithPlan(g, log, single_config, {});
  const common::MetricSeries& ss = single.telemetry->series;
  EXPECT_EQ(ss.ColumnTotal("drain_claims"), 0.0);
  EXPECT_EQ(ss.ColumnTotal("drain_batch_ops"), 0.0);
  ExpectCountersEq(batched.counters, single.counters);
  EXPECT_EQ(batched.totals.remote_read_slices, single.totals.remote_read_slices);
  EXPECT_EQ(batched.totals.remote_write_applies,
            single.totals.remote_write_applies);
  EXPECT_EQ(batched.totals.messages_sent, single.totals.messages_sent);
}

TEST(RuntimeTelemetryTest, PlacementEventsRecordOutcomePerShard) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  RuntimeConfig rt_config = TelemetryConfigOn(2);
  rt_config.placement.pin_threads = true;
  rt_config.placement.first_touch = true;
  const RuntimeResult result = RunWithPlan(g, log, rt_config, {});
  ASSERT_NE(result.telemetry, nullptr);
  const TelemetrySnapshot& snap = *result.telemetry;

  // One placement instant per worker, on that worker's own track, carrying
  // the requested CPU and a non-empty outcome; pinning may legitimately
  // fail in restricted containers (u2 == 0) but the event is still emitted.
  std::uint64_t placements = 0;
  for (const TraceEvent& e : snap.events) {
    if (e.type != TraceEventType::kPlacement) continue;
    EXPECT_GE(e.track, 1u) << "placement runs on worker tracks, not track 0";
    EXPECT_EQ(e.dur_ns, 0u);
    EXPECT_EQ(e.u3, 1u);  // first_touch was requested
    EXPECT_STRNE(e.label, "");
    if (e.u2 != 0) {
      EXPECT_EQ(e.u1, e.u0);  // pinned => achieved == requested
    }
    ++placements;
  }
  EXPECT_EQ(placements, 2u);
  ExpectSeriesReconciles(result);
  ExpectBatchedDrainReconciles(result);

  const std::string json = ChromeTraceJson(snap);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"placement\""), std::string::npos);
}

TEST(RuntimeTelemetryTest, MetricTotalsReconcileAcrossResizes) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  // Split and merge mid-run: sampling happens before each resize and
  // baselines rebase after it, so counter columns still sum to run totals.
  const RuntimeResult result =
      RunWithPlan(g, log, TelemetryConfigOn(2), {{8, 4}, {16, 2}});
  EXPECT_EQ(result.totals.requests, result.expected_requests);
  ASSERT_EQ(result.shard_stats.size(), 2u);
  ExpectSeriesReconciles(result);

  // Shards 2 and 3 contribute rows only while they were live.
  const common::MetricSeries& series = result.telemetry->series;
  bool saw_high_shard = false;
  for (const common::MetricSeries::Row& row : series.rows()) {
    saw_high_shard = saw_high_shard || row.shard >= 2;
  }
  EXPECT_TRUE(saw_high_shard);
}

TEST(RuntimeTelemetryTest, ReplicationAndRebuildColumnsReconcileAcrossKill) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const RuntimeFixture fx = MakeFixture(g);
  RuntimeConfig rt_config = TelemetryConfigOn(4);
  rt_config.replication.enabled = true;
  rt_config.replication.mode = ReplicationMode::kSync;
  rt_config.replication.factor = 1;
  rt_config.replication.rebuild_batch = 64;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  FaultInjector injector;
  injector.KillShardAt(/*epoch=*/6, /*shard=*/1);
  runtime.SetFaultInjector(&injector);
  const RuntimeResult result = runtime.Run(log);

  EXPECT_EQ(result.totals.requests, result.expected_requests);
  ASSERT_NE(result.telemetry, nullptr);
  const common::MetricSeries& series = result.telemetry->series;
  const auto total = [&](const char* name) {
    return static_cast<std::uint64_t>(series.ColumnTotal(name));
  };
  // The replication and rebuild counter columns are per-epoch deltas like
  // every other counter: even across a mid-run kill (engine replaced,
  // baselines rebased, rebuild spanning several boundaries) each column
  // sums bit-for-bit to the run's aggregate.
  EXPECT_GT(result.totals.repl_sent, 0u);
  EXPECT_GT(result.totals.views_rebuilt, 0u);
  EXPECT_EQ(total("repl_sent"), result.totals.repl_sent);
  EXPECT_EQ(total("repl_applies"), result.totals.repl_applies);
  EXPECT_EQ(total("views_rebuilt"), result.totals.views_rebuilt);
  ExpectSeriesReconciles(result);

  // The kill shows up on the dispatcher track as one fault instant, one
  // failover span, bounded rebuild steps, and one completion instant.
  const TelemetrySnapshot& snap = *result.telemetry;
  EXPECT_EQ(CountEvents(snap, TraceEventType::kFault), 1u);
  EXPECT_EQ(CountEvents(snap, TraceEventType::kFailover), 1u);
  EXPECT_GE(CountEvents(snap, TraceEventType::kRebuildStep), 1u);
  EXPECT_EQ(CountEvents(snap, TraceEventType::kRebuildComplete), 1u);
  ASSERT_EQ(result.fault_events.size(), 1u);
  EXPECT_EQ(result.writes_lost_total, 0u);  // sync mode: zero loss

  const std::string json = ChromeTraceJson(snap);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"rebuild_complete\""), std::string::npos);
}

TEST(RuntimeTelemetryTest, EagerDrainColumnReconcilesUnderEagerPolicy) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);
  RuntimeConfig rt_config = TelemetryConfigOn(4);
  rt_config.drain = DrainPolicy::kEager;
  rt_config.staleness_micros = 0;
  const RuntimeResult result = RunWithPlan(g, log, rt_config, {});
  ExpectSeriesReconciles(result);
  EXPECT_EQ(static_cast<std::uint64_t>(
                result.telemetry->series.ColumnTotal("eager_drains")),
            result.totals.eager_drains);
}

// ----- Reconfiguration -----

TEST(RuntimeTelemetryTest, EventsSurviveReconfigureAndSequencesAreMonotone) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  RuntimeConfig rt_config = TelemetryConfigOn(4);
  rt_config.migration_batch = 100;  // incremental window: several steps
  const RuntimeResult result = RunWithPlan(g, log, rt_config, {{8, 2}});
  ASSERT_NE(result.telemetry, nullptr);
  const TelemetrySnapshot& snap = *result.telemetry;

  // ReconfigEvent sequence ids are monotone from 0.
  ASSERT_GE(result.reconfig_events.size(), 2u);
  for (std::size_t i = 0; i < result.reconfig_events.size(); ++i) {
    EXPECT_EQ(result.reconfig_events[i].sequence, i);
  }

  // The dispatcher track mirrors the window: one open, one step per batch,
  // one close; the step events carry the same sequence ids.
  EXPECT_EQ(CountEvents(snap, TraceEventType::kBeginReconfigure), 1u);
  EXPECT_EQ(CountEvents(snap, TraceEventType::kBeginReconfigure) +
                CountEvents(snap, TraceEventType::kStepMigration),
            result.reconfig_events.size());
  EXPECT_EQ(CountEvents(snap, TraceEventType::kCompleteMigration), 1u);

  // Retired shards keep their history: tracks for shards 2 and 3 still
  // carry events after the merge to 2 shards.
  EXPECT_EQ(snap.num_tracks, 5u);
  bool retired_track_has_events = false;
  for (const TraceEvent& e : snap.events) {
    retired_track_has_events = retired_track_has_events || e.track >= 3;
  }
  EXPECT_TRUE(retired_track_has_events);
  ExpectSeriesReconciles(result);
}

TEST(RuntimeTelemetryTest, SecondRunContinuesSequencesAndKeepsHistory) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  const RuntimeFixture fx = MakeFixture(g);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine,
                         TelemetryConfigOn(2));

  runtime.Reconfigure(4);
  const RuntimeResult first = runtime.Run(log);
  runtime.Reconfigure(2);
  const RuntimeResult second = runtime.Run(log);

  // Results re-report earlier reconfig events; sequence ids slice them.
  ASSERT_EQ(second.reconfig_events.size(), 2u);
  EXPECT_EQ(second.reconfig_events[0].sequence, 0u);
  EXPECT_EQ(second.reconfig_events[1].sequence, 1u);
  EXPECT_GT(second.reconfig_events[1].sequence,
            first.reconfig_events.back().sequence);

  // The event trace also accumulates across runs (tracks are never reset),
  // while the metric series keeps one row per boundary-shard of both runs.
  ASSERT_NE(second.telemetry, nullptr);
  EXPECT_GT(second.telemetry->events.size(), first.telemetry->events.size());
  EXPECT_GT(second.telemetry->series.rows().size(),
            first.telemetry->series.rows().size());
  ExpectEventsOrderedAndChronological(*second.telemetry);
}

// ----- Disabled telemetry -----

TEST(RuntimeTelemetryTest, DisabledTelemetryIsNullAndBitIdentical) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig off;
  off.num_shards = 4;
  const RuntimeResult base = RunWithPlan(g, log, off, {{8, 2}});
  EXPECT_EQ(base.telemetry, nullptr);

  RuntimeConfig on = off;
  on.telemetry.enabled = true;
  const RuntimeResult traced = RunWithPlan(g, log, on, {{8, 2}});
  ASSERT_NE(traced.telemetry, nullptr);

  // Telemetry only observes: under the deterministic kEpoch drain the
  // traced run's results are bit-identical to the untraced run's.
  ExpectCountersEq(base.counters, traced.counters);
  EXPECT_EQ(base.totals.requests, traced.totals.requests);
  EXPECT_EQ(base.totals.messages_sent, traced.totals.messages_sent);
  EXPECT_EQ(base.totals.remote_read_slices, traced.totals.remote_read_slices);
  ASSERT_EQ(base.shard_counters.size(), traced.shard_counters.size());
  for (std::size_t s = 0; s < base.shard_counters.size(); ++s) {
    ExpectCountersEq(base.shard_counters[s], traced.shard_counters[s]);
  }
  ASSERT_EQ(base.reconfig_events.size(), traced.reconfig_events.size());
  for (std::size_t i = 0; i < base.reconfig_events.size(); ++i) {
    EXPECT_EQ(base.reconfig_events[i].views_migrated,
              traced.reconfig_events[i].views_migrated);
  }
  EXPECT_EQ(base.request_latency.count(), traced.request_latency.count());
  // The completion join is observation-independent too: same sample count
  // (one per owned request) whether telemetry watched the run or not.
  EXPECT_EQ(base.e2e_latency.count(), base.totals.requests);
  EXPECT_EQ(traced.e2e_latency.count(), base.e2e_latency.count());
}

TEST(RuntimeTelemetryTest, ZeroCapacityRingIsRejectedWhenEnabled) {
  RuntimeConfig rt_config = TelemetryConfigOn(2, /*capacity=*/0);
  EXPECT_THROW(rt_config.Validate(), std::invalid_argument);
  rt_config.telemetry.enabled = false;
  EXPECT_NO_THROW(rt_config.Validate());
}

// ----- Scaler decision instants -----

TEST(RuntimeTelemetryTest, ScalerDecisionsAppearAsInstantEvents) {
  const auto g = TestGraph();
  wl::PhasedLogConfig phased;
  phased.base.days = 1.0;
  phased.base.seed = 11;
  phased.burst_multiplier = 6.0;
  phased.hot_users = 40;
  const wl::RequestLog log = GeneratePhasedLog(g, phased);
  const wl::RequestLog quiet = TestLog(g);

  RuntimeConfig rt_config = TelemetryConfigOn(1);
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = 1;
  rt_config.scaler.max_shards = 4;
  rt_config.scaler.cooldown_epochs = 1;
  const std::uint64_t quiet_ops = std::max<std::uint64_t>(
      1, quiet.requests.size() * kSecondsPerHour / quiet.duration);
  rt_config.scaler.split_shard_ops = quiet_ops + quiet_ops / 2;
  rt_config.scaler.merge_shard_ops = rt_config.scaler.split_shard_ops / 2;
  rt_config.scaler.merge_cold_epochs = 2;

  const RuntimeResult result = RunWithPlan(g, log, rt_config, {});
  ASSERT_NE(result.telemetry, nullptr);
  const TelemetrySnapshot& snap = *result.telemetry;

  // One instant per scaler observation, on the dispatcher track, with the
  // decision inputs attached; at least one split and one merge fired.
  bool saw_split = false;
  bool saw_merge = false;
  std::uint64_t observations = 0;
  for (const TraceEvent& e : snap.events) {
    if (e.type != TraceEventType::kScalerDecision) continue;
    EXPECT_EQ(e.track, 0u);
    EXPECT_EQ(e.dur_ns, 0u);
    EXPECT_GE(e.u0, 1u);  // num_shards
    if (e.u1 != 0) {
      EXPECT_STRNE(e.label, "");
    }
    saw_split = saw_split || (e.u1 != 0 && e.u1 > e.u0);
    saw_merge = saw_merge || (e.u1 != 0 && e.u1 < e.u0);
    ++observations;
  }
  EXPECT_GT(observations, 4u);
  EXPECT_TRUE(saw_split) << "the storm must record a split decision";
  EXPECT_TRUE(saw_merge) << "the trailing quiet must record a merge";
  EXPECT_GE(CountEvents(snap, TraceEventType::kReconfigure), 2u);
  ExpectSeriesReconciles(result);

  const std::string json = ChromeTraceJson(snap);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"scaler_decision\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("split-load"), std::string::npos);
}

// ----- SLO columns -----

// The three SLO columns reconcile against the scaler's own audit trail and
// the RuntimeResult lifetime totals. Offsets differ by design: e2e_p99 is
// sampled the same boundary the scaler observes it (bit-identical doubles),
// while slo_decisions counts "since the previous sample" — a decision made
// at boundary E lands in the first row of boundary E+1, so a decision at
// the final sampled boundary is never exported.
TEST(RuntimeTelemetryTest, SloColumnsReconcileWithScalerHistoryAndResult) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config = TelemetryConfigOn(1);
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = 1;
  rt_config.scaler.max_shards = 4;
  rt_config.scaler.cooldown_epochs = 1;
  // Load triggers off, merges off: every resize below is the SLO policy's.
  rt_config.scaler.split_shard_ops = 0;
  rt_config.scaler.merge_shard_ops = 0;
  // A 1 µs end-to-end target is unmeetable, so every observed epoch with
  // completions breaches it until the scaler parks at max_shards.
  rt_config.scaler.target_p99_micros = 1;

  const RuntimeFixture fx = MakeFixture(g);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  const RuntimeResult result = runtime.Run(log);
  ASSERT_NE(result.telemetry, nullptr);
  const common::MetricSeries& series = result.telemetry->series;
  ASSERT_NE(runtime.auto_scaler(), nullptr);
  const std::vector<ScalerObservation>& history =
      runtime.auto_scaler()->history();

  // The unmeetable target drove the full split ladder 1 -> 2 -> 4, and the
  // lifetime total mirrors the audit trail exactly.
  std::uint64_t fired = 0;
  for (const ScalerObservation& obs : history) {
    if (std::string_view(obs.reason) == "split-slo" && obs.decision != 0) {
      ++fired;
      EXPECT_GT(obs.e2e_p99_us, obs.slo_target_us);
      EXPECT_EQ(obs.slo_target_us, 1.0);
    }
  }
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(result.slo_split_decisions, fired);

  // Column offset: a decision at boundary E drains into boundary E+1's
  // sample, so the column sums to the decisions strictly before the last
  // sampled boundary.
  std::uint64_t max_epoch = 0;
  for (const common::MetricSeries::Row& row : series.rows()) {
    max_epoch = std::max(max_epoch, row.epoch);
  }
  std::uint64_t expected_sampled = 0;
  for (const ScalerObservation& obs : history) {
    if (std::string_view(obs.reason) == "split-slo" && obs.decision != 0 &&
        obs.epoch_index < max_epoch) {
      ++expected_sampled;
    }
  }
  EXPECT_EQ(series.ColumnTotal("slo_decisions"),
            static_cast<double>(expected_sampled));
  // The staleness tuner is off: its column stays all-zero.
  EXPECT_EQ(series.ColumnTotal("staleness_tuned"), 0.0);
  EXPECT_EQ(result.staleness_tunings, 0u);

  // e2e_p99 has no offset: every row of an epoch the scaler observed
  // carries the exact double the observation recorded (same delta
  // histogram, same expression, same boundary).
  std::size_t e2e_col = series.schema().size();
  for (std::size_t i = 0; i < series.schema().size(); ++i) {
    if (std::string_view(series.schema()[i].name) == "e2e_p99") e2e_col = i;
  }
  ASSERT_LT(e2e_col, series.schema().size());
  std::map<std::uint64_t, double> p99_by_epoch;
  for (const ScalerObservation& obs : history) {
    p99_by_epoch[obs.epoch_index] = obs.e2e_p99_us;
  }
  std::uint64_t rows_compared = 0;
  for (const common::MetricSeries::Row& row : series.rows()) {
    const auto it = p99_by_epoch.find(row.epoch);
    if (it == p99_by_epoch.end()) continue;  // boundary skipped by the scaler
    EXPECT_EQ(row.values[e2e_col], it->second);
    ++rows_compared;
  }
  EXPECT_GT(rows_compared, 4u);

  // The decision instants carry the SLO inputs, and the join conserves.
  const std::string json = ChromeTraceJson(*result.telemetry);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("split-slo"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"slo_target_us\""), std::string::npos);
  EXPECT_EQ(result.e2e_latency.count(), result.totals.requests);
  ExpectSeriesReconciles(result);
}

// The staleness tuner's column reconciles with the lifetime total up to the
// one-boundary offset: a retune at the final boundary is never sampled, and
// at most one retune happens per boundary, so the column sum is within 1 of
// RuntimeResult::staleness_tunings.
TEST(RuntimeTelemetryTest, StalenessTunedColumnReconcilesWithResult) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config = TelemetryConfigOn(4);
  rt_config.drain = DrainPolicy::kEager;
  rt_config.staleness_micros = 1000;
  rt_config.tune_staleness = true;
  // A 1 µs freshness target is unmeetable on any real machine, so the tuner
  // halves the live bound every evidenced boundary: 1000 µs reaches 0 in
  // ten retunes, well before the run's 24 boundaries.
  rt_config.staleness_target_p99_micros = 1;

  const RuntimeResult result = RunWithPlan(g, log, rt_config, {});
  ASSERT_NE(result.telemetry, nullptr);
  const common::MetricSeries& series = result.telemetry->series;

  EXPECT_GE(result.staleness_tunings, 10u);
  EXPECT_LT(result.staleness_micros_end, rt_config.staleness_micros);
  const double column = series.ColumnTotal("staleness_tuned");
  EXPECT_LE(column, static_cast<double>(result.staleness_tunings));
  EXPECT_GE(column + 1.0, static_cast<double>(result.staleness_tunings));
  // No scaler: the decision column stays all-zero.
  EXPECT_EQ(series.ColumnTotal("slo_decisions"), 0.0);
  EXPECT_EQ(result.slo_split_decisions, 0u);

  // Eager drains plus the tuner never break conservation: the join still
  // sees exactly one completion per owned request.
  EXPECT_EQ(result.e2e_latency.count(), result.totals.requests);
  ExpectSeriesReconciles(result);
}

}  // namespace
}  // namespace dynasore::rt
