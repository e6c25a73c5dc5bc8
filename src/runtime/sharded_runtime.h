// Sharded multi-threaded serving runtime.
//
// The sequential engine replays a request log on one thread; this runtime
// partitions the user/view id space across N worker shards, each backed by
// its own core::Engine instance over the same topology and initial
// placement. A dispatcher walks the log in time order and routes every
// request to the shard owning the issuing user through a bounded MPSC task
// queue (batched to amortize the lock). A read whose target list crosses
// shard boundaries executes its local slice immediately and ships the
// remote slices — and replicated-write coherence updates — through the
// rt::Fabric communication plane: one SPSC channel per (source,
// destination) shard pair, lock-free rings by default with the mutex queue
// path as a selectable fallback. The per-request hot path never touches
// shared state: counters, traffic, and latency histograms live in
// per-shard accumulators merged on demand after the run.
//
// Drain policies (RuntimeConfig::drain):
//   kEpoch — channels drain only at epoch boundaries, sorted by global
//   sequence number. Each shard's engine observes (a) its owned requests in
//   global log order, (b) drained channel messages in seq order, and (c)
//   ticks at epoch boundaries — none of which depend on thread
//   interleaving, so runs are byte-identical across runs, transports, and
//   the inline fallback, and the single-shard configuration reproduces the
//   sequential engine's counters exactly.
//   kEager — workers additionally poll inbound channels between request
//   batches and serve remote slices older than the staleness bound,
//   trading strict determinism for sub-epoch read freshness.
//
// Latency: every request is stamped at dispatch; the owning shard records
// dispatch-to-local-completion into its LatencyHistogram, and every remote
// slice records dispatch-to-applied on the serving shard — so the merged
// completion percentiles expose exactly the tail the epoch drain hides.
//
// Online reconfiguration: Reconfigure(n) requests a shard-count change that
// takes effect at the next epoch boundary — the deterministic drain point
// where every worker is quiescent and every fabric channel is empty. The
// runtime then splits or merges shard ownership in place: new shard engines
// are spawned (split) or surplus shards retired (merge, their counters and
// histograms folded into retained accumulators so merged totals keep
// conserving), every view whose owner changes hands over its engine state
// (Engine::ExportViewState/ImportViewState), the per-(source, destination)
// fabric is rebuilt for the new shard set, and the run resumes — surviving
// worker threads are never restarted and no request is dropped.
//
// With RuntimeConfig::migration_batch set, the hand-off is *incremental*:
// each boundary migrates at most migration_batch views and installs a
// transition ShardMap that routes migrated views to their new owner and
// pending views to their old one (dual ownership, see shard_map.h), so the
// serving pause per boundary is O(migration_batch) instead of O(id space).
// During a merge's transition window the retiring shards stay live until
// their last view has migrated away; the fabric is rebuilt and they are
// retired only at the final batch.
//
// With RuntimeConfig::scaler.enabled, an rt::AutoScaler closes the loop:
// at every boundary it consumes the per-epoch ShardStats deltas and
// requests splits/merges itself — see AutoScalerConfig (runtime_config.h)
// for the thresholds and hysteresis, and docs/reconfiguration.md for the
// full policy + migration state machine.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "core/engine.h"
#include "graph/social_graph.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "placement/placement.h"
#include "runtime/bounded_queue.h"
#include "runtime/fabric.h"
#include "runtime/fault_injector.h"
#include "runtime/health_map.h"
#include "runtime/replicator.h"
#include "runtime/runtime_config.h"
#include "runtime/shard_map.h"
#include "workload/flash.h"
#include "workload/request_log.h"

namespace dynasore::rt {

class AutoScaler;  // auto_scaler.h — the closed-loop reconfiguration policy

// telemetry.h — the observability layer (metrics + event trace). Owned by
// the runtime when TelemetryConfig::enabled; null otherwise, so every
// instrumentation site is a branch on a pointer and the disabled hot path
// pays no clock reads. TraceEventType's fixed underlying type lets the
// dispatcher-side helpers name event kinds without pulling the header in.
class Telemetry;
class TelemetryTrack;
struct TelemetrySnapshot;
enum class TraceEventType : std::uint8_t;

// Per-shard accumulators kept off the shared hot path; merged on demand.
//
// Ownership and thread-safety: each shard's ShardStats has exactly one
// writer — the shard's worker thread (or the calling thread in the inline
// fallback). The dispatcher reads them only at quiescent points (epoch
// boundaries and between runs, where every worker is parked on its task
// queue — see SpawnWorkers for the ordering), which is also when the
// auto-scaler takes its per-epoch deltas; no other thread may touch them
// while a run is in progress. An in-flight incremental migration changes
// nothing here: a retiring shard keeps accumulating into its own stats
// until the final batch folds them into the retained aggregates.
//
// Every field is a monotonically non-decreasing count over the shard's
// lifetime. operator+= is plain modular uint64 addition (merging cannot
// throw or saturate; a wrap would need > 1.8e19 events); DeltaSince
// extracts one epoch's activity by subtraction and saturates at 0 if a
// field ever ran backwards, so a bookkeeping bug degrades to a zero delta
// instead of a ~2^64 spike that would wrench the scaler.
struct ShardStats {
  std::uint64_t requests = 0;  // owned requests executed (reads + writes)
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t remote_read_slices = 0;   // read slices served for peers
  std::uint64_t remote_write_applies = 0; // replicated writes applied
  std::uint64_t remote_slice_msgs = 0;    // round-trips serving peer slices
  std::uint64_t messages_sent = 0;        // RemoteOps posted to peers
  // Staleness-gated mid-epoch polls that served work (kEager only; epoch-
  // boundary barrier-assist polls are not counted).
  std::uint64_t eager_drains = 0;
  std::uint64_t epochs = 0;
  // Queue-pressure signal for the auto-scaler, sampled by the dispatcher
  // as it pushes each request batch: batches dispatched, and the sum over
  // those pushes of the batches already queued ahead of each one (always 0
  // in the inline fallback, which executes instead of queueing). Boundary
  // control tasks are never part of the sample. queue_backlog_sum /
  // task_batches is the mean backlog the dispatcher found in front of this
  // shard — both are sums, so the ratio is well-defined on deltas too.
  // Unlike every other field these are written by the *dispatcher*, folded
  // into the shard's stats at the epoch boundary while the worker is
  // parked — same quiescent hand-off as the rest of reconfiguration.
  std::uint64_t task_batches = 0;
  std::uint64_t queue_backlog_sum = 0;
  // Replication-plane counters (rt::Replicator; all zero when replication
  // is disabled). repl_sent counts replication records this shard posted to
  // its designated backups as a primary; repl_applies counts records this
  // shard applied as a backup (a flagged op also counts toward
  // remote_write_applies — the drain reconciliation is unchanged).
  // views_rebuilt counts views restored *into* this shard by online rebuild
  // steps; like task_batches it is dispatcher-written at quiescent points.
  std::uint64_t repl_sent = 0;
  std::uint64_t repl_applies = 0;
  std::uint64_t views_rebuilt = 0;

  ShardStats& operator+=(const ShardStats& o) {
    requests += o.requests;
    reads += o.reads;
    writes += o.writes;
    remote_read_slices += o.remote_read_slices;
    remote_write_applies += o.remote_write_applies;
    remote_slice_msgs += o.remote_slice_msgs;
    messages_sent += o.messages_sent;
    eager_drains += o.eager_drains;
    epochs += o.epochs;
    task_batches += o.task_batches;
    queue_backlog_sum += o.queue_backlog_sum;
    repl_sent += o.repl_sent;
    repl_applies += o.repl_applies;
    views_rebuilt += o.views_rebuilt;
    return *this;
  }

  // Activity since `baseline` (an earlier snapshot of the same shard's
  // stats): per-field saturating subtraction — the auto-scaler's input
  // path. An identical baseline (empty epoch) yields all-zero deltas.
  ShardStats DeltaSince(const ShardStats& baseline) const {
    const auto sub = [](std::uint64_t cur, std::uint64_t prev) {
      return cur >= prev ? cur - prev : 0;
    };
    ShardStats d;
    d.requests = sub(requests, baseline.requests);
    d.reads = sub(reads, baseline.reads);
    d.writes = sub(writes, baseline.writes);
    d.remote_read_slices = sub(remote_read_slices, baseline.remote_read_slices);
    d.remote_write_applies =
        sub(remote_write_applies, baseline.remote_write_applies);
    d.remote_slice_msgs = sub(remote_slice_msgs, baseline.remote_slice_msgs);
    d.messages_sent = sub(messages_sent, baseline.messages_sent);
    d.eager_drains = sub(eager_drains, baseline.eager_drains);
    d.epochs = sub(epochs, baseline.epochs);
    d.task_batches = sub(task_batches, baseline.task_batches);
    d.queue_backlog_sum = sub(queue_backlog_sum, baseline.queue_backlog_sum);
    d.repl_sent = sub(repl_sent, baseline.repl_sent);
    d.repl_applies = sub(repl_applies, baseline.repl_applies);
    d.views_rebuilt = sub(views_rebuilt, baseline.views_rebuilt);
    return d;
  }
};

// Headline percentiles of one latency histogram, in microseconds.
struct LatencyPercentiles {
  std::uint64_t samples = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
  double max_us = 0;
};

LatencyPercentiles SummarizeLatency(const common::LatencyHistogram& h);

// One reconfiguration step (RuntimeResult::reconfig_events). A single-pause
// resize (RuntimeConfig::migration_batch == 0, or a between-runs apply)
// produces exactly one event covering the whole hand-off. An incremental
// resize produces one event per epoch boundary that migrated a batch —
// from_shards/to_shards repeat the overall old/new counts on every step,
// views_migrated counts only that step's batch, and views_pending says how
// many are still awaiting hand-off afterwards, so the final step of the
// window is the event with views_pending == 0 (it also carries the
// completion work: retiring surplus shards and rebuilding the fabric).
//
// Written by the dispatcher thread at quiescent points only; a run's result
// copies the accumulated list, so events are plain values thereafter.
struct ReconfigEvent {
  // Monotonically increasing id over the runtime's lifetime, stamped when
  // the event is recorded (0, 1, 2, ...). Because results re-report earlier
  // events, this is how consumers slice: events of run N+1 alone are those
  // with sequence > the largest sequence in run N's result — no fragile
  // diffing of event *counts* between results.
  std::uint64_t sequence = 0;
  SimTime epoch_end = 0;  // boundary it fired at; 0 when applied between runs
  std::uint32_t from_shards = 0;
  std::uint32_t to_shards = 0;
  std::uint64_t views_migrated = 0;  // views handed over in this step
  std::uint64_t views_pending = 0;   // still dual-owned after this step
  // Wall-clock the dispatcher spent applying this step while every worker
  // was quiesced — the serving pause the step costs. Incremental migration
  // exists to bound this per step: max pause_ns over a transition window is
  // O(migration_batch), vs O(owner-changing views) for a single pause.
  std::uint64_t pause_ns = 0;
};

// One injected (or KillShard-requested) fault, with its accounting
// (RuntimeResult::fault_events). Same lifecycle and sequence-id discipline
// as ReconfigEvent: dispatcher-written at quiescent points, lifetime-
// accumulated, lifetime-monotone `sequence`.
//
// For a kill, the views_* fields partition the views the dead shard owned
// by recovery source (see docs/fault_tolerance.md): replica — failed over
// to a fresh backup and re-imported from it; persist — payloads re-fetched
// from the attached persist::PersistentStore; cold — restarted from the
// initial placement state. The writes_* fields are the kill's exact write-
// loss verdict: unreplicated counts async replication records the primary
// buffered but never shipped (always 0 in sync mode — a write is only
// acknowledged at a boundary its replication records have already been
// applied by), recovered the subset whose payloads persist can restore, and
// lost = unreplicated - recovered.
struct FaultEvent {
  std::uint64_t sequence = 0;
  SimTime epoch_end = 0;  // boundary it fired at; 0 when applied between runs
  FaultSpec::Kind kind = FaultSpec::Kind::kKillShard;
  std::uint32_t shard = 0;  // kill victim, or the channel's source shard
  std::uint32_t peer = 0;   // channel destination (channel faults only)
  std::uint64_t views_owned = 0;    // kill: views the dead shard owned
  std::uint64_t views_replica = 0;  // ... recovering from a fresh backup
  std::uint64_t views_persist = 0;  // ... recovering from the persist store
  std::uint64_t views_cold = 0;     // ... restarting cold
  std::uint64_t writes_unreplicated = 0;  // async records lost with the kill
  std::uint64_t writes_recovered = 0;     // of those, recoverable via persist
  std::uint64_t writes_lost = 0;          // unreplicated - recovered
  std::uint64_t remote_ops_dropped = 0;   // kDropChannel: ops discarded
  std::uint64_t repl_records_dropped = 0; // of those, replication records
  std::uint64_t remote_ops_delayed = 0;   // kDelayChannel: ops held back
  std::uint64_t delay_epochs = 0;         // kDelayChannel: boundaries held
  // Dispatcher wall-clock applying the fault while workers were quiesced
  // (kill: classification + failover re-route + engine respawn).
  std::uint64_t pause_ns = 0;
};

// One bounded rebuild step (RuntimeResult::rebuild_events). A kill opens a
// rebuild window over the dead shard's views (plus backup resync items);
// every subsequent epoch boundary processes at most
// ReplicationConfig::rebuild_batch items across all open windows, so the
// serving pause per boundary stays O(rebuild_batch) — the step whose
// views_pending is 0 and completed is true closed the window and returned
// the shard to UP.
struct RebuildEvent {
  std::uint64_t sequence = 0;  // shared sequence space with FaultEvent
  SimTime epoch_end = 0;
  std::uint32_t shard = 0;          // the shard being rebuilt
  std::uint64_t views_replica = 0;  // restored from a backup this step
  std::uint64_t views_persist = 0;  // restored from the persist store
  std::uint64_t views_cold = 0;     // restarted cold
  std::uint64_t resyncs = 0;        // backup resync items processed
  std::uint64_t views_pending = 0;  // window items still queued after
  bool completed = false;           // this step closed the window
  std::uint64_t pause_ns = 0;
};

struct RuntimeResult {
  // Merged across shard engines. With reconfiguration, counters/totals and
  // the traffic and latency aggregates below also include the retained
  // contributions of retired shards; the per-shard vectors cover only the
  // shard set that finished the run.
  core::EngineCounters counters;
  std::vector<core::EngineCounters> shard_counters;
  ShardStats totals;
  std::vector<ShardStats> shard_stats;
  // Applied shard-count changes, in order, accumulated over the runtime's
  // lifetime: a run's result also re-reports changes applied before it
  // (between-runs events carry epoch_end 0). Empty iff this runtime never
  // reconfigured. Each event carries a lifetime-monotone `sequence` id; to
  // isolate one run's resizes, keep the events whose sequence exceeds the
  // largest sequence in the previous result (see ReconfigEvent).
  std::vector<ReconfigEvent> reconfig_events;
  // Faults applied and rebuild steps taken, in order — lifetime-accumulated
  // with lifetime-monotone sequence ids, same slicing discipline as
  // reconfig_events (fault and rebuild events share one sequence space, so
  // a kill and the steps that repair it interleave correctly by sequence).
  std::vector<FaultEvent> fault_events;
  std::vector<RebuildEvent> rebuild_events;
  // Per-shard health at run end plus the health-map version (bumped by
  // every transition). A completed run reports every shard kUp — the run
  // loop keeps driving boundaries until open rebuild windows drain.
  std::vector<ShardHealth> shard_health;
  std::uint64_t health_version = 0;
  // Lifetime write-loss total (sum of fault_events[i].writes_lost) and the
  // async replication records still buffered unshipped at run end (bounded
  // by ReplicationConfig::async_max_lag per shard; these are *lag*, not
  // loss — a subsequent kill would convert the victim's share into loss).
  std::uint64_t writes_lost_total = 0;
  std::uint64_t repl_pending_end = 0;
  // Merged per-tier message totals across shard engines (net::Tier index).
  std::array<std::uint64_t, net::kNumTiers> traffic_app{};
  std::array<std::uint64_t, net::kNumTiers> traffic_sys{};

  // Merged latency histograms (nanosecond samples). request_latency has one
  // sample per owned request (dispatch -> local slice completion);
  // remote_latency one per remote read slice or replicated-write apply
  // (dispatch -> applied on the serving shard); completion_latency is the
  // two merged — the end-to-end completion distribution.
  common::LatencyHistogram request_latency;
  common::LatencyHistogram remote_latency;
  common::LatencyHistogram completion_latency;
  LatencyPercentiles request_percentiles;     // over request_latency
  LatencyPercentiles completion_percentiles;  // over completion_latency

  // End-to-end *request* completion distribution from the dispatcher's
  // completion join: one sample per owned request, dispatch to the max over
  // its slices (local completion for writes and local-only reads, last
  // remote slice applied otherwise). Unlike completion_latency — which
  // mixes per-slice samples — this is a per-request histogram, so
  // e2e_latency.count() == totals.requests on every completed run: the
  // join's conservation invariant. Lifetime-accumulated like the other
  // merged histograms.
  common::LatencyHistogram e2e_latency;
  LatencyPercentiles e2e_percentiles;  // over e2e_latency

  // SLO control-plane lifetime totals: "split-slo" scaler decisions
  // forwarded to Reconfigure, staleness-bound adjustments the online tuner
  // made, and the tuned staleness bound in effect at run end (equals
  // RuntimeConfig::staleness_micros when tune_staleness is off).
  std::uint64_t slo_split_decisions = 0;
  std::uint64_t staleness_tunings = 0;
  std::uint64_t staleness_micros_end = 0;

  std::uint64_t expected_requests = 0;  // size of the replayed log
  double wall_seconds = 0;
  double ops_per_sec = 0;  // requests / wall_seconds

  // Snapshot of the run's telemetry (per-epoch metric series + event
  // trace), or null when RuntimeConfig::telemetry.enabled is false. Shared
  // because snapshots can be large and results are copied around freely;
  // the pointee is immutable. Include runtime/telemetry.h to use it.
  std::shared_ptr<const TelemetrySnapshot> telemetry;
};

class ShardedRuntime {
 public:
  // Copies the topology (shard engines keep pointers into it) and builds
  // one engine per shard from the same initial placement and config.
  // Throws std::invalid_argument for configurations that cannot run:
  // num_shards, queue_depth or batch_size of 0, or an epoch that rounds
  // down to 0 (engine slot_seconds of 0).
  ShardedRuntime(const graph::SocialGraph& g, const net::Topology& topo,
                 const place::PlacementResult& initial,
                 const core::EngineConfig& engine_config,
                 const RuntimeConfig& config);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // Replays the whole log (with optional flash-event overlays, matching
  // sim::Simulator::Run semantics) and merges the per-shard results.
  RuntimeResult Run(const wl::RequestLog& log,
                    std::span<const wl::FlashEvent> flash = {});

  void AttachPersistentStore(const persist::PersistentStore* persist);

  // ----- Online reconfiguration (epoch-boundary split/merge) -----

  // Requests a shard-count change. Thread-safe: may be called from any
  // thread — including from an epoch hook, the deterministic way to
  // schedule it — while Run is in progress, in which case it takes effect
  // at the next epoch boundary; outside a run it applies immediately (and
  // first completes any migration window an aborted run left in flight,
  // in one step). A request that lands after a run's last boundary is
  // applied when that run completes (never deferred to a later run). The
  // latest request within an epoch wins; requesting the current count is a
  // no-op. While an incremental migration window is open, new requests stay
  // parked (latest still wins) until the window closes, then apply at the
  // next boundary — transitions never nest. Throws std::invalid_argument
  // for 0. If an exception unwinds Run (e.g. a throwing epoch hook), a
  // request not yet applied is dropped with the aborted run — re-request
  // after Run rethrows if it should still happen.
  void Reconfigure(std::uint32_t new_shard_count);

  // Called on the dispatching thread at every epoch boundary, at the
  // quiescent point — after the boundary drain completes, before the
  // auto-scaler is consulted, before any pending reconfiguration (or
  // migration-window step) is applied: `epoch_end` is the boundary's
  // simulated time, `epoch_index` counts boundaries from 0 within the
  // current Run. Every worker is parked and every channel empty while the
  // hook runs, so it may safely call Reconfigure and inspect shard_map()/
  // num_shards(); it must not touch shard engines it does not own or block
  // on other threads. During an in-flight incremental migration the hook
  // keeps firing every boundary (the map it observes is the transition
  // map), and a run whose log has drained keeps running boundaries until
  // the window closes — so a hook keyed on epoch_index may see more
  // boundaries than the log's duration implies. Install before Run (not
  // thread-safe against a run in progress); installing an empty function
  // removes the hook.
  using EpochHook =
      std::function<void(SimTime epoch_end, std::uint64_t epoch_index)>;
  void SetEpochHook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  // ----- Fault injection and shard replication -----

  // Installs a deterministic fault plan (runtime/fault_injector.h): at each
  // epoch boundary the dispatcher fires the plan's faults for that epoch
  // index — channel drops/delays at the pre-drain point, kills at the
  // post-drain quiescent point (after the epoch hook). The runtime does not
  // take ownership; the injector must outlive it or be cleared with
  // nullptr. Epoch indices restart at 0 every Run, so the same plan
  // re-fires each run. Install before Run (not thread-safe against a run in
  // progress). Throws std::invalid_argument if the plan contains channel
  // faults under DrainPolicy::kEager — channel surgery needs the kEpoch
  // boundary, where the dispatcher briefly owns every channel endpoint
  // (under kEager, workers poll their inbound rings while awaiting the
  // drain).
  void SetFaultInjector(const FaultInjector* injector);

  // Kills shard `shard` now: its engine (all in-memory view state) is
  // destroyed and replaced by a fresh one, its worker joined (the run loop
  // spawns a new one before the shard's next dispatch), reads
  // failed over to a fresh backup where replication provides one, and an
  // online rebuild window opened that restores the lost views in bounded
  // batches at subsequent boundaries (docs/fault_tolerance.md). Dispatcher
  // context only: call from an epoch hook (the boundary quiescent point) or
  // between runs — between runs the rebuild completes immediately, batch by
  // batch. A kill while an incremental migration window is open first
  // force-finishes the migration (rebuild and migration never interleave);
  // if that completion retires the victim shard id, throws
  // std::invalid_argument like any other out-of-range id.
  void KillShard(std::uint32_t shard);

  // Per-shard health (UP / DOWN / REBUILDING), versioned. Same
  // (non-)thread-safety as the topology accessors below.
  const HealthMap& health() const { return health_; }
  // The replication control plane, or nullptr when replication is disabled.
  const Replicator* replicator() const { return replicator_.get(); }

  // Topology accessors. Unlike Reconfigure these are NOT thread-safe: call
  // them only from the thread driving Run/Reconfigure (or with external
  // ordering against both). Returned engine/map/fabric references are
  // invalidated by any reconfiguration — a merge destroys retired shards'
  // engines, and the fabric is replaced wholesale.
  core::Engine& shard_engine(std::uint32_t shard);
  const ShardMap& shard_map() const { return map_; }
  const RuntimeConfig& config() const { return config_; }
  const Fabric& fabric() const { return *fabric_; }
  std::uint32_t num_shards() const { return map_.num_shards(); }
  // Epoch length after rounding down to a divisor of the engine slot.
  SimTime epoch_seconds() const { return epoch_; }
  // The closed-loop policy, or nullptr when RuntimeConfig::scaler.enabled
  // is false. Same (non-)thread-safety as the accessors above; its
  // observation history is stable between runs.
  const AutoScaler* auto_scaler() const { return scaler_.get(); }

 private:
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  struct SeqRequest {
    std::uint64_t seq = 0;
    std::uint64_t dispatch_ns = 0;
    Request request;
  };

  struct Task {
    enum class Kind : std::uint8_t {
      kRequests,
      kEndEpoch,
      kDrainEpoch,
      kPlace,  // pin + first-touch on the worker, before any request
      kShutdown,
    };
    Kind kind = Kind::kRequests;
    std::vector<SeqRequest> requests;  // kRequests
    std::vector<SimTime> ticks;        // kDrainEpoch
    // kPlace: rebuild this shard's engine on the worker (first-touch of the
    // store pages). Only set on the first spawn while the engines are
    // pristine — never after requests executed or state was imported.
    bool rebuild_engine = false;
  };

  // Counts worker arrivals at an epoch phase boundary.
  class Gate {
   public:
    void Arrive();
    void WaitFor(std::uint32_t n);  // blocks, then resets the count
    void Reset();  // drops stale arrivals left by an aborted run

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::uint32_t arrived_ = 0;
  };

  // Producer-side staging for one destination: ops coalesce into the
  // pending batch until a flush point ships it through the fabric.
  struct Outbox {
    WireBatch batch;
    std::uint64_t last_seq = kNoSeq;  // per-request target coalescing
  };

  // ----- End-to-end completion join (dispatcher-side) -----
  //
  // A multi-shard read completes, end to end, when its *last* remote slice
  // has been applied — the per-slice histograms can't express that max, so
  // the runtime joins completions explicitly. Workers only append plain
  // records to their own shard's vectors (single-writer, like stats); the
  // dispatcher resolves them into e2e_total_ at every epoch boundary
  // (JoinCompletionsAtBoundary), keeping all histogram work off the hot
  // path and on one thread.

  // One owned request's join record, appended by the owning worker when the
  // request executes its local slice. `slices` counts the remote read
  // slices shipped for it (0 for writes and local-only reads — those
  // complete immediately at done_ns).
  struct JoinOrigin {
    std::uint64_t seq = 0;
    std::uint64_t dispatch_ns = 0;
    std::uint64_t done_ns = 0;  // local slice completion
    std::uint32_t slices = 0;
  };

  // One remote read slice's completion, appended by the *serving* worker
  // when it applies the slice (or synthesized by the dispatcher when a
  // channel fault drops the op — the join must still resolve).
  struct SliceDone {
    std::uint64_t seq = 0;
    std::uint64_t done_ns = 0;
  };

  // Dispatcher-side join state for a request still awaiting remote slices.
  struct PendingJoin {
    std::uint64_t dispatch_ns = 0;
    std::uint64_t max_done_ns = 0;
    std::uint32_t remaining = 0;
  };

  // One write awaiting async replication (ReplicationMode::kAsync without
  // payload coherence): buffered on the primary, shipped as flagged FlatOps
  // once the primary's buffer exceeds async_max_lag. What is still buffered
  // when the primary is killed is the kill's write loss.
  struct PendingRepl {
    std::uint64_t seq = 0;
    std::uint64_t dispatch_ns = 0;
    SimTime time = 0;
    UserId user = 0;
  };

  struct Shard {
    explicit Shard(std::uint32_t queue_depth) : tasks(queue_depth) {}

    std::uint32_t id = 0;
    std::unique_ptr<core::Engine> engine;
    BoundedQueue<Task> tasks;
    std::vector<Outbox> outbox;  // staged per destination
    ShardStats stats;
    // This shard's telemetry track, or null when telemetry is disabled —
    // the hot path's only telemetry cost is this branch. Single-writer by
    // the worker, like stats; (re)wired by WireTelemetryTracks at quiescent
    // points. A shard id retired and later respawned reuses its track, so
    // traces survive reconfiguration.
    TelemetryTrack* telem = nullptr;
    common::LatencyHistogram request_latency;  // single-writer: this shard
    common::LatencyHistogram remote_latency;
    // Completion-join records for the dispatcher (single-writer: this
    // shard's worker; drained and cleared by JoinCompletionsAtBoundary at
    // the quiescent point — transient, so kills and retires need no fold).
    std::vector<JoinOrigin> join_origins;
    std::vector<SliceDone> slice_done;
    // Lives as long as the shard (see SpawnWorkers); not joinable in the
    // inline fallback and between a kill or an aborted Run and the next
    // dispatch.
    std::thread worker;

    // Async replication buffer (single-writer: this shard's worker; read by
    // the dispatcher only at quiescent points — the lag gauge and the kill
    // path). Bounded: FlushForEpoch ships all but the newest async_max_lag
    // records at every boundary.
    std::vector<PendingRepl> repl_pending;

    // Reused per-request scratch (single-writer: only this shard's worker).
    std::vector<ViewId> overlay_scratch;
    std::vector<ViewId> local_scratch;
    std::vector<WireBatch> drain_batches;
    struct DrainRef {
      const FlatOp* op;
      const ViewId* targets;  // the owning batch's flat target buffer
    };
    std::vector<DrainRef> drain_order;
  };

  // The aggregate slice of a RuntimeResult one shard contributes. Both the
  // retired-shard accumulator and MergeResults fold through here, so the
  // conservation invariant cannot drift between the two paths when a new
  // per-shard metric is added.
  struct ShardAggregates {
    core::EngineCounters counters;
    ShardStats totals;
    common::LatencyHistogram request_latency;
    common::LatencyHistogram remote_latency;
    std::array<std::uint64_t, net::kNumTiers> traffic_app{};
    std::array<std::uint64_t, net::kNumTiers> traffic_sys{};

    void Fold(const Shard& shard);
    void Fold(const ShardAggregates& other);
  };

  // Builds one shard (engine over the stored initial placement, task queue,
  // outboxes are sized by the caller).
  std::unique_ptr<Shard> MakeShard(std::uint32_t id);
  // (Re)installs one engine's maintenance-ownership predicate from map_.
  // Called on the dispatcher at quiescent points, and on the owning worker
  // after a placement engine rebuild (map_ is stable then: the dispatcher
  // is parked on the placement gate).
  void InstallMaintenanceOwner(Shard& shard);
  // (Re)installs each engine's maintenance-ownership predicate from map_.
  void InstallMaintenanceOwners();
  // Runs on the worker thread as its first task (Task::Kind::kPlace):
  // pins the thread per PlacementConfig, optionally rebuilds the engine
  // (first_touch on pristine engines) and prefaults the consumer side of
  // the shard's inbound channels, then records the achieved placement as a
  // kPlacement trace event. Failures degrade to a recorded no-op.
  void ApplyPlacement(Shard& shard, bool rebuild_engine);

  // ----- Worker lifecycle (RuntimeConfig::spawn_threads) -----
  //
  // A worker lives as long as its shard. SpawnWorkers starts one for every
  // shard that has none and, when placement is active, runs the placement
  // phase (a kPlace task per new worker, then the gate) for just those — so
  // pinning and first-touch happen once per worker. Run calls it at start
  // and after every epoch boundary: on the first Run it spawns them all,
  // afterwards only the shards a split created, a kill joined or an aborted
  // Run shut down. A worker is joined only when its shard is retired by a
  // merge (RetireShard), killed (KillShardAtBoundary), when an aborted
  // Run's guard calls ShutdownWorkers, or by the destructor.
  //
  // Between Runs every worker is parked in a blocking Pop on its task queue
  // (no CPU), and the dispatcher-side work done then — Reconfigure,
  // KillShard, telemetry track rewiring, AttachPersistentStore, the
  // accessors — touches state workers own without racing them: a worker's
  // last access in a Run precedes its gate_.Arrive(), its next access
  // follows a task-queue Push, and both take a mutex the dispatcher also
  // takes (WaitFor, Push), so every such access is ordered by them.
  void SpawnWorkers();
  // Pushes a kShutdown task; the worker exits after finishing queued work.
  static void RequestShutdown(Shard& shard);
  // Stops every live worker: shutdown tasks first, then joins. The abort
  // path only — a completed Run leaves its workers parked. Shards with no
  // running worker (inline mode, spawn failed midway) are left alone so no
  // stale shutdown task can linger into a later Run.
  void ShutdownWorkers();
  // Folds a retiring shard's counters, stats, traffic and histograms into
  // the retained accumulators and shuts down its worker if one is running.
  void RetireShard(Shard& shard);
  // Applies a shard-count change in one quiesced pause. Epoch-boundary
  // only: every worker must be quiescent and every fabric channel empty
  // (or no run in progress).
  void ApplyReconfigure(std::uint32_t new_count, SimTime epoch_end);

  // ----- Incremental migration (RuntimeConfig::migration_batch > 0) -----
  //
  // All three run on the dispatcher thread at quiescent points. Begin
  // decides between the single-pause path and opening a migration window
  // (ledger of owner-changing views + transition map); Step migrates the
  // next batch at each subsequent boundary and closes the window after the
  // last one (merge: retire surplus shards, rebuild the fabric); Finish
  // drains every remaining batch in one step — the between-runs path for a
  // window an aborted run left open.

  // One in-flight incremental resize; at most one exists at a time.
  struct MigrationWindow {
    ShardMap target;    // the pure map being migrated toward
    std::uint32_t from_shards = 0;
    std::uint32_t to_shards = 0;
    // Owner-changing views (ascending id — the deterministic batch order)
    // paired with their old owner; `next` is the hand-off cursor. Shared
    // with every transition map installed during the window, so each
    // per-batch map install is O(1) — only the cursor advances.
    std::shared_ptr<const ShardMap::PendingLedger> ledger;
    std::size_t next = 0;
  };

  void BeginReconfigure(std::uint32_t new_count, SimTime epoch_end);
  void StepMigration(SimTime epoch_end);
  void FinishMigrationNow();
  // Migrates ledger entries [window.next, window.next + batch) and installs
  // the matching transition (or final) map; returns the views handed over.
  std::uint64_t MigrateNextBatch(std::uint64_t batch);
  // Tears down the window after the last batch: retires surplus shards,
  // rebuilds the fabric for the target count, restores the pure map.
  void CompleteMigration();

  // ----- Fault handling and online rebuild (dispatcher thread only) -----
  //
  // A kill replaces the victim's engine with a fresh one and opens a
  // RebuildWindow: an ordered to-do list of rebuild items processed in
  // bounded batches (ReplicationConfig::rebuild_batch across all open
  // windows) at subsequent epoch boundaries. While a view's kReplica item
  // is unprocessed, the view is *diverted*: a transition ShardMap routes it
  // to the serving backup (ShardMap::Transition over a combined override
  // ledger — the same dual-ownership machinery incremental migration uses),
  // so healthy shards never pause for the rebuild.

  struct RebuildItem {
    enum class Cls : std::uint8_t {
      kReplica,    // import from fresh backup `peer`; diverted there until then
      kPersist,    // re-fetch the payload from the persist store
      kCold,       // no recovery source: restart from initial-placement state
      kResyncIn,   // import primary `peer`'s views (restores pair (peer, s))
      kResyncOut,  // export s's rebuilt views into backup `peer`
      kSkip,       // cancelled by a second fault; processed as a no-op
    };
    Cls cls = Cls::kCold;
    ViewId view = 0;
    std::uint32_t peer = 0;  // see Cls; unused for kCold/kSkip
  };

  struct RebuildWindow {
    std::uint32_t shard = 0;
    std::vector<RebuildItem> items;  // own views first, then resync items
    std::size_t next = 0;            // processing cursor
    // Pairs to MarkPairFresh once the window completes; purged of pairs
    // involving a shard that dies before then (the double-fault path).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh_on_complete;
  };

  // A WireBatch held back by a kDelayChannel fault, re-injected onto its
  // channel at the pre-drain point of `release_epoch`.
  struct DelayedBatch {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t release_epoch = 0;
    WireBatch batch;
  };

  // Async shipping at the boundary flush: moves all but the newest
  // async_max_lag buffered records into the shard's outboxes as flagged
  // FlatOps. Runs on the worker inside FlushForEpoch.
  void ShipAsyncReplication(Shard& shard);
  // Pre-drain boundary point (kEpoch): re-injects matured delayed batches,
  // then applies this epoch's channel drops/delays. The dispatcher briefly
  // acts as both endpoints of the touched channels — safe exactly here,
  // where every producer has flushed and arrived at the gate and no
  // consumer drains until the kDrainEpoch tasks are pushed (the ordering
  // runs through the gate and task-queue mutexes).
  void ApplyChannelFaultsAtBoundary(std::uint64_t epoch_index,
                                    SimTime epoch_end);
  // Post-drain quiescent point: fires the injector's kills for this epoch.
  void ApplyScheduledKills(std::uint64_t epoch_index);
  // The kill itself: accounting, double-fault reclassification of other
  // windows, worker join + engine replace, failover re-route, and the new
  // rebuild window. `epoch_end` is 0 between runs.
  void KillShardAtBoundary(std::uint32_t shard, SimTime epoch_end);
  // Processes up to rebuild_batch items across all open windows; completed
  // windows return their shard to UP. Returns true if any item was
  // processed (the run loop schedules one extra boundary so the step's
  // stats land in the telemetry series).
  bool StepRebuilds(SimTime epoch_end);
  // Rebuilds the combined override ledger from every window's unprocessed
  // kReplica items and installs the matching transition (or pure) map.
  void ReinstallRouteOverrides();
  // Folds a dead engine's counters and traffic into retired_ — NOT the full
  // RetireShard fold: the Shard (its stats and histograms) survives the
  // kill, so folding those too would double-count them at merge time.
  void FoldEngineAggregates(const Shard& shard);
  // Abort-path cleanup (the Run unwind guard): drops open windows and
  // delayed batches, returns every shard to UP and restores the pure map.
  // Un-rebuilt views simply stay cold — best-effort, like the rest of the
  // abort path.
  void AbandonRebuilds();
  // Stamps the shared fault/rebuild sequence id, records the event, and —
  // with telemetry on — mirrors it onto the dispatcher track.
  void AppendFaultEvent(FaultEvent e, std::uint64_t start_ns);
  void AppendRebuildEvent(RebuildEvent e, std::uint64_t start_ns);

  // Resolves the epoch's completion-join records into e2e_total_ and
  // recomputes e2e_epoch_delta_ (the samples that completed their join this
  // boundary). Dispatcher thread, quiescent point only — runs right after
  // the boundary drain, *before* telemetry sampling and the scaler, so both
  // observe the fresh delta. Origins always arrive at or before their
  // slices (a request's origin is recorded when it executes, before its
  // remote ops ship), so single-pass resolution needs no reordering; joins
  // whose slices sit in a delayed batch stay pending across boundaries and
  // resolve when the batch matures (the run loop keeps driving boundaries
  // until delayed_ drains, so a completed run has no pending joins).
  void JoinCompletionsAtBoundary();
  // Online staleness tuning (RuntimeConfig::tune_staleness, kEager only):
  // compares the epoch's remote-slice freshness p99 against
  // staleness_target_p99_micros and halves/doubles staleness_ns_live_
  // toward it (hold inside the dead zone [target/2, target]). Dispatcher
  // thread, quiescent point only.
  void TuneStalenessAtBoundary();

  // Feeds the auto-scaler one epoch's per-shard deltas and forwards its
  // decision to Reconfigure; when telemetry is on, also emits the decision
  // (with its trigger inputs) as a kScalerDecision trace event. Dispatcher
  // thread, quiescent point only.
  void ObserveEpochForScaler(std::uint64_t epoch_index);

  // ----- Telemetry plumbing (all dispatcher thread, quiescent points;
  // no-ops when telemetry_ is null) -----

  // Stamps the lifetime-monotone sequence id, records the event, and — with
  // telemetry on — mirrors it onto the dispatcher track as a trace span of
  // `type` starting at `start_ns`.
  void AppendReconfigEvent(ReconfigEvent e, TraceEventType type,
                           std::uint64_t start_ns);
  // Emits the kCompleteMigration instant; called by CompleteMigration's
  // callers *after* their step/begin event so the dispatcher track stays
  // chronological (the step span's ts predates the completion stamp).
  void EmitMigrationComplete(std::uint32_t from_shards,
                             std::uint32_t to_shards);
  // Points every live shard at its telemetry track (tracks are created on
  // first use and keyed by shard id, so respawned ids reconnect to their
  // history).
  void WireTelemetryTracks();
  // Rebases the per-shard sampling baselines on the current cumulative
  // stats — at Run start and after any mid-run resize, mirroring
  // scaler_baseline_'s lifecycle.
  void ResetTelemetryBaselines();
  // Samples one boundary into the metric series: per-shard ShardStats and
  // engine-counter deltas plus the tracks' epoch-phase accumulators (which
  // it resets). Must run *before* the boundary's migration step or
  // reconfiguration so a retiring shard's final epoch is captured.
  void SampleTelemetryEpoch(std::uint64_t epoch_index, SimTime epoch_end);

  void WorkerLoop(Shard& shard);
  void ExecuteRequest(Shard& shard, const SeqRequest& sr);
  // Ships every non-empty outbox batch that fits its channel; returns false
  // when at least one channel was full (the batch stays and keeps
  // coalescing — only possible under kEager, where channels fill between
  // boundary drains).
  bool TryFlushOutboxes(Shard& shard);
  // Epoch-boundary flush: must fully succeed before the shard arrives at
  // the gate. When a channel is full (kEager), serves the shard's own
  // inbound work to guarantee global progress, then retries.
  void FlushForEpoch(Shard& shard);
  // Pops and applies every pending inbound batch, sorted by global seq.
  void DrainEpoch(Shard& shard);
  // kEager: serves inbound batches whose oldest op exceeds the staleness
  // bound (or everything, when ignore_staleness is set by FlushForEpoch).
  void EagerPoll(Shard& shard, bool ignore_staleness);
  // Applies a set of received batches in global sequence order; returns the
  // ops served (telemetry's drain-event payload).
  std::size_t ServeBatches(Shard& shard);
  void RunTicks(Shard& shard, std::span<const SimTime> ticks);

  RuntimeResult MergeResults(double wall_seconds) const;

  const graph::SocialGraph* graph_;
  net::Topology topo_;
  // Kept so reconfiguration can build fresh shard engines mid-run.
  place::PlacementResult initial_;
  core::EngineConfig engine_config_;
  RuntimeConfig config_;
  ShardMap map_;
  SimTime epoch_ = 0;  // validated divisor of the engine slot
  bool replicate_writes_ = false;
  const persist::PersistentStore* persist_ = nullptr;
  std::span<const wl::FlashEvent> flash_;  // valid during Run only
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Gate gate_;

  // True until the first worker spawn or any reconfiguration or kill
  // changes engine state — the window in which a placement engine rebuild
  // is guaranteed to reproduce the constructor-built engine exactly.
  bool engines_pristine_ = true;

  // Reconfiguration request hand-off (any thread -> dispatcher) and the
  // retained accumulators of retired shards (dispatcher only, read by
  // MergeResults).
  std::mutex reconfig_mutex_;
  std::uint32_t pending_shards_ = 0;  // 0 = no request pending
  bool running_ = false;              // a Run is in progress
  EpochHook epoch_hook_;
  std::vector<ReconfigEvent> reconfig_events_;
  ShardAggregates retired_;

  // Incremental-migration window (dispatcher only; empty when no window is
  // open). While engaged, map_ is a transition map and pending Reconfigure
  // requests stay parked.
  std::optional<MigrationWindow> migration_;

  // Fault-tolerance state (all dispatcher only, quiescent points).
  // replicator_ is null when replication is disabled; injector_ is the
  // user-installed plan (not owned). While rebuilds_ is non-empty, map_ may
  // be a transition map (failover overrides), pending Reconfigure requests
  // stay parked, the scaler skips observations, and the run loop keeps
  // driving boundaries until the windows drain.
  HealthMap health_;
  std::unique_ptr<Replicator> replicator_;
  const FaultInjector* injector_ = nullptr;
  std::vector<RebuildWindow> rebuilds_;
  std::vector<DelayedBatch> delayed_;
  std::vector<FaultEvent> fault_events_;
  std::vector<RebuildEvent> rebuild_events_;
  std::uint64_t next_fault_sequence_ = 0;
  SimTime boundary_epoch_end_ = 0;  // set per boundary, for KillShard's events

  // Closed-loop policy (dispatcher only; null unless scaler.enabled). The
  // baseline holds each live shard's cumulative stats at the previous
  // boundary; it is rebased (and the observation skipped) whenever the
  // shard set changed size since.
  std::unique_ptr<AutoScaler> scaler_;
  std::vector<ShardStats> scaler_baseline_;

  // End-to-end completion join (dispatcher only, quiescent points).
  // e2e_total_ is the lifetime histogram MergeResults reports;
  // e2e_baseline_ snapshots it at the previous boundary so e2e_epoch_delta_
  // holds just the joins that completed this epoch — the SLO policy's and
  // telemetry's per-epoch evidence. synth_slices_ carries slice completions
  // the dispatcher synthesized for channel-fault-dropped read ops.
  std::unordered_map<std::uint64_t, PendingJoin> pending_joins_;
  std::vector<SliceDone> synth_slices_;
  common::LatencyHistogram e2e_total_;
  common::LatencyHistogram e2e_baseline_;
  common::LatencyHistogram e2e_epoch_delta_;

  // Online staleness tuning (dispatcher-written at quiescent points; read
  // by workers' eager polls — ordered through the task-queue mutexes like
  // map_, so no atomics). Initialized from config_.staleness_micros.
  std::uint64_t staleness_ns_live_ = 0;
  // Baseline for the tuner's per-epoch remote-freshness delta: snapshot of
  // the merged (live shards + retired_) remote latency histogram.
  common::LatencyHistogram tuner_remote_baseline_;

  // SLO control-plane counters: lifetime totals (RuntimeResult) and the
  // since-last-sample pending counts telemetry drains at each boundary.
  std::uint64_t slo_split_decisions_ = 0;
  std::uint64_t staleness_tunings_ = 0;
  std::uint64_t pending_slo_decisions_ = 0;
  std::uint64_t pending_staleness_tuned_ = 0;

  // Observability layer (null unless telemetry.enabled — every hot-path
  // site branches on the per-shard track pointer instead). The baselines
  // mirror scaler_baseline_ but are indexed by live-shard position and
  // additionally snapshot each engine's view_reads counter; both are
  // rebased by ResetTelemetryBaselines. next_reconfig_sequence_ stamps
  // ReconfigEvent::sequence; boundary_epoch_index_ is the index of the
  // boundary currently being processed, so dispatcher-side reconfig events
  // carry the right epoch even though they fire after sampling.
  std::unique_ptr<Telemetry> telemetry_;
  std::vector<ShardStats> telem_stats_baseline_;
  std::vector<std::uint64_t> telem_view_reads_baseline_;
  std::uint64_t next_reconfig_sequence_ = 0;
  std::uint64_t boundary_epoch_index_ = 0;
};

}  // namespace dynasore::rt
