// DynaSoRe benchmark binary. One process runs one workload against the
// library built from src/ and prints one JSON object (last stdout line)
// with the metrics, the correctness checks and the sample counts; run.py
// builds this binary, calls it, and reshapes that object for the caller.
//
//   dsbench --workload replay-paper|serve-light|serve-peak --seed N
//           --seconds S --trace 0|1 [--out DIR]
//   dsbench --digest --workload W --seed N   (hash of the generated inputs)
//
// Every workload: facebook preset at scale 0.004 (~12k users), the paper's
// 50% extra memory, the adaptive engine, a 2-shard ShardedRuntime with the
// default RuntimeConfig (epoch drain). The seed drives the graph, the §4.2
// log and the initial placement; the program only sees generated inputs.
//
//   replay-paper  ShardedRuntime::Run over the 2-day §4.2 log (4 reads per
//                 write), repeated until --seconds is spent (at least twice,
//                 so the deterministic counters can be compared).
//   serve-light   one loopback connection to net::Server, open loop at a
//                 fixed 5,000 ops/s, ops in log order; latency is timed
//                 from each op's intended send time.
//   serve-peak    the same server, closed loop with a fixed pipeline window,
//                 over a 1:1 read/write log.
//
// Bounded end-to-end metrics, the same on every workload: setup_s (process
// CPU seconds to build graph, log, placement and runtime, plus server
// start; median of kMinSetups setups), cpu_us_per_op (CPU time the system
// under test spends per executed request: the process minus the load
// generator's thread), top_traffic_per_req, mem_fill and peak_rss_mb. They
// are CPU times and counts because on a shared host the wall-clock numbers
// follow the host's steal time: the client's throughput and latency are
// still measured and reported (client.*, with bench.steal_s), unbounded.
//
// --trace 1 runs the workload once untraced and once with spans around the
// calls into each layer's public API (setup phases, the wire codec, Server
// start/stop, ShardedRuntime::Run per batch and per single op, and a
// sequential core::Engine fed the same op stream), derives the per-layer
// metrics from the spans and writes them as Chrome-trace JSON under --out.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/presets.h"
#include "netproto/wire.h"
#include "runtime/sharded_runtime.h"
#include "server/server.h"
#include "sim/experiment.h"
#include "spans.h"
#include "stats.h"
#include "workload/synthetic.h"

using namespace dynasore;
using perfbench::NowNs;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

// ----- Fixed workload parameters -----

constexpr double kScale = 0.004;
constexpr double kDays = 2.0;
constexpr double kExtraMemoryPct = 50.0;
constexpr std::uint32_t kShards = 2;
constexpr double kLightRate = 5000.0;      // ops/s offered by serve-light
constexpr std::uint32_t kPeakWindow = 1024;  // below conn_inflight_budget
constexpr double kWarmupSeconds = 0.5;     // sent and checked, not measured
constexpr double kDrainTimeoutSeconds = 10.0;
// A run sets up at least this many times so setup_s is a median.
constexpr int kMinSetups = 15;
// Traced-run budgets for the offline per-layer passes.
constexpr double kBatchReplaySeconds = 2.0;
constexpr int kFloorRuns = 300;
constexpr std::uint64_t kCoreServeOps = 40000;

enum class Mode { kReplay, kOpenLoop, kClosedLoop };

struct Workload {
  const char* name;
  Mode mode;
  double reads_per_write;
};

constexpr Workload kWorkloads[] = {
    {"replay-paper", Mode::kReplay, 4.0},
    {"serve-light", Mode::kOpenLoop, 4.0},
    {"serve-peak", Mode::kClosedLoop, 1.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool digest = false;
  std::string out_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--digest") {
      a.digest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (key == "--out") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) a.workload = &w;
  }
  if (a.workload == nullptr) {
    throw std::invalid_argument("unknown --workload '" + workload + "'");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ----- Output -----

std::string Num(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";  // parses as inf
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // Descriptive numbers that are not metrics (sample counts, sizes).
  void Info(const std::string& name, double value) {
    info_.push_back({name, value, ""});
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                          detail.c_str());
  }
  void Attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const {
    for (const CheckRow& c : checks_) {
      if (!c.ok) return false;
    }
    return !checks_.empty();
  }

  std::string Json() const {
    std::string s = "{\"correct\":";
    s += correct() ? "true" : "false";
    s += ",\"attempted\":" + std::to_string(attempted_);
    s += ",\"failed\":" + std::to_string(failed_);
    s += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      s += (i ? "," : "") + Quote(metrics_[i].name) + ":{\"value\":" +
           Num(metrics_[i].value) + ",\"unit\":" + Quote(metrics_[i].unit) +
           "}";
    }
    s += "},\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      s += (i ? "," : "") + Quote(info_[i].name) + ":" + Num(info_[i].value);
    }
    s += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      s += (i ? "," : "") + std::string("{\"name\":") +
           Quote(checks_[i].name) +
           ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
           ",\"detail\":" + Quote(checks_[i].detail) + "}";
    }
    return s + "]}";
  }

 private:
  struct MetricRow {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricRow> metrics_;
  std::vector<MetricRow> info_;
  std::vector<CheckRow> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string Eq(std::uint64_t a, std::uint64_t b) {
  return std::to_string(a) + (a == b ? " == " : " != ") + std::to_string(b);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// CPU clocks. The process clock covers every thread of the process,
// including runtime workers that have already been joined. On a guest
// kernel that accounts steal, time a vCPU spent descheduled by the host is
// charged to neither clock, which is why the bounded metrics are CPU times:
// on a shared host the wall-clock ones move with the neighbours' load.
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

// Host steal time summed over all vCPUs so far (/proc/stat), or 0 when the
// kernel does not report it.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0;
}

// ----- Setup -----

// Process CPU seconds of each setup phase (nothing else of the benchmark
// runs while it sets up), plus the wall time of all of them.
struct SetupTimes {
  double graph_s = 0;
  double log_s = 0;
  double placement_s = 0;
  double runtime_s = 0;
  double server_s = 0;
  double wall_s = 0;
  double total() const {
    return graph_s + log_s + placement_s + runtime_s + server_s;
  }
};

struct Inputs {
  graph::SocialGraph graph;
  wl::RequestLog log;
  net::Topology topo;
  core::EngineConfig engine;
  place::PlacementResult placement;
};

// Times one setup phase: its CPU time into times->*phase, its wall time
// into times->wall_s and, when tracing, a span.
template <typename Fn>
auto Timed(Tracer* tracer, const char* span, SetupTimes* times,
           double SetupTimes::*phase, Fn&& fn) {
  Scope scope(tracer, span);
  const std::int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  auto out = fn();
  times->*phase = ProcessCpuSeconds() - cpu0;
  times->wall_s += Seconds(NowNs() - t0);
  return out;
}

std::unique_ptr<Inputs> MakeInputs(const Args& args, SetupTimes* times,
                                   Tracer* tracer) {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kDynaSoRe;
  config.extra_memory_pct = kExtraMemoryPct;
  config.seed = args.seed;

  graph::SocialGraph g = Timed(tracer, "setup.graph", times, &SetupTimes::graph_s, [&] {
    return graph::GenerateDataset(graph::Dataset::kFacebook, kScale,
                                  args.seed);
  });
  wl::RequestLog log = Timed(tracer, "setup.log", times, &SetupTimes::log_s, [&] {
    wl::SyntheticLogConfig lc;
    lc.days = kDays;
    lc.reads_per_write = args.workload->reads_per_write;
    lc.seed = args.seed;
    return wl::GenerateSyntheticLog(g, lc);
  });
  net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), topo.num_servers(), config.extra_memory_pct);
  engine.adaptive = true;
  place::PlacementResult placement =
      Timed(tracer, "setup.placement", times, &SetupTimes::placement_s, [&] {
        return sim::MakeInitialPlacement(g, topo,
                                         engine.store.capacity_views, config);
      });
  return std::make_unique<Inputs>(Inputs{std::move(g), std::move(log),
                                         std::move(topo), engine,
                                         std::move(placement)});
}

std::unique_ptr<rt::ShardedRuntime> MakeRuntime(const Inputs& in,
                                                SetupTimes* times,
                                                Tracer* tracer) {
  return Timed(tracer, "setup.runtime", times, &SetupTimes::runtime_s, [&] {
    rt::RuntimeConfig config;
    config.num_shards = kShards;
    return std::make_unique<rt::ShardedRuntime>(in.graph, in.topo,
                                                in.placement, in.engine,
                                                config);
  });
}

// ----- Cluster-level derived numbers -----

struct Cluster {
  double owned_replicas = 0;  // sum over views of the owner's replica count
  double capacity = 0;        // cluster view capacity
  double views = 0;
};

Cluster MeasureCluster(rt::ShardedRuntime& runtime) {
  Cluster c;
  const std::uint32_t views = runtime.shard_engine(0).registry().num_views();
  for (ViewId v = 0; v < views; ++v) {
    c.owned_replicas += runtime.shard_engine(runtime.shard_map().shard_of(v))
                            .ReplicaCount(v);
  }
  c.capacity = static_cast<double>(runtime.shard_engine(0).TotalCapacity());
  c.views = views;
  return c;
}

double TopPerReq(const rt::RuntimeResult& r) {
  const auto top = static_cast<std::size_t>(net::Tier::kTop);
  return static_cast<double>(r.traffic_app[top] + r.traffic_sys[top]) /
         static_cast<double>(std::max<std::uint64_t>(r.totals.requests, 1));
}

// Everything replay-paper must reproduce exactly for one seed.
std::vector<std::uint64_t> Fingerprint(const rt::RuntimeResult& r,
                                       const Cluster& c) {
  std::vector<std::uint64_t> f(r.traffic_app.begin(), r.traffic_app.end());
  f.insert(f.end(), r.traffic_sys.begin(), r.traffic_sys.end());
  const core::EngineCounters& k = r.counters;
  for (const std::uint64_t v :
       {k.reads, k.writes, k.view_reads, k.replica_updates,
        k.replicas_created, k.replicas_dropped, k.evictions_watermark,
        k.drops_negative, k.migrations, k.read_proxy_migrations,
        k.write_proxy_migrations, r.totals.remote_read_slices,
        r.totals.remote_write_applies, r.totals.messages_sent,
        r.totals.epochs}) {
    f.push_back(v);
  }
  f.push_back(static_cast<std::uint64_t>(c.owned_replicas));
  return f;
}

// The runtime's conservation invariants, checked on every result.
void CheckRuntime(Report& rep, const std::string& tag,
                  const rt::RuntimeResult& r, std::uint64_t expected) {
  rep.Check(tag + ".requests", r.totals.requests == expected,
            "totals.requests " + Eq(r.totals.requests, expected));
  rep.Check(tag + ".e2e_count", r.e2e_latency.count() == r.totals.requests,
            "e2e_latency.count " +
                Eq(r.e2e_latency.count(), r.totals.requests));
}


// ----- Per-layer metrics -----

// Every per-layer metric, emitted on every workload in one fixed order. A
// layer the workload does not exercise (the wire and the server on
// replay-paper, the hourly Tick on the serve workloads) reads 0.
struct Layers {
  SetupTimes setup;  // per-phase medians over the run's setups
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_op = 0;
  double ops_per_batch = 0;
  double busy_ratio = 0;
  double outside_run_p50_us = 0;
  double run_p50_us = 0;
  double run_p99_us = 0;
  double run_floor_us = 0;
  double run_s = 0;
  double imbalance = 0;
  double queue_backlog = 0;
  double epochs = 0;
  double remote_slices_per_read = 0;
  double write_applies_per_write = 0;
  double msgs_per_req = 0;
  double core_read_us = 0;
  double core_read_p99_us = 0;
  double targets_per_read = 0;
  double core_write_us = 0;
  double tick_ms = 0;
  double ticks = 0;
  double core_total_s = 0;
  double replicas_created = 0;
  double replicas_dropped = 0;
  double migrations = 0;
  double evictions = 0;
  double replica_updates_per_write = 0;
  double top_app_per_req = 0;
  double top_sys_per_req = 0;
  double inter_per_req = 0;
  double rack_per_req = 0;
  double owned_replicas_per_view = 0;
  double gen_late_p99_us = 0;
  double trace_overhead = 0;
  // The client's wall-clock view, from an untraced run. Not bounded: on a
  // shared 4-vCPU host these move with the host's steal time (steal_s),
  // far beyond any usable bound, while the CPU-time metrics hold.
  double client_ops_s = 0;
  double client_read_p50_us = 0;
  double client_read_p99_us = 0;
  double client_write_p50_us = 0;
  double client_write_p99_us = 0;
  double steal_s = 0;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void FillFromResult(Layers& l, const rt::RuntimeResult& r, const Cluster& c) {
  const rt::ShardStats& t = r.totals;
  const double req = static_cast<double>(t.requests);
  double max_shard = 0;
  for (const rt::ShardStats& s : r.shard_stats) {
    max_shard = std::max(max_shard, static_cast<double>(s.requests));
  }
  l.imbalance = Ratio(max_shard, req / static_cast<double>(
                                           std::max<std::size_t>(
                                               r.shard_stats.size(), 1)));
  l.queue_backlog = Ratio(static_cast<double>(t.queue_backlog_sum),
                          static_cast<double>(t.task_batches));
  l.epochs = static_cast<double>(t.epochs);
  l.remote_slices_per_read = Ratio(static_cast<double>(t.remote_read_slices),
                                   static_cast<double>(t.reads));
  l.write_applies_per_write = Ratio(
      static_cast<double>(t.remote_write_applies), static_cast<double>(t.writes));
  l.msgs_per_req = Ratio(static_cast<double>(t.messages_sent), req);
  const core::EngineCounters& k = r.counters;
  const double per_1k = Ratio(1000.0, req);
  l.replicas_created = static_cast<double>(k.replicas_created) * per_1k;
  l.replicas_dropped = static_cast<double>(k.replicas_dropped) * per_1k;
  l.migrations = static_cast<double>(k.migrations) * per_1k;
  l.evictions = static_cast<double>(k.evictions_watermark) * per_1k;
  l.replica_updates_per_write = Ratio(static_cast<double>(k.replica_updates),
                                      static_cast<double>(k.writes));
  const auto tier = [&](net::Tier tr, bool app, bool sys) {
    const auto i = static_cast<std::size_t>(tr);
    return Ratio(static_cast<double>((app ? r.traffic_app[i] : 0) +
                                     (sys ? r.traffic_sys[i] : 0)),
                 req);
  };
  l.top_app_per_req = tier(net::Tier::kTop, true, false);
  l.top_sys_per_req = tier(net::Tier::kTop, false, true);
  l.inter_per_req = tier(net::Tier::kIntermediate, true, true);
  l.rack_per_req = tier(net::Tier::kRack, true, true);
  l.owned_replicas_per_view = Ratio(c.owned_replicas, c.views);
}

void EmitLayers(Report& rep, const Layers& l) {
  rep.Metric("setup.graph_s", l.setup.graph_s, "s");
  rep.Metric("setup.log_s", l.setup.log_s, "s");
  rep.Metric("setup.placement_s", l.setup.placement_s, "s");
  rep.Metric("setup.runtime_s", l.setup.runtime_s, "s");
  rep.Metric("setup.server_s", l.setup.server_s, "s");
  rep.Metric("netproto.encode_ns", l.encode_ns, "ns");
  rep.Metric("netproto.decode_ns", l.decode_ns, "ns");
  rep.Metric("netproto.bytes_per_op", l.bytes_per_op, "B/op");
  rep.Metric("server.ops_per_batch", l.ops_per_batch, "ops/batch");
  rep.Metric("server.busy_ratio", l.busy_ratio, "ratio");
  rep.Metric("server.outside_run_p50_us", l.outside_run_p50_us, "us");
  rep.Metric("runtime.run_p50_us", l.run_p50_us, "us");
  rep.Metric("runtime.run_p99_us", l.run_p99_us, "us");
  rep.Metric("runtime.run_floor_us", l.run_floor_us, "us");
  rep.Metric("runtime.run_s", l.run_s, "s");
  rep.Metric("runtime.imbalance", l.imbalance, "ratio");
  rep.Metric("runtime.queue_backlog", l.queue_backlog, "batches");
  rep.Metric("runtime.epochs", l.epochs, "count");
  rep.Metric("runtime.remote_slices_per_read", l.remote_slices_per_read,
             "slices/read");
  rep.Metric("runtime.write_applies_per_write", l.write_applies_per_write,
             "applies/write");
  rep.Metric("runtime.msgs_per_req", l.msgs_per_req, "msgs/req");
  rep.Metric("core.read_us", l.core_read_us, "us");
  rep.Metric("core.read_p99_us", l.core_read_p99_us, "us");
  rep.Metric("core.targets_per_read", l.targets_per_read, "views/read");
  rep.Metric("core.write_us", l.core_write_us, "us");
  rep.Metric("core.tick_ms", l.tick_ms, "ms");
  rep.Metric("core.ticks", l.ticks, "count");
  rep.Metric("core.total_s", l.core_total_s, "s");
  rep.Metric("core.replicas_created", l.replicas_created, "per_1k_req");
  rep.Metric("core.replicas_dropped", l.replicas_dropped, "per_1k_req");
  rep.Metric("core.migrations", l.migrations, "per_1k_req");
  rep.Metric("core.evictions", l.evictions, "per_1k_req");
  rep.Metric("core.replica_updates_per_write", l.replica_updates_per_write,
             "updates/write");
  rep.Metric("net.top_app_per_req", l.top_app_per_req, "msgs/req");
  rep.Metric("net.top_sys_per_req", l.top_sys_per_req, "msgs/req");
  rep.Metric("net.inter_per_req", l.inter_per_req, "msgs/req");
  rep.Metric("net.rack_per_req", l.rack_per_req, "msgs/req");
  rep.Metric("store.owned_replicas_per_view", l.owned_replicas_per_view,
             "replicas/view");
  rep.Metric("bench.gen_late_p99_us", l.gen_late_p99_us, "us");
  rep.Metric("bench.trace_overhead", l.trace_overhead, "ratio");
  rep.Metric("client.ops_s", l.client_ops_s, "1/s");
  rep.Metric("client.read_p50_us", l.client_read_p50_us, "us");
  rep.Metric("client.read_p99_us", l.client_read_p99_us, "us");
  rep.Metric("client.write_p50_us", l.client_write_p50_us, "us");
  rep.Metric("client.write_p99_us", l.client_write_p99_us, "us");
  rep.Metric("bench.steal_s", l.steal_s, "s");
}

// The bounded end-to-end metrics, the same five on every workload.
void EmitEndToEnd(Report& rep, double setup_s, double cpu_us_per_op,
                  const rt::RuntimeResult& lifetime, const Cluster& cluster) {
  rep.Metric("setup_s", setup_s, "s");
  rep.Metric("cpu_us_per_op", cpu_us_per_op, "us");
  rep.Metric("top_traffic_per_req", TopPerReq(lifetime), "msgs/req");
  rep.Metric("mem_fill", cluster.owned_replicas / cluster.capacity, "ratio");
  rep.Metric("peak_rss_mb", PeakRssMb(), "MB");
}

// An untraced run also records the client's view, for the artefact.
void InfoClient(Report& rep, const Layers& l) {
  rep.Info("client.ops_s", l.client_ops_s);
  rep.Info("client.read_p50_us", l.client_read_p50_us);
  rep.Info("client.read_p99_us", l.client_read_p99_us);
  rep.Info("client.write_p50_us", l.client_write_p50_us);
  rep.Info("client.write_p99_us", l.client_write_p99_us);
  rep.Info("bench.steal_s", l.steal_s);
}

// Median of each setup phase and of the per-setup totals.
SetupTimes MedianSetup(const std::vector<SetupTimes>& all, double* total_s) {
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : all) v.push_back(s.*field);
    return perfbench::Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& s : all) totals.push_back(s.total());
  *total_s = perfbench::Median(totals);
  SetupTimes m;
  m.graph_s = med(&SetupTimes::graph_s);
  m.log_s = med(&SetupTimes::log_s);
  m.placement_s = med(&SetupTimes::placement_s);
  m.runtime_s = med(&SetupTimes::runtime_s);
  m.server_s = med(&SetupTimes::server_s);
  m.wall_s = med(&SetupTimes::wall_s);
  return m;
}

// Sets up (and for the serve workloads starts a server) without running
// anything, until `setups` holds kMinSetups samples.
void FillSetups(const Args& args, std::vector<SetupTimes>* setups) {
  while (setups->size() < kMinSetups) {
    SetupTimes st;
    const auto in = MakeInputs(args, &st, nullptr);
    const auto runtime = MakeRuntime(*in, &st, nullptr);
    if (args.workload->mode != Mode::kReplay) {
      net::Server server(*runtime, net::ServerConfig{});
      Timed(nullptr, "", &st, &SetupTimes::server_s, [&] {
        server.Start();
        return 0;
      });
    }
    setups->push_back(st);
  }
}

// The sequential engine fed the workload's op stream with the times the
// program sees (log times and hourly ticks for the replay, time 0 and no
// tick for serving), one span per Engine call.
void TimeSequentialCore(const Inputs& in, const std::vector<Request>& ops,
                        bool ticks, Tracer* tracer, Layers* l) {
  core::Engine engine(in.topo, in.placement, in.engine);
  const SimTime slot = engine.config().slot_seconds;
  SimTime next_tick = slot;
  double targets = 0;
  for (const Request& r : ops) {
    while (ticks && r.time >= next_tick) {
      Scope s(tracer, "core.Tick");
      engine.Tick(next_tick);
      next_tick += slot;
    }
    if (r.op == OpType::kWrite) {
      Scope s(tracer, "core.ExecuteWrite");
      engine.ExecuteWrite(r.user, r.time);
    } else {
      const auto followees = in.graph.Followees(r.user);
      targets += static_cast<double>(followees.size());
      Scope s(tracer, "core.ExecuteRead");
      engine.ExecuteRead(r.user, followees, r.time);
    }
  }
  while (ticks && next_tick <= in.log.duration) {
    Scope s(tracer, "core.Tick");
    engine.Tick(next_tick);
    next_tick += slot;
  }
  perfbench::LatencySamples reads;
  for (const double ns : tracer->Durations("core.ExecuteRead")) {
    reads.Add(ns / 1e3);
  }
  const std::vector<double> writes = tracer->Durations("core.ExecuteWrite");
  const std::vector<double> tick_ns = tracer->Durations("core.Tick");
  const double read_total = tracer->TotalNs("core.ExecuteRead");
  const double write_total = tracer->TotalNs("core.ExecuteWrite");
  const double tick_total = tracer->TotalNs("core.Tick");
  l->core_read_us = Ratio(read_total / 1e3, reads.size());
  l->core_read_p99_us = reads.size() ? reads.At(0.99).value : 0;
  l->targets_per_read = Ratio(targets, reads.size());
  l->core_write_us = Ratio(write_total / 1e3, writes.size());
  l->tick_ms = Ratio(tick_total / 1e6, tick_ns.size());
  l->ticks = static_cast<double>(tick_ns.size());
  l->core_total_s = (read_total + write_total + tick_total) / 1e9;
}

// `count` ops of the log in order, cycling, each with time 0 — the stream
// the serve workloads send.
std::vector<Request> ServeStream(const wl::RequestLog& log,
                                 std::uint64_t begin, std::uint64_t count) {
  std::vector<Request> out;
  out.reserve(count);
  for (std::uint64_t i = begin; i < begin + count; ++i) {
    Request r = log.requests[i % log.requests.size()];
    r.time = 0;
    out.push_back(r);
  }
  return out;
}

wl::RequestLog BatchLog(std::vector<Request> ops) {
  wl::RequestLog log;
  for (const Request& r : ops) {
    if (r.op == OpType::kRead) {
      ++log.num_reads;
    } else {
      ++log.num_writes;
    }
  }
  log.requests = std::move(ops);
  return log;
}

// ShardedRuntime::Run on a fresh runtime, over the same op stream cut into
// batches of the size the server formed, then on single ops.
void TimeRuntimeBatches(const Inputs& in, std::uint64_t ops_sent,
                        double ops_per_batch, Tracer* tracer, Layers* l) {
  SetupTimes unused;
  const auto runtime = MakeRuntime(in, &unused, nullptr);
  const std::uint64_t batch =
      std::max<std::uint64_t>(1, std::llround(ops_per_batch));
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(kBatchReplaySeconds * 1e9);
  std::uint64_t next = 0;
  while (next < ops_sent && NowNs() < deadline) {
    const wl::RequestLog b =
        BatchLog(ServeStream(in.log, next, std::min(batch, ops_sent - next)));
    next += b.requests.size();
    Scope s(tracer, "runtime.Run.batch");
    runtime->Run(b);
  }
  for (int i = 0; i < kFloorRuns; ++i) {
    const wl::RequestLog one = BatchLog(ServeStream(in.log, next++, 1));
    Scope s(tracer, "runtime.Run.1op");
    runtime->Run(one);
  }
  perfbench::LatencySamples runs;
  for (const double ns : tracer->Durations("runtime.Run.batch")) {
    runs.Add(ns / 1e3);
  }
  std::vector<double> floor_us = tracer->Durations("runtime.Run.1op");
  for (double& v : floor_us) v /= 1e3;
  l->run_p50_us = runs.At(0.50).value;
  l->run_p99_us = runs.At(0.99).value;
  l->run_floor_us = perfbench::Median(floor_us);
  l->run_s = tracer->TotalNs("runtime.Run.batch") / 1e9;
}

// ----- replay-paper -----

struct Replay {
  rt::RuntimeResult result;
  Cluster cluster;
  double wall_s = 0;
  double cpu_s = 0;
  double steal_s = 0;
};

Replay RunReplay(const Inputs& in, SetupTimes* times, Tracer* tracer) {
  const auto runtime = MakeRuntime(in, times, tracer);
  Replay r;
  {
    Scope s(tracer, "runtime.Run");
    const std::int64_t t0 = NowNs();
    const double cpu0 = ProcessCpuSeconds(), steal0 = StealSeconds();
    r.result = runtime->Run(in.log);
    r.wall_s = Seconds(NowNs() - t0);
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.steal_s = StealSeconds() - steal0;
  }
  r.cluster = MeasureCluster(*runtime);
  return r;
}

void ReplayPaper(const Args& args, Report& rep) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<SetupTimes> setups;
  std::vector<Replay> replays;
  std::unique_ptr<Tracer> tracer;
  Layers l;
  // Untraced replays until --seconds is spent (at least two). A traced run
  // makes one untraced and one traced replay instead.
  while (replays.size() < 2 || (!args.trace && NowNs() < deadline)) {
    const bool traced = args.trace && replays.size() == 1;
    if (traced) tracer = std::make_unique<Tracer>();
    SetupTimes st;
    const auto in = MakeInputs(args, &st, tracer.get());
    replays.push_back(RunReplay(*in, &st, tracer.get()));
    setups.push_back(st);
    const Replay& r = replays.back();
    const std::string tag = "replay" + std::to_string(replays.size());
    CheckRuntime(rep, tag, r.result, in->log.requests.size());
    rep.Attempt(in->log.requests.size(),
                in->log.requests.size() -
                    std::min<std::uint64_t>(r.result.totals.requests,
                                            in->log.requests.size()));
    if (replays.size() > 1) {
      rep.Check(tag + ".deterministic",
                Fingerprint(r.result, r.cluster) ==
                    Fingerprint(replays[0].result, replays[0].cluster),
                "traffic, fill and engine counters equal replay 1");
    }
    if (traced) {
      FillFromResult(l, r.result, r.cluster);
      l.run_s = r.wall_s;
      l.trace_overhead = r.wall_s / replays[0].wall_s - 1.0;
      TimeSequentialCore(*in, in->log.requests, /*ticks=*/true, tracer.get(),
                         &l);
    }
  }
  FillSetups(args, &setups);
  double setup_s = 0;
  l.setup = MedianSetup(setups, &setup_s);

  // The client's view over the untraced replays. The runtime's completion
  // join does not split reads from writes, so one per-request distribution
  // (dispatch to last slice, mostly epoch-boundary wait) fills both names.
  std::vector<double> ops, r50, r99, cpu, steal;
  for (const Replay& r : replays) {
    if (args.trace && &r != &replays.front()) continue;
    const double req = static_cast<double>(r.result.totals.requests);
    ops.push_back(req / r.wall_s);
    r50.push_back(perfbench::HistogramPercentile(r.result.e2e_latency, 0.50));
    r99.push_back(perfbench::HistogramPercentile(r.result.e2e_latency, 0.99));
    cpu.push_back(r.cpu_s * 1e6 / req);
    steal.push_back(r.steal_s);
  }
  l.client_ops_s = perfbench::Median(ops);
  l.client_read_p50_us = l.client_write_p50_us = perfbench::Median(r50) / 1e3;
  l.client_read_p99_us = l.client_write_p99_us = perfbench::Median(r99) / 1e3;
  l.steal_s = perfbench::Median(steal);
  if (args.trace) {
    EmitLayers(rep, l);
    rep.Info("core.share_of_run", l.core_total_s / l.run_s);
    tracer->WriteChromeJson(args.out_dir + "/trace-replay-paper.json");
    return;
  }
  const Replay& last = replays.back();
  EmitEndToEnd(rep, setup_s, perfbench::Median(cpu), last.result,
               last.cluster);
  InfoClient(rep, l);
  rep.Info("replays", static_cast<double>(replays.size()));
  rep.Info("setups", static_cast<double>(setups.size()));
  rep.Info("setup_wall_s", l.setup.wall_s);
  rep.Info("latency_samples",
           static_cast<double>(last.result.e2e_latency.count()));
}

// ----- Loopback load generator (serve-light, serve-peak) -----

struct Load {
  perfbench::LatencySamples reads;   // us, measured ops only
  perfbench::LatencySamples writes;  // us, measured ops only
  perfbench::LatencySamples late;    // us the generator sent after due
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  // Acks received in the measured interval, and the time from its start to
  // the last of them (acks arrive a batch at a time, so the interval's
  // nominal length would quantize throughput to whole batches).
  std::uint64_t acked_in_window = 0;
  double window_s = 0;
  // Over the measured interval: CPU time of the system under test (the
  // process minus the generator's own thread) and host steal time.
  double system_cpu_s = 0;
  double steal_s = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t failed() const { return busy + errors + unanswered; }
};

class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket: " + Errno());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect: " + Errno());
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Socket() { close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

  static std::string Errno() { return std::strerror(errno); }

 private:
  int fd_;
};

struct OpRecord {
  std::int64_t intended_ns = 0;
  std::uint32_t seq = 0;  // 0: slot never used
  bool write = false;
  bool measured = false;  // intended inside the measured interval
  bool done = false;
};

// In-flight ops live in a fixed ring indexed by seq, so the generator's
// memory does not grow with the number of ops a run sends.
constexpr std::size_t kRingSlots = std::size_t{1} << 18;

// Drives one connection for warmup + `measure_s`. Open loop: op i is due
// at start + i / kLightRate whatever the server does, and its latency runs
// from that due time (a stall delays every later op's ack, and that wait
// is counted). Closed loop: keeps kPeakWindow ops outstanding; latency runs
// from the actual send. Between events the generator sleeps in ppoll until
// the next due time or the next readable byte, at nanosecond resolution.
Load DriveLoopback(std::uint16_t port, const wl::RequestLog& log, Mode mode,
                   double measure_s, Tracer* tracer) {
  Socket sock(port);
  Load out;
  std::vector<OpRecord> ring(kRingSlots);
  std::vector<std::uint8_t> tx, rx, payload;
  std::size_t tx_off = 0, rx_off = 0;
  std::uint64_t inflight = 0;

  const std::int64_t t0 = NowNs();
  const std::int64_t warm_end =
      t0 + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t send_end =
      warm_end + static_cast<std::int64_t>(measure_s * 1e9);
  const std::int64_t give_up =
      send_end + static_cast<std::int64_t>(kDrainTimeoutSeconds * 1e9);
  const std::int64_t period = static_cast<std::int64_t>(1e9 / kLightRate);

  const auto send_op = [&](std::int64_t intended) {
    const Request& r = log.requests[out.sent % log.requests.size()];
    const auto type = r.op == OpType::kWrite ? netp::MsgType::kWriteReq
                                             : netp::MsgType::kReadReq;
    const auto seq = static_cast<std::uint32_t>(out.sent + 1);
    OpRecord& slot = ring[out.sent % kRingSlots];
    if (slot.seq != 0 && !slot.done) {
      throw std::runtime_error("more than " + std::to_string(kRingSlots) +
                               " ops in flight");
    }
    {
      Scope s(tracer, "netproto.encode");
      payload.clear();
      netp::Encode(netp::OpPayload{0, r.user}, &payload);
      netp::EncodeFrame(type, seq, payload, &tx);
    }
    slot = {intended, seq, r.op == OpType::kWrite,
            intended >= warm_end && intended < send_end, false};
    ++out.sent;
    ++inflight;
  };
  const auto fail_op = [&](OpRecord& op) {
    op.done = true;
    --inflight;
    if (!op.measured) return;
    (op.write ? out.writes : out.reads).AddFailed();
  };

  bool in_window = false, window_done = false;
  double system_cpu0 = 0, steal0 = 0;
  const auto system_cpu = [] {
    return ProcessCpuSeconds() - ThreadCpuSeconds();
  };
  for (;;) {
    const std::int64_t now = NowNs();
    const bool sending = now < send_end;
    if (!in_window && !window_done && now >= warm_end) {
      in_window = true;
      system_cpu0 = system_cpu();
      steal0 = StealSeconds();
    }
    if (in_window && !sending) {
      in_window = false;
      window_done = true;
      out.system_cpu_s = system_cpu() - system_cpu0;
      out.steal_s = StealSeconds() - steal0;
    }
    if (mode == Mode::kOpenLoop) {
      while (sending) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(out.sent) * period;
        if (due > now) break;
        if (due >= warm_end) out.late.Add(static_cast<double>(now - due) / 1e3);
        send_op(due);
      }
    } else {
      while (sending && inflight < kPeakWindow) send_op(now);
    }

    while (tx_off < tx.size()) {
      const ssize_t n =
          send(sock.fd(), tx.data() + tx_off, tx.size() - tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        tx_off += static_cast<std::size_t>(n);
        out.tx_bytes += static_cast<std::uint64_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        throw std::runtime_error("send: " + Socket::Errno());
      }
    }
    tx.erase(tx.begin(), tx.begin() + static_cast<std::ptrdiff_t>(tx_off));
    tx_off = 0;

    for (;;) {
      std::uint8_t buf[65536];
      const ssize_t n = recv(sock.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        rx.insert(rx.end(), buf, buf + n);
        out.rx_bytes += static_cast<std::uint64_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        throw std::runtime_error(n == 0 ? "server closed the connection"
                                        : "recv: " + Socket::Errno());
      }
    }
    const std::int64_t recv_ns = NowNs();
    for (;;) {
      const std::int64_t d0 = tracer ? NowNs() : 0;
      const netp::DecodeResult res = netp::DecodeFrame(
          std::span<const std::uint8_t>(rx.data() + rx_off, rx.size() - rx_off));
      if (res.status == netp::DecodeStatus::kNeedMore) break;
      if (res.status != netp::DecodeStatus::kOk) {
        throw std::runtime_error(std::string("bad frame from server: ") +
                                 netp::DecodeStatusName(res.status));
      }
      rx_off += res.consumed;
      const netp::Frame& f = res.frame;
      const bool op_ack = f.header.type == netp::MsgType::kOpResp &&
                          netp::DecodeOpResp(f.payload).has_value();
      if (tracer) tracer->Record("netproto.decode", d0, NowNs() - d0);
      OpRecord& op = ring[(f.header.seq - 1) % kRingSlots];
      if (f.header.seq == 0 || op.seq != f.header.seq || op.done) {
        ++out.errors;  // an answer to nothing this side has in flight
        continue;
      }
      if (op_ack) {
        op.done = true;
        --inflight;
        ++out.ok;
        if (recv_ns >= warm_end && recv_ns < send_end) {
          ++out.acked_in_window;
          out.window_s = Seconds(recv_ns - warm_end);
        }
        if (op.measured) {
          (op.write ? out.writes : out.reads)
              .Add(static_cast<double>(recv_ns - op.intended_ns) / 1e3);
        }
      } else if (f.header.type == netp::MsgType::kBusyResp) {
        ++out.busy;
        fail_op(op);
      } else {
        ++out.errors;
        fail_op(op);
      }
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(rx_off));
    rx_off = 0;

    if (!sending && inflight == 0) break;
    if (now >= give_up) break;

    std::int64_t wait_ns = 50'000'000;
    if (sending && mode == Mode::kOpenLoop) {
      wait_ns = t0 + static_cast<std::int64_t>(out.sent) * period - NowNs();
    } else if (sending) {
      // Acks just freed window slots: refill before sleeping.
      wait_ns = inflight < kPeakWindow ? 0 : send_end - NowNs();
    }
    if (wait_ns > 0) {
      pollfd p{sock.fd(), static_cast<short>(POLLIN |
                                             (tx.empty() ? 0 : POLLOUT)),
               0};
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      ppoll(&p, 1, &ts, nullptr);
    }
  }
  for (OpRecord& op : ring) {
    if (op.seq == 0 || op.done) continue;
    ++out.unanswered;
    fail_op(op);
  }
  return out;
}

struct ServePhase {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<rt::ShardedRuntime> runtime;
  SetupTimes setup;
  Load load;
  net::ServerStats stats;
  rt::RuntimeResult lifetime;  // from an empty Run after Stop
  Cluster cluster;
};

// One served phase on a fresh setup, with the conservation ledger checked:
// server ledger == client acks == ops sent, and the runtime executed
// exactly what the server acknowledged.
ServePhase RunServePhase(const Args& args, double measure_s, Tracer* tracer,
                         const std::string& tag, Report& rep) {
  ServePhase p;
  p.in = MakeInputs(args, &p.setup, tracer);
  p.runtime = MakeRuntime(*p.in, &p.setup, tracer);
  {
    net::Server server(*p.runtime, net::ServerConfig{});
    Timed(tracer, "server.Start", &p.setup, &SetupTimes::server_s, [&] {
      server.Start();
      return 0;
    });
    try {
      p.load = DriveLoopback(server.port(), p.in->log, args.workload->mode,
                             measure_s, tracer);
    } catch (const std::exception& e) {
      rep.Check(tag + ".generator", false, e.what());
    }
    Scope s(tracer, "server.Stop");
    server.Stop();
    p.stats = server.stats();
  }
  {
    Scope s(tracer, "runtime.Run.lifetime");
    p.lifetime = p.runtime->Run(wl::RequestLog{});
  }
  p.cluster = MeasureCluster(*p.runtime);

  const Load& l = p.load;
  const net::ServerStats& st = p.stats;
  rep.Attempt(l.sent, l.failed());
  rep.Check(tag + ".all_acked", l.ok == l.sent,
            "client ok acks " + Eq(l.ok, l.sent) + " ops sent (busy " +
                std::to_string(l.busy) + ", errors " +
                std::to_string(l.errors) + ", unanswered " +
                std::to_string(l.unanswered) + ")");
  rep.Check(tag + ".server_received", st.ops_received == l.sent,
            "server ops_received " + Eq(st.ops_received, l.sent));
  rep.Check(tag + ".server_executed", st.ops_executed == l.ok,
            "server ops_executed " + Eq(st.ops_executed, l.ok));
  rep.Check(tag + ".server_acks", st.acks_sent == st.ops_executed,
            "server acks_sent " + Eq(st.acks_sent, st.ops_executed));
  rep.Check(tag + ".server_busy", st.busy_sent == l.busy,
            "server busy_sent " + Eq(st.busy_sent, l.busy));
  CheckRuntime(rep, tag, p.lifetime, st.ops_executed);
  rep.Check(tag + ".measured", l.reads.size() > 0 && l.writes.size() > 0,
            "reads and writes were measured");
  return p;
}

double OpsPerSecond(const Load& l) {
  return Ratio(static_cast<double>(l.acked_in_window), l.window_s);
}

double CpuPerOp(const Load& l) {
  return Ratio(l.system_cpu_s * 1e6, static_cast<double>(l.acked_in_window));
}

void FillClient(Layers& l, Load& load) {
  l.client_ops_s = OpsPerSecond(load);
  l.client_read_p50_us = load.reads.At(0.50).value;
  l.client_read_p99_us = load.reads.At(0.99).value;
  l.client_write_p50_us = load.writes.At(0.50).value;
  l.client_write_p99_us = load.writes.At(0.99).value;
  l.steal_s = load.steal_s;
}

void Serve(const Args& args, Report& rep) {
  std::vector<SetupTimes> setups;
  Layers l;
  if (args.trace) {
    // Half the time untraced, half traced, each on a fresh setup; the
    // difference in the client's headline number is the tracing cost.
    ServePhase plain =
        RunServePhase(args, args.seconds / 2, nullptr, "untraced", rep);
    auto tracer = std::make_unique<Tracer>();
    ServePhase traced =
        RunServePhase(args, args.seconds / 2, tracer.get(), "traced", rep);
    setups = {plain.setup, traced.setup};
    FillSetups(args, &setups);
    double unused = 0;
    l.setup = MedianSetup(setups, &unused);
    FillFromResult(l, traced.lifetime, traced.cluster);
    FillClient(l, plain.load);
    Load& t = traced.load;
    l.encode_ns = Ratio(tracer->TotalNs("netproto.encode"),
                        tracer->Durations("netproto.encode").size());
    l.decode_ns = Ratio(tracer->TotalNs("netproto.decode"),
                        tracer->Durations("netproto.decode").size());
    l.bytes_per_op =
        Ratio(static_cast<double>(t.tx_bytes + t.rx_bytes), t.sent);
    l.ops_per_batch = Ratio(static_cast<double>(traced.stats.ops_executed),
                            traced.stats.batches_run);
    l.busy_ratio = Ratio(static_cast<double>(traced.stats.busy_sent),
                         traced.stats.ops_received);
    l.gen_late_p99_us = t.late.size() ? t.late.At(0.99).value : 0;
    TimeRuntimeBatches(*traced.in, t.sent, l.ops_per_batch, tracer.get(), &l);
    l.outside_run_p50_us = l.client_read_p50_us - l.run_p50_us;
    if (args.workload->mode == Mode::kOpenLoop) {
      l.trace_overhead = t.reads.At(0.50).value / l.client_read_p50_us - 1.0;
    } else {
      l.trace_overhead = l.client_ops_s / OpsPerSecond(t) - 1.0;
    }
    TimeSequentialCore(
        *traced.in,
        ServeStream(traced.in->log, 0, std::min(t.sent, kCoreServeOps)),
        /*ticks=*/false, tracer.get(), &l);
    EmitLayers(rep, l);
    tracer->WriteChromeJson(args.out_dir + "/trace-" +
                            args.workload->name + ".json");
    return;
  }

  ServePhase p = RunServePhase(args, args.seconds, nullptr, "serve", rep);
  setups.push_back(p.setup);
  FillSetups(args, &setups);
  double setup_s = 0;
  l.setup = MedianSetup(setups, &setup_s);
  Load& load = p.load;
  FillClient(l, load);
  EmitEndToEnd(rep, setup_s, CpuPerOp(load), p.lifetime, p.cluster);
  InfoClient(rep, l);
  rep.Info("read_samples", static_cast<double>(load.reads.size()));
  rep.Info("read_p99_beyond",
           static_cast<double>(load.reads.At(0.99).beyond));
  rep.Info("write_samples", static_cast<double>(load.writes.size()));
  rep.Info("write_p99_beyond",
           static_cast<double>(load.writes.At(0.99).beyond));
  rep.Info("ops_sent", static_cast<double>(load.sent));
  rep.Info("failed_ratio", perfbench::FailedRatio(load.failed(), load.sent));
  rep.Info("batches_run", static_cast<double>(p.stats.batches_run));
  rep.Info("gen_late_p50_us", load.late.size() ? load.late.At(0.50).value : 0);
  rep.Info("gen_late_p99_us", load.late.size() ? load.late.At(0.99).value : 0);
  rep.Info("setups", static_cast<double>(setups.size()));
  rep.Info("setup_wall_s", l.setup.wall_s);
}

// ----- Input digest -----

// FNV-1a over the generated graph, log and placement: the same seed gives
// the same digest, another seed another.
std::uint64_t InputDigest(const Inputs& in) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (UserId u = 0; u < in.graph.num_users(); ++u) {
    for (const UserId v : in.graph.Followees(u)) mix(v);
    mix(~std::uint64_t{0});
  }
  for (const Request& r : in.log.requests) {
    mix(r.time);
    mix(r.user);
    mix(static_cast<std::uint64_t>(r.op));
  }
  for (const ServerId s : in.placement.master) mix(s);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsbench: %s\n", e.what());
    return 2;
  }
  if (args.digest) {
    SetupTimes unused;
    const auto in = MakeInputs(args, &unused, nullptr);
    std::printf("%016llx %zu\n",
                static_cast<unsigned long long>(InputDigest(*in)),
                in->log.requests.size());
    return 0;
  }
  Report rep;
  try {
    if (args.workload->mode == Mode::kReplay) {
      ReplayPaper(args, rep);
    } else {
      Serve(args, rep);
    }
  } catch (const std::exception& e) {
    rep.Check("exception", false, e.what());
  }
  std::printf("%s\n", rep.Json().c_str());
  return rep.correct() ? 0 : 1;
}
