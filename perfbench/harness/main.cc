// The serving benchmark: stands up the BioNav serving stack in-process over
// the paper-scale synthetic workload (48k concepts, workload seed 2009),
// drives it over loopback TCP from one generator thread, replays every
// session against the in-process model, and prints each metric by name.
//
//   perfbench --workload hot_browse|cold_tail|fleet_open --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--work-dir DIR]
//
// --trace 0 prints the client-observed end-to-end metrics; --trace 1 runs
// an untraced phase and then a traced one, and prints the per-layer
// breakdown taken from outside the program (timed calls into module
// functions, a timing decorator around the expansion strategy, and
// before/after deltas of the STATS registry). The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it is a report with run metadata and sample counts. Workloads and
// metrics are described in perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bionav.h"
#include "load.h"
#include "model.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {
namespace {

using bionav::RequestOp;
using bionav::WireProto;

constexpr uint64_t kWorkloadSeed = 2009;
/// Traffic seed kept out of tuning; a claimed gain must also hold on it.
constexpr uint64_t kHeldOutSeed = 7919;
/// A request answered OK within this limit counts as interactive.
constexpr double kInteractiveLimitMs = 10.0;
/// Discarded load before the measured phase: allocator arenas, response
/// templates, hot-key rates and the spill tier reach steady state.
constexpr double kWarmupSeconds = 2.0;
/// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 5;
/// Open-loop validity: the generator may send at most this late (p99).
constexpr double kMaxLatenessP99Ms = 5.0;
/// fleet_open offered load, about half the closed-loop capacity of its mix
/// at seed 1 (see README.md).
constexpr double kFleetRatePerS = 220.0;

struct Spec {
  std::string name;
  LoadConfig load;
  size_t variants = 0;
  /// QUERY every variant once during set-up.
  bool warm_cache = false;
  size_t cache_bytes = size_t{256} << 20;
  /// More than one: a NavRouter over that many shards, peer fetch on.
  int shards = 1;
  /// Above zero: spill idle sessions to disk after this long.
  int64_t spill_after_ms = 0;
};

std::optional<Spec> FindSpec(const std::string& name) {
  Spec spec;
  spec.name = name;
  if (name == "hot_browse") {
    spec.load.archetype = Archetype::kBrowser;
    spec.load.protos.assign(4, WireProto::kBinary);
    spec.load.zipf_s = 1.1;
    spec.variants = 32;
    spec.warm_cache = true;
  } else if (name == "cold_tail") {
    spec.load.archetype = Archetype::kBacktracker;
    spec.load.protos.assign(4, WireProto::kJson);
    spec.load.zipf_s = 0;
    spec.variants = 40;
    // About a fifth of the 40 variants' artifact bytes: a uniform cycle
    // through them misses on nearly every QUERY.
    spec.cache_bytes = size_t{4} << 20;
  } else if (name == "fleet_open") {
    spec.load.archetype = Archetype::kFinder;
    spec.load.open_loop = true;
    spec.load.rate_per_s = kFleetRatePerS;
    spec.load.protos = {WireProto::kJson, WireProto::kJson,
                        WireProto::kBinary, WireProto::kBinary};
    spec.load.zipf_s = 1.1;
    spec.load.short_think_ms_lo = 1;
    spec.load.short_think_ms_hi = 5;
    spec.load.long_think_ms_lo = 50;
    spec.load.long_think_ms_hi = 150;
    spec.load.record_views = true;
    spec.variants = 64;
    spec.warm_cache = true;
    spec.shards = 2;
    spec.spill_after_ms = 100;
  } else {
    return std::nullopt;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The serving stack under test.
// ---------------------------------------------------------------------------

struct Stack {
  std::unique_ptr<bionav::Workload> workload;
  std::unique_ptr<bionav::EUtilsClient> eutils;
  /// Captured by the shards' session options: declared before them so
  /// they are destroyed after them.
  std::vector<std::unique_ptr<bionav::PeerArtifactFetcher>> fetchers;
  std::vector<std::unique_ptr<bionav::NavServer>> servers;
  std::unique_ptr<bionav::NavRouter> router;
  int port = 0;

  void Shutdown() {
    if (router != nullptr) router->Shutdown();
    for (auto& server : servers) server->Shutdown();
  }
  ~Stack() { Shutdown(); }
};

bionav::Result<std::unique_ptr<Stack>> StartStack(
    const Spec& spec, const bionav::StrategyFactory& factory,
    const std::string& spill_root) {
  auto stack = std::make_unique<Stack>();
  bionav::WorkloadOptions workload_options;
  workload_options.seed = kWorkloadSeed;
  stack->workload = std::make_unique<bionav::Workload>(workload_options);
  stack->eutils = std::make_unique<bionav::EUtilsClient>(
      stack->workload->corpus().MakeClient());
  const bionav::ConceptHierarchy* hierarchy = &stack->workload->hierarchy();

  bionav::NavServerOptions options;
  // One server: 2 workers and 1 reactor thread. A fleet: 1 + 1 per shard,
  // so the fleet's threads fit the same four CPUs.
  options.threads = spec.shards > 1 ? 1 : 2;
  options.io_threads = 1;
  options.session.cache_max_bytes = spec.cache_bytes;
  std::vector<bionav::PeerSpec> peers;
  for (int s = 0; s < spec.shards; ++s) {
    bionav::NavServerOptions shard = options;
    std::string id = "shard" + std::to_string(s);
    if (spec.spill_after_ms > 0) {
      shard.session.spill_dir = spill_root + "/" + id;
      shard.session.spill_after_ms = spec.spill_after_ms;
    }
    if (spec.shards > 1) {
      // The router pins sessions by token, so tokens must be unique
      // fleet-wide.
      shard.session.token_prefix = id + "-";
      auto fetcher = std::make_unique<bionav::PeerArtifactFetcher>(hierarchy);
      bionav::PeerArtifactFetcher* raw = fetcher.get();
      shard.session.peer_fetcher = [raw](const std::string& key) {
        return raw->Fetch(key);
      };
      stack->fetchers.push_back(std::move(fetcher));
    }
    auto server = std::make_unique<bionav::NavServer>(
        hierarchy, stack->eutils.get(), factory, shard);
    if (bionav::Status up = server->Start(); !up.ok()) return up;
    peers.push_back({id, "127.0.0.1", server->port()});
    stack->servers.push_back(std::move(server));
  }
  stack->port = stack->servers.front()->port();
  if (spec.shards > 1) {
    bionav::NavRouterOptions router_options;
    router_options.io_threads = 1;
    // Hot keys spread over both shards, so the replica fetches the
    // owner's artifacts (peer fetch) instead of building them.
    router_options.replicas = 2;
    std::vector<bionav::RouterBackend> backends;
    for (size_t s = 0; s < peers.size(); ++s) {
      bionav::PeerFetchOptions peer_options;
      peer_options.self_id = peers[s].id;
      peer_options.peers = peers;
      peer_options.vnodes = router_options.ring_vnodes;
      peer_options.seed = router_options.ring_seed;
      stack->fetchers[s]->Configure(std::move(peer_options));
      backends.push_back({peers[s].host, peers[s].port, peers[s].id});
    }
    stack->router = std::make_unique<bionav::NavRouter>(std::move(backends),
                                                        router_options);
    if (bionav::Status up = stack->router->Start(); !up.ok()) return up;
    stack->port = stack->router->port();
  }
  return stack;
}

/// The query universe: the workload's keywords, repeated to make further
/// distinct cache keys ("kw kw" matches exactly what "kw" matches).
std::vector<Variant> BuildVariants(const bionav::Workload& workload,
                                   size_t count) {
  std::vector<Variant> variants;
  for (size_t d = 0; d < count; ++d) {
    const bionav::GeneratedQuery& q = workload.query(d % workload.num_queries());
    Variant v;
    v.target = q.target;
    for (size_t r = 0; r <= d / workload.num_queries(); ++r) {
      if (r > 0) v.query.push_back(' ');
      v.query += q.spec.keyword;
    }
    variants.push_back(std::move(v));
  }
  return variants;
}

bionav::Status WarmCache(const Stack& stack,
                         const std::vector<Variant>& variants) {
  auto client = bionav::NavClient::Connect("127.0.0.1", stack.port);
  if (!client.ok()) return client.status();
  for (const Variant& v : variants) {
    auto opened = client.ValueOrDie()->Query(v.query);
    if (!opened.ok()) return opened.status();
    if (bionav::Status closed =
            client.ValueOrDie()->CloseSession(opened.ValueOrDie().token);
        !closed.ok()) {
      return closed;
    }
  }
  return bionav::Status::OK();
}

/// STATS of the first server: its "metrics" member is the process-wide
/// registry, so it covers every shard and the router too.
bionav::Result<RegistrySnapshot> ScrapeStats(const Stack& stack) {
  auto client =
      bionav::NavClient::Connect("127.0.0.1", stack.servers.front()->port());
  if (!client.ok()) return client.status();
  auto stats = client.ValueOrDie()->Stats();
  if (!stats.ok()) return stats.status();
  RegistrySnapshot snapshot;
  if (!ParseRegistry(stats.ValueOrDie(), &snapshot)) {
    return bionav::Status::Internal("STATS carried no metrics registry");
  }
  return snapshot;
}

std::vector<int64_t> RouterForwarded(const Stack& stack) {
  std::vector<int64_t> out;
  if (stack.router == nullptr) return out;
  for (const auto& backend : stack.router->stats().backends) {
    out.push_back(backend.forwarded);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Benchmark-owned tracing of the expansion strategy.
// ---------------------------------------------------------------------------

/// ChooseEdgeCut timings collected by TimedStrategy while enabled.
struct ChooseCutLog {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<double> micros;  // Guarded by mu.
  int64_t incremental_hits = 0;  // Guarded by mu.
};

/// Decorator timing every ChooseEdgeCut of the wrapped strategy. The name
/// is forwarded, so session snapshots (which record it) stay valid.
class TimedStrategy : public bionav::ExpandStrategy {
 public:
  TimedStrategy(std::unique_ptr<bionav::ExpandStrategy> inner,
                ChooseCutLog* log)
      : inner_(std::move(inner)), log_(log) {}

  bionav::EdgeCut ChooseEdgeCut(const bionav::ActiveTree& active,
                                bionav::NavNodeId root) override {
    bionav::Timer timer;
    bionav::EdgeCut cut = inner_->ChooseEdgeCut(active, root);
    double us = static_cast<double>(timer.ElapsedNanos()) / 1e3;
    last_stats_ = inner_->last_stats();
    if (log_->enabled.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->micros.push_back(us);
      if (last_stats_.incremental_hit) ++log_->incremental_hits;
    }
    return cut;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<bionav::ExpandStrategy> inner_;
  ChooseCutLog* log_;
};

bionav::StrategyFactory TimedFactory(ChooseCutLog* log) {
  bionav::StrategyFactory inner = bionav::MakeBioNavStrategyFactory();
  return [inner, log](const bionav::CostModel* cost_model)
             -> std::unique_ptr<bionav::ExpandStrategy> {
    return std::make_unique<TimedStrategy>(inner(cost_model), log);
  };
}

// ---------------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------------

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  std::ostringstream out;
  out << one << " " << five << " " << fifteen;
  return out.str();
}

/// Everything one measured phase yields besides the generator's own result.
struct Measured {
  PhaseResult load;
  RegistrySnapshot before, after;
  std::vector<int64_t> forwarded_before, forwarded_after;
  double process_cpu_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> session_heap_bytes;
};

bionav::Result<Measured> MeasurePhase(LoadGenerator* generator,
                                      const Stack& stack, uint64_t seed,
                                      double seconds, bool capture) {
  Measured m;
  auto before = ScrapeStats(stack);
  if (!before.ok()) return before.status();
  m.before = before.TakeValue();
  m.forwarded_before = RouterForwarded(stack);
  const bionav::Gauge* heap =
      bionav::GlobalMetrics().FindGauge("bionav_session_heap_bytes");
  std::function<void()> tick = [&] {
    m.peak_rss_mb = std::max(m.peak_rss_mb, ResidentMb());
    if (heap != nullptr) {
      m.session_heap_bytes.push_back(static_cast<double>(heap->Value()));
    }
  };
  double cpu = ProcessCpuSeconds();
  m.peak_rss_mb = ResidentMb();
  m.load = generator->Run(seed, seconds, capture, tick);
  m.process_cpu_s = ProcessCpuSeconds() - cpu;
  tick();
  auto after = ScrapeStats(stack);
  if (!after.ok()) return after.status();
  m.after = after.TakeValue();
  m.forwarded_after = RouterForwarded(stack);
  return m;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Samples behind the value (0 where it is a ratio of counters).
  int64_t samples = 0;
};

/// Collects metrics and the reasons a run is not valid.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           int64_t samples = 0) {
    if (!ValidMetricName(name) || !ValidUnit(unit)) {
      Fail("malformed metric name or unit: " + name + " " + unit);
      return;
    }
    metrics_.push_back({name, unit, std::isfinite(value) ? value : 0.0,
                        samples});
  }
  /// Records the median and the p99 of `values` (ms) for the report line.
  /// A percentile with fewer than ten samples beyond it is not named.
  void AddPercentiles(const std::string& name, std::vector<double> values) {
    std::sort(values.begin(), values.end());
    latencies_.push_back({name, SupportedQuantile(values, 0.5),
                          SupportedQuantile(values, 0.99),
                          static_cast<int64_t>(values.size())});
  }
  void Fail(const std::string& reason) { failures_.push_back(reason); }
  bool valid() const { return failures_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Latency {
    std::string name;
    std::optional<double> p50, p99;
    int64_t samples = 0;
  };
  const std::vector<Latency>& latencies() const { return latencies_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<Latency> latencies_;
  std::vector<std::string> failures_;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += bionav::JsonEscape(s);
  out.push_back('"');
  return out;
}

bool IsExpand(RequestOp op) {
  return op == RequestOp::kExpand || op == RequestOp::kBatchExpand;
}

std::vector<double> Latencies(const PhaseResult& r,
                              bool (*keep)(RequestOp)) {
  std::vector<double> out;
  for (const OpSample& s : r.samples) {
    if (s.ok && keep(s.op)) out.push_back(s.latency_ms);
  }
  return out;
}

int64_t Attempted(const PhaseResult& r) {
  return static_cast<int64_t>(r.samples.size()) + r.requests_lost;
}

int64_t FailedRequests(const PhaseResult& r) {
  return r.requests_failed + r.requests_shed + r.requests_lost;
}

double SessionsPerSecond(const PhaseResult& r) {
  return r.wall_s > 0 ? static_cast<double>(r.sessions_completed) / r.wall_s
                      : 0.0;
}

void AddEndToEnd(const Measured& m, double setup_s, Report* report) {
  const PhaseResult& r = m.load;
  report->AddPercentiles("expand", Latencies(r, IsExpand));
  report->AddPercentiles(
      "query", Latencies(r, [](RequestOp op) { return op == RequestOp::kQuery; }));
  report->AddPercentiles("op", Latencies(r, [](RequestOp) { return true; }));
  int64_t attempted = Attempted(r);
  int64_t within = 0;
  for (const OpSample& s : r.samples) {
    if (s.ok && s.latency_ms <= kInteractiveLimitMs) ++within;
  }
  double denominator = static_cast<double>(std::max<int64_t>(1, attempted));
  report->Add("within_limit_ratio", "ratio",
              static_cast<double>(within) / denominator, attempted);
  report->Add("ok_ratio", "ratio",
              1.0 - static_cast<double>(FailedRequests(r)) / denominator,
              attempted);
  double cost = 0;
  int64_t completed = 0;
  for (const SessionLog& s : r.sessions) {
    if (!s.completed) continue;
    cost += static_cast<double>(s.nav_cost);
    ++completed;
  }
  report->Add("nav_cost_per_session", "count",
              completed > 0 ? cost / static_cast<double>(completed) : 0,
              completed);
  report->Add("setup_s", "s", setup_s, kSetupRepeats);
  report->Add("peak_rss_mb", "MB", m.peak_rss_mb);
}

const std::vector<std::pair<RequestOp, std::string>>& LoadOps() {
  static const std::vector<std::pair<RequestOp, std::string>> ops = {
      {RequestOp::kQuery, "query"},     {RequestOp::kExpand, "expand"},
      {RequestOp::kBatchExpand, "batch_expand"},
      {RequestOp::kFind, "find"},       {RequestOp::kView, "view"},
      {RequestOp::kShowResults, "showresults"},
      {RequestOp::kBacktrack, "backtrack"}, {RequestOp::kClose, "close"}};
  return ops;
}

/// Inputs of the per-layer breakdown that the traced phase gathers besides
/// the registry deltas.
struct TraceInputs {
  double untraced_sessions_per_s = 0;
  std::vector<double> choose_cut_us;
  int64_t incremental_hits = 0;
  double esearch_us = 0;
  int64_t esearch_calls = 0;
  double parse_ns = 0;
  int64_t parsed_frames = 0;
  std::vector<double> snapshot_bytes;
};

void AddPerLayer(const Measured& m, const TraceInputs& t, Report* report) {
  const PhaseResult& r = m.load;
  auto hist = [&](const std::string& name) {
    return HistogramDeltaOf(m.before, m.after, name).value_or(HistogramDelta());
  };
  auto counter = [&](const std::string& name) {
    return static_cast<double>(
        CounterDelta(m.before, m.after, name).value_or(0));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // server: residence per op (exact count/sum), and what the client saw
  // beyond it.
  HistogramDelta all_ops;
  for (const auto& [op, name] : LoadOps()) {
    HistogramDelta h = hist("bionav_server_op_" + name + "_us");
    all_ops.count += h.count;
    all_ops.sum_us += h.sum_us;
    std::vector<double> client;
    for (const OpSample& s : r.samples) {
      if (s.ok && s.op == op) client.push_back(s.latency_ms * 1e3);
    }
    double client_mean =
        client.empty() ? 0.0
                       : std::accumulate(client.begin(), client.end(), 0.0) /
                             static_cast<double>(client.size());
    report->Add("server.residence_us." + name, "us", h.mean_us(), h.count);
    report->Add("server.outside_handler_us." + name, "us",
                client.empty() ? 0.0 : client_mean - h.mean_us(),
                static_cast<int64_t>(client.size()));
  }
  // The after-scrape's own STATS request is counted; the load's are not.
  double requests = counter("bionav_server_requests_total") - 1;
  HistogramDelta dispatch = hist("bionav_server_read_to_dispatch_us");
  report->Add("server.read_to_dispatch_us", "us", dispatch.mean_us(),
              dispatch.count);
  report->Add("server.epoll_wakeups_per_req", "count",
              ratio(static_cast<double>(
                        MonotoneGaugeDelta(m.before, m.after,
                                           "bionav_server_epoll_wakeups")
                            .value_or(0)),
                    requests));
  HistogramDelta flush = hist("bionav_server_flush_batch");
  report->Add("server.flush_batch_mean", "count", flush.mean_us(), flush.count);
  report->Add("server.wire_bytes_per_req", "B",
              ratio(counter("bionav_server_bytes_rx_total") +
                        counter("bionav_server_bytes_tx_total"),
                    requests));
  report->Add("server.protocol.parse_ns", "ns", t.parse_ns, t.parsed_frames);
  report->Add("server.session_heap_bytes", "B",
              m.session_heap_bytes.empty()
                  ? 0.0
                  : std::accumulate(m.session_heap_bytes.begin(),
                                    m.session_heap_bytes.end(), 0.0) /
                        static_cast<double>(m.session_heap_bytes.size()),
              static_cast<int64_t>(m.session_heap_bytes.size()));

  // cache
  double hits = counter("bionav_qcache_hits_total");
  double misses = counter("bionav_qcache_misses_total");
  report->Add("cache.hit_ratio", "ratio", ratio(hits, hits + misses),
              static_cast<int64_t>(hits + misses));
  HistogramDelta build = hist("bionav_qcache_build_us");
  report->Add("cache.build_ms", "ms", build.mean_us() / 1e3, build.count);
  report->Add("cache.builds", "count", static_cast<double>(build.count));
  report->Add("cache.evictions", "count",
              counter("bionav_qcache_evictions_total"));
  report->Add("cache.singleflight_waits", "count",
              counter("bionav_qcache_singleflight_waits_total"));

  // medline
  report->Add("medline.esearch_us", "us", t.esearch_us, t.esearch_calls);

  // core
  HistogramDelta tree = hist("bionav_engine_tree_build_us");
  report->Add("core.tree_build_ms", "ms", tree.mean_us() / 1e3, tree.count);
  HistogramDelta apply = hist("bionav_engine_apply_cut_us");
  report->Add("core.apply_cut_us", "us", apply.mean_us(), apply.count);

  // algo
  std::vector<double> cuts = t.choose_cut_us;
  std::sort(cuts.begin(), cuts.end());
  int64_t calls = static_cast<int64_t>(cuts.size());
  // Percentiles the sample cannot support read 0 (the report line says so).
  report->Add("algo.choose_cut_us.p50", "us",
              SupportedQuantile(cuts, 0.5).value_or(0), calls);
  report->Add("algo.choose_cut_us.p99", "us",
              SupportedQuantile(cuts, 0.99).value_or(0), calls);
  report->Add("algo.choose_cut_calls", "count", static_cast<double>(calls));
  for (const char* stage : {"k_partition", "reduced_tree", "opt_edgecut"}) {
    HistogramDelta h = hist(std::string("bionav_engine_") + stage + "_us");
    report->Add(std::string("algo.") + stage + "_us", "us", h.mean_us(),
                h.count);
  }
  report->Add("algo.incremental_hit_ratio", "ratio",
              ratio(static_cast<double>(t.incremental_hits),
                    static_cast<double>(calls)),
              calls);
  double memo_hits = counter("bionav_optcut_memo_hits_total");
  double memo_misses = counter("bionav_optcut_memo_misses_total");
  report->Add("algo.optcut_memo_hit_ratio", "ratio",
              ratio(memo_hits, memo_hits + memo_misses),
              static_cast<int64_t>(memo_hits + memo_misses));

  // persist
  double sessions = static_cast<double>(r.sessions_completed);
  report->Add("persist.spilled_per_session", "count",
              ratio(counter("bionav_sessions_spilled_total"), sessions));
  report->Add("persist.restored_per_session", "count",
              ratio(counter("bionav_sessions_restored_total"), sessions));
  HistogramDelta restore = hist("bionav_session_restore_us");
  report->Add("persist.restore_us", "us", restore.mean_us(), restore.count);
  report->Add("persist.snapshot_bytes", "B",
              t.snapshot_bytes.empty()
                  ? 0.0
                  : std::accumulate(t.snapshot_bytes.begin(),
                                    t.snapshot_bytes.end(), 0.0) /
                        static_cast<double>(t.snapshot_bytes.size()),
              static_cast<int64_t>(t.snapshot_bytes.size()));

  // router
  HistogramDelta forward = hist("bionav_router_forward_us");
  report->Add("router.forward_us", "us", forward.mean_us(), forward.count);
  report->Add("router.forwarded", "count", static_cast<double>(forward.count));
  double hop = 0;
  if (!m.forwarded_after.empty() && all_ops.count > 0) {
    std::vector<double> client = Latencies(r, [](RequestOp) { return true; });
    double client_mean_us =
        client.empty() ? 0.0
                       : 1e3 * std::accumulate(client.begin(), client.end(),
                                               0.0) /
                             static_cast<double>(client.size());
    hop = client_mean_us - all_ops.mean_us();
  }
  report->Add("router.hop_us", "us", hop);
  report->Add("router.peer_fetch_hits", "count",
              counter("bionav_peer_fetch_hits_total"));
  report->Add("router.peer_fetch_misses", "count",
              counter("bionav_peer_fetch_misses_total"));
  double skew = 0;
  if (!m.forwarded_after.empty()) {
    double total = 0, most = 0;
    for (size_t b = 0; b < m.forwarded_after.size(); ++b) {
      double d = static_cast<double>(m.forwarded_after[b] -
                                     m.forwarded_before[b]);
      total += d;
      most = std::max(most, d);
    }
    skew = ratio(most, total / static_cast<double>(m.forwarded_after.size()));
  }
  report->Add("router.shard_skew", "ratio", skew);

  // Validity of the measurement itself.
  std::vector<double> late = r.lateness_ms;
  std::sort(late.begin(), late.end());
  report->Add("gen.late_p99_ms", "ms",
              SupportedQuantile(late, 0.99).value_or(late.empty() ? 0
                                                                  : late.back()),
              static_cast<int64_t>(late.size()));
  report->Add("gen.cpu_util", "ratio", ratio(r.generator_busy_s, r.wall_s));
  report->Add("proc.cpu_util", "ratio",
              ratio(m.process_cpu_s,
                    r.wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  report->Add("trace_overhead", "ratio",
              ratio(t.untraced_sessions_per_s - SessionsPerSecond(r),
                    t.untraced_sessions_per_s));
}

/// Open-loop validity: the generator kept to its schedule and the number
/// of open sessions did not keep growing.
void CheckOpenLoop(const PhaseResult& r, Report* report) {
  std::vector<double> late = r.lateness_ms;
  std::sort(late.begin(), late.end());
  double p99 = SupportedQuantile(late, 0.99).value_or(late.empty() ? 0 : late.back());
  if (p99 > kMaxLatenessP99Ms) {
    report->Fail("generator ran late: lateness p99 " + JsonNumber(p99) + " ms");
  }
  size_t n = r.open_sessions.size();
  if (n >= 8) {
    double first = 0, last = 0;
    for (size_t i = 0; i < n / 4; ++i) {
      first += r.open_sessions[i];
      last += r.open_sessions[n - 1 - i];
    }
    first /= static_cast<double>(n / 4);
    last /= static_cast<double>(n / 4);
    if (last > 1.5 * first + 4) {
      report->Fail("backlog: open sessions grew from " + JsonNumber(first) +
                   " to " + JsonNumber(last));
    }
  }
}

void CheckLoad(const char* phase, const PhaseResult& r, Report* report) {
  if (r.transport_errors > 0) {
    report->Fail(std::string(phase) + ": " + std::to_string(r.transport_errors) +
                 " transport errors (" + r.first_error + ")");
  }
}

/// The server's parsers over the traced phase's request frames.
void TimeParsers(const PhaseResult& r, TraceInputs* t) {
  constexpr int kPasses = 5;
  bionav::Timer timer;
  int64_t parsed = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < r.frames.size(); ++i) {
      std::string error;
      bionav::WireError outcome;
      if (r.frame_protos[i] == WireProto::kBinary) {
        bionav::RequestView view;
        outcome = bionav::ParseRequestBinary(r.frames[i], &view, &error);
      } else {
        bionav::Request request;
        outcome = bionav::ParseRequest(r.frames[i], &request, &error);
      }
      if (outcome == bionav::WireError::kNone) ++parsed;
    }
  }
  t->parsed_frames = static_cast<int64_t>(r.frames.size());
  t->parse_ns = parsed > 0 ? static_cast<double>(timer.ElapsedNanos()) /
                                 static_cast<double>(parsed)
                           : 0.0;
}

/// ESearch over the workload's queries, through the stack's EUtils client.
void TimeESearch(const bionav::EUtilsClient& eutils,
                 const std::vector<Variant>& variants, TraceInputs* t) {
  constexpr int kPasses = 5;
  bionav::Timer timer;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Variant& v : variants) eutils.ESearch(v.query);
  }
  t->esearch_calls = kPasses * static_cast<int64_t>(variants.size());
  t->esearch_us = static_cast<double>(timer.ElapsedNanos()) / 1e3 /
                  static_cast<double>(t->esearch_calls);
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    int64_t n = 0;
    if (flag == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && bionav::ParseInt64(value, &n) && n >= 0) {
      o->seed = static_cast<uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds" && bionav::ParseInt64(value, &n) && n > 0) {
      o->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o->trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      o->git_sha = value;
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

int Run(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] [--work-dir DIR]\n";
    return 2;
  }
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::cerr << "perfbench: refusing to measure a debug or sanitizer build\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "perfbench: refusing to measure a Debug build\n";
    return 2;
  }
  std::optional<Spec> found = FindSpec(opts.workload);
  if (!found) {
    std::cerr << "perfbench: unknown workload '" << opts.workload << "'\n";
    return 2;
  }
  const Spec& spec = *found;
  std::string load_start = LoadAverage();

  ChooseCutLog cut_log;
  bionav::StrategyFactory factory = opts.trace
                                        ? TimedFactory(&cut_log)
                                        : bionav::MakeBioNavStrategyFactory();
  std::string spill_root = opts.work_dir + "/spill";
  std::error_code ignored;

  // Set-up, repeated: workload, stack, and (where the workload says so) a
  // warm artifact cache. The last one stays up.
  std::vector<double> setup_samples;
  std::unique_ptr<Stack> stack;
  std::vector<Variant> variants;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    // Hand the previous set-up's memory back, so peak_rss_mb sees one
    // stack rather than the allocator's leftovers.
    malloc_trim(0);
    std::filesystem::remove_all(spill_root, ignored);
    bionav::Timer timer;
    auto started = StartStack(spec, factory, spill_root);
    if (!started.ok()) {
      std::cerr << "perfbench: " << started.status().ToString() << "\n";
      return 1;
    }
    stack = started.TakeValue();
    if (variants.empty()) variants = BuildVariants(*stack->workload, spec.variants);
    if (spec.warm_cache) {
      if (bionav::Status warmed = WarmCache(*stack, variants); !warmed.ok()) {
        std::cerr << "perfbench: warming failed: " << warmed.ToString() << "\n";
        return 1;
      }
    }
    setup_samples.push_back(static_cast<double>(timer.ElapsedNanos()) / 1e9);
  }
  double setup_s = Median(setup_samples);

  Report report;
  auto generator = std::make_unique<LoadGenerator>(spec.load, &variants);
  if (bionav::Status up = generator->Connect("127.0.0.1", stack->port);
      !up.ok()) {
    std::cerr << "perfbench: " << up.ToString() << "\n";
    return 1;
  }
  PhaseResult warmup =
      generator->Run(MixSeed(opts.seed, 1), kWarmupSeconds, false, [] {});
  CheckLoad("warm-up", warmup, &report);

  // Untraced phase: the end-to-end numbers. A traced run splits its time
  // between an untraced half (the baseline of the tracing overhead) and a
  // traced half.
  double phase_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  auto untraced = MeasurePhase(generator.get(), *stack, MixSeed(opts.seed, 2),
                               phase_seconds, false);
  if (!untraced.ok()) {
    std::cerr << "perfbench: " << untraced.status().ToString() << "\n";
    return 1;
  }
  CheckLoad("measured", untraced.ValueOrDie().load, &report);
  std::optional<Measured> traced;
  TraceInputs trace_inputs;
  if (opts.trace) {
    cut_log.enabled = true;
    auto phase = MeasurePhase(generator.get(), *stack, MixSeed(opts.seed, 3),
                              phase_seconds, true);
    if (!phase.ok()) {
      std::cerr << "perfbench: " << phase.status().ToString() << "\n";
      return 1;
    }
    cut_log.enabled = false;
    {
      std::lock_guard<std::mutex> lock(cut_log.mu);
      trace_inputs.choose_cut_us = std::move(cut_log.micros);
      trace_inputs.incremental_hits = cut_log.incremental_hits;
    }
    traced = phase.TakeValue();
    CheckLoad("traced", traced->load, &report);
    trace_inputs.untraced_sessions_per_s =
        SessionsPerSecond(untraced.ValueOrDie().load);
    TimeParsers(traced->load, &trace_inputs);
    TimeESearch(*stack->eutils, variants, &trace_inputs);
  }
  generator.reset();
  stack->Shutdown();

  // Correctness gate: every session of every phase against the model.
  ModelCheck check;
  const bionav::ConceptHierarchy& hierarchy = stack->workload->hierarchy();
  ReplayAgainstModel(hierarchy, *stack->eutils, variants, warmup.sessions,
                     false, &check);
  ReplayAgainstModel(hierarchy, *stack->eutils, variants,
                     untraced.ValueOrDie().load.sessions, false, &check);
  if (traced) {
    // Only this replay measures snapshots.
    ReplayAgainstModel(hierarchy, *stack->eutils, variants,
                       traced->load.sessions, true, &check);
    trace_inputs.snapshot_bytes = std::move(check.snapshot_bytes);
  }
  if (check.mismatches > 0) {
    report.Fail(std::to_string(check.mismatches) +
                " answers differ from the model (" + check.first_mismatch + ")");
  }

  const Measured& measured = traced ? *traced : untraced.ValueOrDie();
  if (spec.load.open_loop) {
    CheckOpenLoop(untraced.ValueOrDie().load, &report);
    if (traced) CheckOpenLoop(traced->load, &report);
  }
  if (traced) {
    AddPerLayer(*traced, trace_inputs, &report);
  } else {
    AddEndToEnd(measured, setup_s, &report);
  }
  stack.reset();
  std::filesystem::remove_all(opts.work_dir, ignored);

  // Report line: run metadata, sample counts, and why a run is invalid.
  std::ostringstream meta;
  meta << "{\"report\":{\"workload\":" << JsonString(spec.name)
       << ",\"seed\":" << opts.seed << ",\"held_out_seed\":" << kHeldOutSeed
       << ",\"workload_seed\":" << kWorkloadSeed
       << ",\"seconds\":" << JsonNumber(opts.seconds)
       << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"loadavg_start\":" << JsonString(load_start)
       << ",\"loadavg_end\":" << JsonString(LoadAverage())
       << ",\"compiler\":" << JsonString("gcc " __VERSION__)
       << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
       << ",\"git_sha\":" << JsonString(opts.git_sha)
       << ",\"interactive_limit_ms\":" << JsonNumber(kInteractiveLimitMs)
       << ",\"setup_samples_s\":[";
  for (size_t i = 0; i < setup_samples.size(); ++i) {
    meta << (i ? "," : "") << JsonNumber(setup_samples[i]);
  }
  const PhaseResult& r = measured.load;
  // CPU the stack spent per session: process CPU minus the generator
  // thread's.
  double cpu_ms_per_session =
      r.sessions_completed > 0
          ? 1e3 * (measured.process_cpu_s - r.generator_cpu_s) /
                static_cast<double>(r.sessions_completed)
          : 0.0;
  meta << "],\"sessions\":{\"completed\":" << r.sessions_completed
       << ",\"failed\":" << r.sessions_failed
       << ",\"per_s\":" << JsonNumber(SessionsPerSecond(r))
       << ",\"cpu_ms_per_session\":" << JsonNumber(cpu_ms_per_session)
       << "},\"requests\":{\"attempted\":"
       << Attempted(r) << ",\"failed\":" << r.requests_failed
       << ",\"shed\":" << r.requests_shed << ",\"lost\":" << r.requests_lost
       << ",\"error_ratio\":"
       << JsonNumber(static_cast<double>(FailedRequests(r)) /
                     static_cast<double>(std::max<int64_t>(1, Attempted(r))))
       << "},\"model\":{\"sessions\":" << check.sessions_checked
       << ",\"ops\":" << check.ops_checked << ",\"views\":"
       << check.views_checked << ",\"mismatches\":" << check.mismatches
       << "},\"latency_ms\":{";
  auto optional_number = [](const std::optional<double>& v) {
    return v ? JsonNumber(*v) : std::string("null");
  };
  for (size_t i = 0; i < report.latencies().size(); ++i) {
    const Report::Latency& l = report.latencies()[i];
    meta << (i ? "," : "") << JsonString(l.name)
         << ":{\"p50\":" << optional_number(l.p50)
         << ",\"p99\":" << optional_number(l.p99)
         << ",\"samples\":" << l.samples << "}";
  }
  meta << "},\"samples\":{";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    meta << (i ? "," : "") << JsonString(report.metrics()[i].name) << ":"
         << report.metrics()[i].samples;
  }
  meta << "},\"completed_per_s\":[";
  for (size_t i = 9; i < r.completed_at_tick.size(); i += 10) {
    meta << (i > 9 ? "," : "")
         << r.completed_at_tick[i] - (i >= 19 ? r.completed_at_tick[i - 10] : 0);
  }
  meta << "],\"invalid\":[";
  for (size_t i = 0; i < report.failures().size(); ++i) {
    meta << (i ? "," : "") << JsonString(report.failures()[i]);
  }
  meta << "]}}";
  std::cout << meta.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (report.valid() ? "true" : "false")
      << ",\"attempted\":" << std::max<int64_t>(1, Attempted(r))
      << ",\"failed\":" << FailedRequests(r) << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& metric = report.metrics()[i];
    out << (i ? "," : "") << JsonString(metric.name) << ":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":" << JsonString(metric.unit)
        << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
