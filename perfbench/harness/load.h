#ifndef BIONAV_PERFBENCH_LOAD_H_
#define BIONAV_PERFBENCH_LOAD_H_

// Single-threaded load generator: drives the serving stack over loopback
// TCP from one thread with a handful of non-blocking connections, records
// every request's latency and every answer the sessions saw, so the run can
// be replayed against the in-process model afterwards.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/navigation_tree.h"
#include "hierarchy/concept_hierarchy.h"
#include "server/protocol.h"
#include "util/status.h"

namespace perfbench {

/// User behaviour of one session (the load profiles of bench_serving).
enum class Archetype {
  /// VIEW, then EXPAND or BATCH_EXPAND random expandable nodes and peek at
  /// a result page, for 2-6 steps.
  kBrowser,
  /// Drill to the target with FIND/EXPAND, BACKTRACK every EXPAND, drill
  /// again (the second descent is served by the incremental memo).
  kBacktracker,
  /// Drill to the target, show its results, pause, VIEW the tree, CLOSE.
  kFinder,
};

/// One query of the universe the sessions draw from.
struct Variant {
  std::string query;
  bionav::ConceptId target = bionav::kInvalidConcept;
};

struct LoadConfig {
  Archetype archetype = Archetype::kBrowser;
  /// Open loop: sessions arrive on a seeded Poisson schedule at rate_per_s
  /// and are spread round-robin over the connections (pipelined). Closed
  /// loop: each connection runs one session at a time, back to back.
  bool open_loop = false;
  double rate_per_s = 0;
  /// One entry per connection: its wire encoding.
  std::vector<bionav::WireProto> protos;
  /// Variant choice, see DrawVariant.
  double zipf_s = 0;
  /// Finder pauses, drawn uniformly: between operations, and once before
  /// the final VIEW (the pause that straddles the server's spill delay).
  double short_think_ms_lo = 0, short_think_ms_hi = 0;
  double long_think_ms_lo = 0, long_think_ms_hi = 0;
  /// Keep each VIEW's tree (canonical JSON) for the model comparison.
  bool record_views = false;
};

/// One outcome of a BATCH_EXPAND item.
struct BatchItem {
  bool ok = false;
  std::vector<bionav::NavNodeId> revealed;
};

/// A request a session made and the answer it got.
struct OpRecord {
  bionav::RequestOp op = bionav::RequestOp::kQuery;
  bionav::NavNodeId node = bionav::kInvalidNavNode;
  std::vector<bionav::NavNodeId> nodes;
  bionav::ConceptId concept_id = bionav::kInvalidConcept;
  uint64_t retstart = 0, retmax = 0;
  int depth = 100;
  bool ok = false;
  std::string error;
  // Answer fields, by op.
  int64_t result_size = 0;                   // QUERY
  std::vector<bionav::NavNodeId> revealed;   // EXPAND
  std::vector<BatchItem> batch;              // BATCH_EXPAND
  bool undone = false;                       // BACKTRACK
  bool found = false, visible = false;       // FIND
  int64_t find_node = -1, find_root = -1, find_distinct = 0;
  int64_t total = 0;                         // SHOWRESULTS
  std::string view;                          // VIEW (record_views)
};

struct SessionLog {
  size_t variant = 0;
  std::vector<OpRecord> ops;
  bool completed = false;
  /// Revealed concepts plus EXPAND actions, as the client saw them.
  int64_t nav_cost = 0;
};

/// Latency of one attempted request.
struct OpSample {
  bionav::RequestOp op = bionav::RequestOp::kQuery;
  bool ok = false;
  /// Closed loop: send to answer. Open loop: due time to answer.
  double latency_ms = 0;
};

struct PhaseResult {
  std::vector<SessionLog> sessions;
  std::vector<OpSample> samples;
  /// Send time minus due time of every request.
  std::vector<double> lateness_ms;
  /// Sessions open, and sessions completed so far, at each 100 ms tick.
  std::vector<int> open_sessions;
  std::vector<int64_t> completed_at_tick;
  int64_t sessions_completed = 0;
  int64_t sessions_failed = 0;
  int64_t requests_failed = 0;
  int64_t requests_shed = 0;
  /// Requests in flight on a connection that broke.
  int64_t requests_lost = 0;
  int64_t transport_errors = 0;
  std::string first_error;
  /// First send to last answer.
  double wall_s = 0;
  /// Time the generator thread spent sending and handling answers, as
  /// opposed to polling for them, and its CPU time (polling included).
  double generator_busy_s = 0;
  double generator_cpu_s = 0;
  /// Request frames as the server's parsers take them (JSON line without
  /// '\n', binary body without magic and length), when captured.
  std::vector<std::string> frames;
  std::vector<bionav::WireProto> frame_protos;
};

class LoadGenerator {
 public:
  LoadGenerator(LoadConfig config, const std::vector<Variant>* variants);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens config.protos.size() connections to host:port (binary ones send
  /// the negotiation preamble with their first request).
  bionav::Status Connect(const std::string& host, int port);

  /// Runs one phase: starts sessions for `seconds` (closed loop) or along
  /// the Poisson schedule of `seed` (open loop), then waits for every
  /// started session to finish. `seed` also drives variant and in-session
  /// choices. `on_tick` runs on this thread every 100 ms.
  PhaseResult Run(uint64_t seed, double seconds, bool capture_frames,
                  const std::function<void()>& on_tick);

 private:
  struct Conn;
  class Phase;

  LoadConfig config_;
  const std::vector<Variant>* variants_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
};

}  // namespace perfbench

#endif  // BIONAV_PERFBENCH_LOAD_H_
