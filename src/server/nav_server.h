#ifndef BIONAV_SERVER_NAV_SERVER_H_
#define BIONAV_SERVER_NAV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "server/connection_reactor.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/thread_pool.h"

namespace bionav {

struct NavServerOptions {
  /// Bind address (loopback by default — fronting proxies terminate the
  /// public edge in the paper's architecture).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via port() after Start.
  int port = 0;
  /// Compute workers (the PR-1 ThreadPool) executing decoded requests.
  int threads = 4;
  /// Reactor threads owning the non-blocking sockets. 1–2 saturate the
  /// line-protocol I/O for thousands of connections; compute stays on the
  /// pool above. Clamped to >= 1.
  int io_threads = 1;
  /// Admission control at the accept path: a connection arriving while
  /// this many are open is answered RETRY_LATER and closed. Connections
  /// are cheap reactor state, so the default holds thousands.
  int max_connections = 4096;
  /// Pipelining depth: decoded-but-unanswered requests per connection.
  /// Past it the reactor stops reading that connection until responses
  /// drain (per-connection backpressure, never a global stall).
  int max_inflight_per_connection = 64;
  /// Write-queue backpressure: when a connection's queued response bytes
  /// exceed this, reading it pauses until the queue drains below.
  size_t max_write_queue_bytes = 4 << 20;
  /// A request line may grow to this many bytes before termination; past
  /// it the connection gets a typed BAD_REQUEST and is closed (slow-loris
  /// defense; see LineFrameDecoder).
  size_t max_frame_bytes = LineFrameDecoder::kDefaultMaxFrameBytes;
  /// Idle connections are closed after this long without a readable byte
  /// (enforced by the reactor's timer wheel). 0 disables.
  int64_t idle_timeout_ms = 5 * 60 * 1000;
  /// Shutdown drains pending write queues for at most this long before
  /// force-closing what remains.
  int64_t drain_deadline_ms = 2000;
  /// Warm restart: adopt this already-bound, already-listening fd instead
  /// of socket/bind/listen. The predecessor process dups its listener
  /// CLOEXEC-free (DetachListener), execs the new binary, and connections
  /// queued in the listen backlog ride through the swap. -1 disables.
  int inherit_listen_fd = -1;
  SessionManagerOptions session;
  CostModelParams cost_params;
};

/// Server-level counters (session counters live in SessionManagerStats).
struct NavServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_shed = 0;
  int64_t connections_open = 0;
  int64_t connections_idle_closed = 0;
  int64_t requests = 0;
  int64_t protocol_errors = 0;
  int64_t oversized_frames = 0;
  int64_t epoll_wakeups = 0;
  /// Wire bytes received/sent across all connections (both protocols).
  int64_t bytes_rx = 0;
  int64_t bytes_tx = 0;
  SessionManagerStats sessions;
};

/// The navigation service of the paper's Section VII deployment, serving
/// the wire protocol of server/protocol.h over TCP — rebuilt as an
/// event-driven reactor so "heavy traffic from millions of users" is a
/// connection-count problem, not a thread-count problem. Each connection
/// negotiates its encoding on its first bytes: the "BNV2" preamble selects
/// length-prefixed binary v2; everything else stays line-delimited JSON v1,
/// so one server concurrently serves a mixed fleet. Hot responses
/// (cache-hit QUERY, first EXPAND/SHOWRESULTS of an intact component) are
/// served from pre-rendered templates on the shared QueryArtifacts — one
/// serialization per (request shape, encoding), then writev of {owned
/// header, shared body} for every later session.
///
/// Connections are served by a ConnectionReactor (accept and admission,
/// negotiation, pipelining in arrival order, backpressure, idle reaping and
/// drain; see connection_reactor.h). Decoded frames run on the compute
/// ThreadPool and complete back on their connection's loop. Requests that
/// cannot stall the loop (parse errors, cache-hit QUERYs) execute inline on
/// the reactor when the connection has no backlog, skipping the pool
/// round-trip's two scheduler handoffs on the warm interactive path.
///
/// Shutdown is graceful: the listener closes, already-decoded requests
/// complete, frames buffered but not yet dispatched are answered
/// SHUTTING_DOWN, and write queues are flushed under drain_deadline_ms
/// before fds close.
class NavServer {
 public:
  /// The hierarchy/eutils substrate must outlive the server. The strategy
  /// factory is shared by all sessions (BioNav policy by default).
  NavServer(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
            StrategyFactory strategy_factory = nullptr,
            NavServerOptions options = NavServerOptions());

  NavServer(const NavServer&) = delete;
  NavServer& operator=(const NavServer&) = delete;

  /// Binds, listens, and starts the reactor threads. IOError on failure.
  Status Start();

  /// Bound TCP port (valid after a successful Start).
  int port() const { return reactor_.port(); }

  /// Graceful shutdown; idempotent, also run by the destructor.
  void Shutdown();

  /// Warm-restart support: dups the listening socket WITHOUT close-on-exec
  /// and returns the new fd (-1 if not listening). The dup keeps the
  /// kernel's listen backlog alive across Shutdown + exec — clients
  /// connecting during the swap queue there instead of seeing RST. Call
  /// before Shutdown, pass the fd to the next binary via
  /// --inherit-listen-fd.
  int DetachListener();

  ~NavServer();

  NavServerStats stats() const;
  SessionManager& session_manager() { return sessions_; }

 private:
  using ConnPtr = ConnectionReactor::ConnPtr;

  /// Arms (and re-arms) the periodic idle-spill sweep on loop 0. The sweep
  /// body runs on the compute pool — disk writes never block the reactor.
  void ArmSpillSweep();
  /// The reactor's frame handler. With no pipeline backlog, a request that
  /// cannot stall the loop (parse error, or a QUERY whose artifacts are
  /// already cached) executes inline on the loop thread; everything else
  /// goes to the pool and completes back on the connection's loop.
  void OnFrame(const ConnPtr& conn, uint64_t seq, std::string& payload);
  /// True when a parsed request may execute inline on the reactor thread
  /// without risking a loop stall: a QUERY whose artifacts the cache
  /// already holds built. (Parse failures are always inline-safe — their
  /// reply is a constant error frame — and are handled before this check.)
  bool FastPathEligible(const RequestView& request) const;

  /// Executes one request frame (parse + dispatch) in the connection's
  /// encoding, returns the finished response frame. Runs on a pool thread
  /// or inline on a reactor thread; everything it touches is thread-safe.
  WireFrame HandleFrame(WireProto proto, const std::string& payload);
  /// Dispatches an already-parsed request (the inline fast path parses on
  /// the loop thread and must not pay for a second parse).
  WireFrame HandleRequest(const RequestView& request, WireProto proto);
  WireFrame HandleParseError(WireProto proto, WireError error,
                             const std::string& message);

  WireFrame HandleQuery(const RequestView& request, WireProto proto);
  WireFrame HandleExpand(const RequestView& request, WireProto proto);
  WireFrame HandleShowResults(const RequestView& request, WireProto proto);
  WireFrame HandleBacktrack(const RequestView& request, WireProto proto);
  WireFrame HandleBatchExpand(const RequestView& request, WireProto proto);
  WireFrame HandleFind(const RequestView& request, WireProto proto);
  WireFrame HandleView(const RequestView& request, WireProto proto);
  WireFrame HandleClose(const RequestView& request, WireProto proto);
  WireFrame HandleStats(const RequestView& request, WireProto proto);
  WireFrame HandleMetrics(const RequestView& request, WireProto proto);
  /// Owner-side artifact export: serializes the key's bundle (building it
  /// inside the cache's singleflight on a miss) into a base64 "artifact"
  /// field. Peer shards call this; it never recurses into a peer fetch.
  WireFrame HandleFetchArtifact(const RequestView& request, WireProto proto);
  /// Bare backends hold no shard map; the routing tier answers TOPOLOGY.
  WireFrame HandleTopology(const RequestView& request, WireProto proto);

  NavServerOptions options_;
  SessionManager sessions_;
  ThreadPool pool_;
  /// One idle-spill sweep at a time; a slow disk must not pile up sweeps.
  std::atomic<bool> spill_sweep_inflight_{false};
  std::mutex shutdown_mu_;  // Serializes Shutdown (idempotence).
  /// Declared last: destroyed first, after Shutdown joined its loops.
  ConnectionReactor reactor_;
};

}  // namespace bionav

#endif  // BIONAV_SERVER_NAV_SERVER_H_
