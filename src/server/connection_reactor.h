#ifndef BIONAV_SERVER_CONNECTION_REACTOR_H_
#define BIONAV_SERVER_CONNECTION_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/event_loop.h"

namespace bionav {

/// Settings of the downstream connection layer; NavServer and NavRouter
/// fill it from their own options (see NavServerOptions for each knob).
struct ConnectionReactorOptions {
  /// The owner, "server" or "router". Names the metric series
  /// (bionav_<role>_*) and the refusals ("<role> is draining").
  std::string role = "server";
  std::string bind_address = "127.0.0.1";
  int port = 0;
  /// Adopt this already-listening fd instead of binding (warm restart).
  int inherit_listen_fd = -1;
  int io_threads = 1;
  int max_connections = 4096;
  int max_inflight_per_connection = 64;
  size_t max_write_queue_bytes = 4 << 20;
  size_t max_frame_bytes = LineFrameDecoder::kDefaultMaxFrameBytes;
  int64_t idle_timeout_ms = 5 * 60 * 1000;
};

struct ConnectionReactorStats {
  int64_t connections_accepted = 0;
  int64_t connections_shed = 0;
  int64_t connections_open = 0;
  int64_t connections_idle_closed = 0;
  int64_t requests = 0;
  int64_t protocol_errors = 0;
  int64_t oversized_frames = 0;
  int64_t epoll_wakeups = 0;
  int64_t bytes_rx = 0;
  int64_t bytes_tx = 0;
};

/// The event-driven connection layer shared by NavServer and NavRouter:
/// everything between the listen socket and one decoded request frame, and
/// between one finished response and the wire.
///
/// `io_threads` EventLoops own the non-blocking sockets. The listener lives
/// on loop 0; accepted connections spread round-robin and stay pinned to
/// their loop, so all per-connection state is loop-thread-only and the hot
/// path takes no locks. Past max_connections the accept path sheds with a
/// JSON RETRY_LATER line.
///
/// Each connection negotiates its encoding on its first bytes: the "BNV2"
/// preamble selects length-prefixed binary v2; anything else (a JSON line
/// always starts with '{') stays line-delimited JSON v1. Other 'B'-led
/// preambles, oversized frames and broken binary framing are answered with
/// a typed BAD_REQUEST in sequence, then the connection drains and closes.
///
/// Every decoded frame is numbered and handed to the owner's FrameHandler;
/// the owner answers it — inline or from another thread via RunInLoop —
/// with Complete(conn, seq, response) on the connection's loop. Responses
/// are released in request arrival order (an in-order completion skips the
/// reorder map) and coalesced into one iovec sendmsg per flush, shared
/// template bodies by reference.
///
/// Backpressure: reading a connection pauses while its in-flight count or
/// queued write bytes exceed their caps, and resumes as responses drain.
/// Connections quiet for idle_timeout_ms are reaped by the timer wheel.
///
/// Shutdown runs in phases the owner calls in turn, doing its own teardown
/// in between: StopAccepting, DrainConnections (in-flight requests finish,
/// buffered frames answer SHUTTING_DOWN), AwaitClosed (bounded wait, then
/// force-close), StopLoops.
class ConnectionReactor {
 public:
  /// Per-connection state. Owners read `id`, `loop_index`, `proto` and
  /// `inflight` on the loop thread; every other field is the reactor's.
  struct Connection {
    explicit Connection(size_t max_frame_bytes)
        : decoder(max_frame_bytes), bdecoder(max_frame_bytes) {}

    /// Admission ordinal: stable affinity for owners (upstream slots).
    uint64_t id = 0;
    int fd = -1;
    size_t loop_index = 0;
    /// Wire encoding. Until decided, bytes accumulate in `preamble` (at
    /// most 4) and neither decoder is fed.
    WireProto proto = WireProto::kJson;
    bool proto_decided = false;
    /// First bytes were 'B'-led but not the preamble.
    bool preamble_error = false;
    std::string preamble;
    LineFrameDecoder decoder;     // JSON framing.
    BinaryFrameDecoder bdecoder;  // Binary framing.
    /// Responses released in order; the front may be partially written.
    std::deque<WireFrame> write_queue;
    size_t write_offset = 0;
    size_t write_queue_bytes = 0;
    /// Requests are numbered on decode; out-of-order completions park in
    /// `completed` until every earlier one has been released.
    uint64_t next_dispatch_seq = 0;
    uint64_t next_release_seq = 0;
    std::map<uint64_t, WireFrame> completed;
    int inflight = 0;
    bool reading = true;       // kReadable currently in the interest set.
    bool want_write = false;   // kWritable currently in the interest set.
    bool dispatching = false;  // DispatchFrames re-entrancy guard.
    bool draining = false;     // No new dispatches (error, shutdown).
    bool close_after_flush = false;
    bool closed = false;
    int64_t last_activity_ms = 0;
    TimerId idle_timer = kInvalidTimer;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// Called as (conn, seq, payload) on the loop thread for one decoded,
  /// numbered, in-flight request frame. The owner must answer it with
  /// Complete(conn, seq, ...) on the same loop, now or later; it may move
  /// from the payload.
  using FrameHandler =
      std::function<void(const ConnPtr&, uint64_t, std::string&)>;

  ConnectionReactor(ConnectionReactorOptions options, FrameHandler on_frame);

  ConnectionReactor(const ConnectionReactor&) = delete;
  ConnectionReactor& operator=(const ConnectionReactor&) = delete;

  /// Stops and joins the loops if the owner has not.
  ~ConnectionReactor();

  /// Binds (or adopts the inherited fd), listens, and starts the loops.
  Status Start();

  int port() const { return port_; }

  /// Dups the listening socket without close-on-exec (warm restart); -1
  /// if not listening.
  int DetachListener();

  size_t num_loops() const { return loops_.size(); }
  EventLoop& loop(size_t index) { return *loops_[index]; }

  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  /// Loop thread: files a finished response under its sequence number,
  /// releases every in-order response, flushes, and pulls more frames.
  void Complete(const ConnPtr& conn, uint64_t seq, WireFrame response);

  /// Request accounting for frames the owner answers (thread-safe). Frames
  /// the reactor answers itself are counted here already.
  void CountRequest();
  void CountProtocolError();

  /// Counters; also refreshes the pull-based epoll_wakeups gauge.
  ConnectionReactorStats stats() const;

  // --- Shutdown phases, in order ---
  /// Refuses new connections and closes the listener. False when the
  /// reactor never started or shutdown already began.
  bool StopAccepting();
  /// Every connection drains: no more reads, buffered frames answer
  /// SHUTTING_DOWN, close once the write queue flushes.
  void DrainConnections();
  /// Waits up to `deadline_ms` for every connection to close, then
  /// force-closes the stragglers (peers that never drain their window).
  void AwaitClosed(int64_t deadline_ms);
  /// Stops and joins the loops; functions queued before it still run.
  void StopLoops();

 private:
  /// Closes the listener and returns `status` (Start's failure exits).
  Status FailStart(Status status);
  void OnAcceptable();
  void AdmitConnection(int fd);
  /// Best-effort JSON line on a socket about to close: a fresh socket's
  /// buffer swallows it, and a binary client reads '{' as the fallback.
  void RefuseConnection(int fd, WireError error, const std::string& message);
  void ReleaseOpenSlot();
  void OnConnectionEvent(const ConnPtr& conn, uint32_t events);
  void ReadConnection(const ConnPtr& conn);
  /// Routes received bytes through negotiation into the active decoder.
  /// False once the stream is unrecoverable.
  bool FeedConnection(const ConnPtr& conn, std::string_view data);
  bool HasBufferedFrame(const ConnPtr& conn) const;
  bool NextBufferedFrame(const ConnPtr& conn, std::string* payload);
  bool DecoderBroken(const ConnPtr& conn) const;
  /// Answers a framing error in sequence, then drains and closes.
  void FailStream(const ConnPtr& conn, WireProto proto,
                  const std::string& message);
  void DispatchFrames(const ConnPtr& conn);
  void FlushWrites(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn);
  void ArmIdleTimer(const ConnPtr& conn);
  void CloseConnection(const ConnPtr& conn);
  void DrainConnection(const ConnPtr& conn);
  /// Runs `fn` on every live connection of every loop (loop threads).
  void ForEachConnection(void (ConnectionReactor::*fn)(const ConnPtr&));
  void WaitForNoConnections(int64_t deadline_ms);

  ConnectionReactorOptions options_;
  FrameHandler on_frame_;
  const std::string draining_message_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> io_threads_;
  /// Connections owned by each loop (loop-thread-only; indexed by loop).
  std::vector<std::unordered_map<int, ConnPtr>> loop_conns_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<uint64_t> next_conn_id_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> shutting_down_{false};
  /// Signaled as connections close; AwaitClosed waits on it.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_shed_{0};
  std::atomic<int64_t> connections_open_{0};
  std::atomic<int64_t> connections_idle_closed_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> oversized_frames_{0};
  std::atomic<int64_t> bytes_rx_{0};
  std::atomic<int64_t> bytes_tx_{0};

  // bionav_<role>_* series in the process-wide registry.
  Counter* accepted_total_;
  Counter* shed_total_;
  Counter* requests_total_;
  Counter* protocol_errors_total_;
  Counter* bytes_rx_total_;
  Counter* bytes_tx_total_;
  Gauge* open_connections_;
  Gauge* write_queue_bytes_;
  Gauge* epoll_wakeups_;
  LatencyHistogram* flush_batch_;
};

}  // namespace bionav

#endif  // BIONAV_SERVER_CONNECTION_REACTOR_H_
