#include "server/nav_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json_export.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace bionav {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-effort one-line reply on a socket about to be closed (accept-path
/// shedding). The socket buffer of a fresh connection swallows a short
/// line, so a single non-blocking send suffices. Shed replies are always
/// JSON: they may fire before the peer's first byte decides its protocol,
/// and a binary client recognizes the '{' as the JSON fallback signal.
void SendLineBestEffort(int fd, std::string line) {
  line.push_back('\n');
  [[maybe_unused]] ssize_t n =
      ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

/// iovec segments per sendmsg. Each queued frame spends at most two (owned
/// head + shared template body), so one flush coalesces up to 32 responses.
constexpr size_t kMaxIov = 64;

Gauge* OpenConnectionsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_server_open_connections", "Connections currently open");
  return gauge;
}

Gauge* WriteQueueBytesGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_server_write_queue_bytes",
      "Total response bytes queued across connections");
  return gauge;
}

Gauge* EpollWakeupsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_server_epoll_wakeups", "Reactor epoll_wait returns (monotone)");
  return gauge;
}

Counter* RxBytesCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_server_bytes_rx_total", "Request bytes read from client sockets");
  return counter;
}

Counter* TxBytesCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_server_bytes_tx_total",
      "Response bytes written to client sockets");
  return counter;
}

LatencyHistogram* FlushBatchHistogram() {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_server_flush_batch", "Response frames coalesced per sendmsg");
  return hist;
}

LatencyHistogram* ReadToDispatchHistogram() {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_server_read_to_dispatch_us",
      "Frame decode to compute pickup latency");
  return hist;
}

/// Request latency by wire op — the serving-side counterpart of the
/// client-observed numbers bench_serving reports. Registered once per op.
LatencyHistogram* OpLatencyHistogram(RequestOp op) {
  static LatencyHistogram* hists[] = {
      GlobalMetrics().GetHistogram("bionav_server_op_query_us",
                                   "QUERY request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_expand_us",
                                   "EXPAND request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_showresults_us",
                                   "SHOWRESULTS request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_backtrack_us",
                                   "BACKTRACK request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_find_us",
                                   "FIND request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_view_us",
                                   "VIEW request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_close_us",
                                   "CLOSE request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_stats_us",
                                   "STATS request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_metrics_us",
                                   "METRICS request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_batch_expand_us",
                                   "BATCH_EXPAND request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_fetch_artifact_us",
                                   "FETCH_ARTIFACT request latency"),
      GlobalMetrics().GetHistogram("bionav_server_op_topology_us",
                                   "TOPOLOGY request latency"),
  };
  static_assert(sizeof(hists) / sizeof(hists[0]) ==
                    static_cast<size_t>(RequestOp::kTopology) + 1,
                "one histogram per wire op");
  return hists[static_cast<size_t>(op)];
}

}  // namespace

NavServer::NavServer(const ConceptHierarchy* hierarchy,
                     const EUtilsClient* eutils,
                     StrategyFactory strategy_factory, NavServerOptions options)
    : options_(std::move(options)),
      sessions_(hierarchy, eutils,
                strategy_factory ? std::move(strategy_factory)
                                 : MakeBioNavStrategyFactory(),
                options_.session, options_.cost_params),
      pool_(options_.threads < 1 ? 1 : options_.threads) {
  if (options_.io_threads < 1) options_.io_threads = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_inflight_per_connection < 1) {
    options_.max_inflight_per_connection = 1;
  }
  if (options_.max_write_queue_bytes < 4096) {
    options_.max_write_queue_bytes = 4096;
  }
}

Status NavServer::Start() {
  BIONAV_CHECK(!started_.load()) << "NavServer started twice";

  sockaddr_in addr{};
  if (options_.inherit_listen_fd >= 0) {
    // Warm restart: the predecessor's listener, already bound and
    // listening, arrives across exec. Re-assert the flags Start would have
    // set (the dup dropped CLOEXEC deliberately; NONBLOCK is shared but
    // cheap to enforce) and read the port back off the socket.
    listen_fd_ = options_.inherit_listen_fd;
    int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
      Status status = Status::IOError(
          std::string("inherited listener unusable: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    ::fcntl(listen_fd_, F_SETFD, FD_CLOEXEC);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("bad bind address '" +
                                     options_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status =
          Status::IOError(std::string("bind: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    if (::listen(listen_fd_, 512) != 0) {
      Status status =
          Status::IOError(std::string("listen: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  loops_.clear();
  loop_conns_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  loop_conns_.resize(loops_.size());

  // Pre-Run registration is safe: no loop thread is running yet. The
  // listener lives on loop 0; accepted fds are spread round-robin.
  Status added = loops_[0]->Add(listen_fd_, EventLoop::kReadable,
                                [this](uint32_t) { OnAcceptable(); });
  if (!added.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return added;
  }

  // The idle-spill sweep also registers pre-Run (same safety argument).
  if (sessions_.spill_enabled() && options_.session.spill_after_ms > 0) {
    ArmSpillSweep();
  }

  started_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    io_threads_.emplace_back([this, i] { IoThreadMain(i); });
  }
  return Status::OK();
}

void NavServer::IoThreadMain(size_t loop_index) {
  loops_[loop_index]->Run();
}

void NavServer::ArmSpillSweep() {
  // Runs on loop 0 (or before the loops start). Re-arms itself each tick;
  // the chain dies with the loop on Shutdown. Sweeping at a quarter of the
  // idle threshold keeps the worst-case overshoot at ~25%.
  const int64_t period =
      std::max<int64_t>(options_.session.spill_after_ms / 4, 50);
  loops_[0]->AddTimer(period, [this] {
    if (shutting_down_.load(std::memory_order_acquire)) return;
    if (!spill_sweep_inflight_.exchange(true)) {
      pool_.Submit([this] {
        sessions_.SpillIdle();
        spill_sweep_inflight_.store(false);
      });
    }
    ArmSpillSweep();
  });
}

int NavServer::DetachListener() {
  if (!started_.load() || listen_fd_ < 0) return -1;
  // F_DUPFD (not F_DUPFD_CLOEXEC): the whole point is surviving exec.
  return ::fcntl(listen_fd_, F_DUPFD, 3);
}

void NavServer::OnAcceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    static Counter* accepted = GlobalMetrics().GetCounter(
        "bionav_server_connections_accepted_total", "Connections accepted");
    accepted->Increment();
    if (shutting_down_.load(std::memory_order_acquire)) {
      SendLineBestEffort(
          fd, ErrorReply(WireError::kShuttingDown, "server is draining"));
      ::close(fd);
      continue;
    }
    // Admission control at the accept path: past max_connections the
    // connection is shed with RETRY_LATER — the client backs off, the
    // server never builds an unbounded connection table.
    if (connections_open_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Counted before the reply, so a client that has seen RETRY_LATER
      // also sees the shed in STATS.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      static Counter* shed = GlobalMetrics().GetCounter(
          "bionav_server_connections_shed_total",
          "Connections shed by admission control");
      shed->Increment();
      SendLineBestEffort(fd, ErrorReply(WireError::kRetryLater,
                                        "server at capacity, retry later"));
      ::close(fd);
      continue;
    }
    AdmitConnection(fd);
  }
}

void NavServer::AdmitConnection(int fd) {
  // Disable Nagle: responses are small frames written as soon as they are
  // released; coalescing only adds latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  connections_open_.fetch_add(1, std::memory_order_acq_rel);
  OpenConnectionsGauge()->Add(1);

  size_t loop_index =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  ConnPtr conn = std::make_shared<Connection>(options_.max_frame_bytes);
  conn->fd = fd;
  conn->loop_index = loop_index;
  conn->last_activity_ms = SteadyNowMs();

  EventLoop* loop = loops_[loop_index].get();
  loop->RunInLoop([this, loop, conn] {
    if (shutting_down_.load(std::memory_order_acquire)) {
      // Raced with drain: this connection would never be drained by
      // Shutdown's sweep, so refuse it here.
      SendLineBestEffort(conn->fd, ErrorReply(WireError::kShuttingDown,
                                              "server is draining"));
      ::close(conn->fd);
      conn->closed = true;
      connections_open_.fetch_sub(1, std::memory_order_acq_rel);
      OpenConnectionsGauge()->Add(-1);
      drain_cv_.notify_all();
      return;
    }
    loop_conns_[conn->loop_index].emplace(conn->fd, conn);
    Status added =
        loop->Add(conn->fd, EventLoop::kReadable,
                  [this, conn](uint32_t events) {
                    OnConnectionEvent(conn, events);
                  });
    if (!added.ok()) {
      loop_conns_[conn->loop_index].erase(conn->fd);
      ::close(conn->fd);
      conn->closed = true;
      connections_open_.fetch_sub(1, std::memory_order_acq_rel);
      OpenConnectionsGauge()->Add(-1);
      drain_cv_.notify_all();
      return;
    }
    ArmIdleTimer(conn);
  });
}

void NavServer::OnConnectionEvent(const ConnPtr& conn, uint32_t events) {
  if (conn->closed) return;
  if (events & EventLoop::kError) {
    CloseConnection(conn);
    return;
  }
  if (events & EventLoop::kWritable) FlushWrites(conn);
  if (conn->closed) return;
  if (events & EventLoop::kReadable) ReadConnection(conn);
}

bool NavServer::FeedConnection(const ConnPtr& conn, std::string_view data) {
  if (!conn->proto_decided) {
    conn->preamble.append(data.data(), data.size());
    if (conn->preamble.empty()) return true;
    if (conn->preamble[0] != kBinaryPreamble[0]) {
      // A JSON request line always starts with '{': the connection is v1.
      // Replay everything buffered so far into the line decoder.
      conn->proto = WireProto::kJson;
      conn->proto_decided = true;
      std::string buffered = std::move(conn->preamble);
      conn->preamble.clear();
      return conn->decoder.Feed(buffered);
    }
    if (conn->preamble.size() < sizeof(kBinaryPreamble)) return true;
    if (std::memcmp(conn->preamble.data(), kBinaryPreamble,
                    sizeof(kBinaryPreamble)) != 0) {
      conn->preamble_error = true;
      return false;
    }
    conn->proto = WireProto::kBinary;
    conn->proto_decided = true;
    std::string buffered = std::move(conn->preamble);
    conn->preamble.clear();
    return conn->bdecoder.Feed(
        std::string_view(buffered).substr(sizeof(kBinaryPreamble)));
  }
  return conn->proto == WireProto::kBinary ? conn->bdecoder.Feed(data)
                                           : conn->decoder.Feed(data);
}

bool NavServer::HasBufferedFrame(const ConnPtr& conn) const {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.has_frame()
                                           : conn->decoder.has_frame();
}

bool NavServer::NextBufferedFrame(const ConnPtr& conn, std::string* payload) {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.Next(payload)
                                           : conn->decoder.Next(payload);
}

bool NavServer::DecoderBroken(const ConnPtr& conn) const {
  if (conn->preamble_error) return true;
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.broken()
                                           : conn->decoder.overflowed();
}

void NavServer::ReadConnection(const ConnPtr& conn) {
  // Bounded reads per readiness event so one firehose connection cannot
  // starve its loop siblings; level-triggering redrives the remainder.
  char chunk[16384];
  int64_t received = 0;
  bool peer_eof = false;
  for (int i = 0; i < 4; ++i) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      received += n;
      if (!FeedConnection(conn, std::string_view(chunk,
                                                 static_cast<size_t>(n)))) {
        break;  // Preamble error or broken decoder; handled below.
      }
      // A short read almost always means the buffer is drained — skip the
      // EAGAIN-confirming recv (level-triggering re-fires on the rare
      // refill race, so this trades no correctness for one syscall).
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);  // Reset or hard error: responses are moot.
    return;
  }
  if (received > 0) {
    conn->last_activity_ms = SteadyNowMs();
    bytes_rx_.fetch_add(received, std::memory_order_relaxed);
    RxBytesCounter()->Increment(received);
  }

  DispatchFrames(conn);
  if (conn->closed) return;

  if (conn->preamble_error && !conn->draining) {
    // First bytes were 'B'-led but not "BNV2": the peer speaks neither
    // protocol. Answer in JSON (its encoding is unknowable) and close.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    uint64_t seq = conn->next_dispatch_seq++;
    ++conn->inflight;
    conn->draining = true;
    conn->close_after_flush = true;
    CompleteRequest(conn, seq,
                    WireResponse::Error(WireProto::kJson,
                                        WireError::kBadRequest,
                                        "unrecognized protocol preamble"));
    return;
  }
  if (DecoderBroken(conn) && !conn->draining) {
    // Slow-loris / runaway frame (either framing), or a binary stream that
    // lost sync: answer with a typed error in sequence (after any complete
    // frames that preceded it), then drain and close.
    bool oversized = conn->proto == WireProto::kBinary
                         ? conn->bdecoder.overflowed()
                         : conn->decoder.overflowed();
    if (oversized) oversized_frames_.fetch_add(1, std::memory_order_relaxed);
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    uint64_t seq = conn->next_dispatch_seq++;
    ++conn->inflight;
    conn->draining = true;
    conn->close_after_flush = true;
    std::string message =
        oversized ? "request frame exceeds " +
                        std::to_string(options_.max_frame_bytes) + " bytes"
                  : "malformed binary frame header";
    CompleteRequest(conn, seq,
                    WireResponse::Error(conn->proto, WireError::kBadRequest,
                                        message));
    return;
  }
  if (peer_eof) {
    // Half-close: the client is done sending. Already-buffered pipelined
    // frames still execute and their responses flush before the close. A
    // mid-frame EOF (partial binary frame, unterminated line, or a torn
    // preamble) has no buffered frame and closes cleanly here.
    conn->close_after_flush = true;
    UpdateInterest(conn);
    if (conn->inflight == 0 && conn->write_queue.empty() &&
        !HasBufferedFrame(conn)) {
      CloseConnection(conn);
    }
    return;
  }
  UpdateInterest(conn);
}

void NavServer::DispatchFrames(const ConnPtr& conn) {
  // Re-entrancy guard: an inline completion below calls back into
  // CompleteRequest, whose refill would otherwise recurse here once per
  // buffered frame. The outer invocation's loop drains them instead.
  if (conn->dispatching) return;
  conn->dispatching = true;
  std::string payload;
  while (!conn->closed) {
    if (conn->draining) {
      // Shutdown drain: every queued pipelined request still gets a
      // definite answer instead of silence (no cap — answers are local).
      if (!NextBufferedFrame(conn, &payload)) break;
      if (payload.empty() && conn->proto == WireProto::kJson) continue;
      requests_.fetch_add(1, std::memory_order_relaxed);
      uint64_t seq = conn->next_dispatch_seq++;
      ++conn->inflight;
      CompleteRequest(conn, seq,
                      WireResponse::Error(conn->proto,
                                          WireError::kShuttingDown,
                                          "server is draining"));
      continue;
    }
    if (conn->inflight >= options_.max_inflight_per_connection) break;
    if (!NextBufferedFrame(conn, &payload)) break;
    if (payload.empty() && conn->proto == WireProto::kJson) continue;
    uint64_t seq = conn->next_dispatch_seq++;
    ++conn->inflight;
    // Inline fast path: with no pipeline backlog, a request that cannot
    // stall the loop (parse error, or a QUERY whose artifacts are already
    // cached) executes on the reactor thread itself. That skips both
    // scheduler handoffs of the pool round-trip — on a saturated box they
    // dominate the latency of the warm interactive case the cache exists
    // to serve. With a backlog the parse itself moves to the pool.
    if (conn->inflight == 1) {
      Request request;  // Owned storage for the JSON parse path.
      RequestView view;
      std::string error_message;
      WireError parse_error;
      if (conn->proto == WireProto::kBinary) {
        parse_error = ParseRequestBinary(payload, &view, &error_message);
      } else {
        parse_error = ParseRequest(payload, &request, &error_message);
        if (parse_error == WireError::kNone) view = MakeRequestView(request);
      }
      if (parse_error != WireError::kNone) {
        ReadToDispatchHistogram()->Record(0);
        CompleteRequest(
            conn, seq,
            HandleParseError(conn->proto, parse_error, error_message));
        continue;  // The loop condition re-checks closed.
      }
      if (FastPathEligible(view)) {
        ReadToDispatchHistogram()->Record(0);
        CompleteRequest(conn, seq, HandleRequest(view, conn->proto));
        continue;
      }
    }
    DispatchRequest(conn, seq, std::move(payload));
  }
  conn->dispatching = false;
}

bool NavServer::FastPathEligible(const RequestView& request) const {
  if (request.op != RequestOp::kQuery) return false;
  // Contains() is false for entries still building (singleflight), so an
  // inline Open never waits behind a cold tree build. The probe can go
  // stale (eviction before Open), costing one inline cold build — the
  // race window is microseconds against an LRU/TTL horizon of minutes.
  const QueryArtifactCache* cache = sessions_.cache();
  return cache != nullptr && cache->Contains(NormalizeQueryKey(request.query));
}

void NavServer::DispatchRequest(const ConnPtr& conn, uint64_t seq,
                                std::string payload) {
  EventLoop* loop = loops_[conn->loop_index].get();
  WireProto proto = conn->proto;  // Loop-thread state; read before Submit.
  int64_t decoded_us = SteadyNowUs();
  pool_.Submit([this, loop, conn, seq, proto, decoded_us,
                payload = std::move(payload)]() mutable {
    ReadToDispatchHistogram()->Record(SteadyNowUs() - decoded_us);
    WireFrame response = HandleFrame(proto, payload);
    loop->RunInLoop([this, conn, seq,
                     response = std::move(response)]() mutable {
      CompleteRequest(conn, seq, std::move(response));
    });
  });
}

void NavServer::CompleteRequest(const ConnPtr& conn, uint64_t seq,
                                WireFrame response) {
  if (conn->closed) return;  // Completion raced with a reset/force-close.
  --conn->inflight;
  if (seq == conn->next_release_seq && conn->completed.empty()) {
    // In-order completion — the only case on the inline fast path and the
    // common one under pipelining — skips the reorder map and its per-node
    // allocation.
    size_t bytes = response.size();
    conn->write_queue_bytes += bytes;
    WriteQueueBytesGauge()->Add(static_cast<int64_t>(bytes));
    conn->write_queue.push_back(std::move(response));
    ++conn->next_release_seq;
  } else {
    conn->completed.emplace(seq, std::move(response));
    // Release every response whose predecessors are all out: pipelined
    // responses hit the wire in request arrival order, whatever order the
    // pool finished them in.
    while (!conn->completed.empty() &&
           conn->completed.begin()->first == conn->next_release_seq) {
      WireFrame& ready = conn->completed.begin()->second;
      size_t bytes = ready.size();
      conn->write_queue_bytes += bytes;
      WriteQueueBytesGauge()->Add(static_cast<int64_t>(bytes));
      conn->write_queue.push_back(std::move(ready));
      conn->completed.erase(conn->completed.begin());
      ++conn->next_release_seq;
    }
  }
  FlushWrites(conn);
  if (conn->closed) return;
  // Capacity freed (inflight slot and possibly queue bytes): pull more
  // buffered frames, then recompute read interest.
  if (HasBufferedFrame(conn)) DispatchFrames(conn);
  if (!conn->closed) UpdateInterest(conn);
}

void NavServer::FlushWrites(const ConnPtr& conn) {
  while (!conn->write_queue.empty()) {
    // Coalesce the ready responses into one sendmsg. Template-served
    // responses contribute their shared body segment by reference — the
    // kernel reads the cached bytes in place, no copy, no re-render.
    iovec iov[kMaxIov];
    size_t iov_count = 0;
    size_t batch_bytes = 0;
    int64_t frames = 0;
    size_t skip = conn->write_offset;  // Partially-written front frame.
    for (const WireFrame& frame : conn->write_queue) {
      if (iov_count + 2 > kMaxIov) break;
      if (skip < frame.head.size()) {
        iov[iov_count].iov_base =
            const_cast<char*>(frame.head.data()) + skip;
        iov[iov_count].iov_len = frame.head.size() - skip;
        batch_bytes += iov[iov_count].iov_len;
        ++iov_count;
        skip = 0;
      } else {
        skip -= frame.head.size();
      }
      if (frame.body != nullptr) {
        if (skip < frame.body->size()) {
          iov[iov_count].iov_base =
              const_cast<char*>(frame.body->data()) + skip;
          iov[iov_count].iov_len = frame.body->size() - skip;
          batch_bytes += iov[iov_count].iov_len;
          ++iov_count;
          skip = 0;
        } else {
          skip -= frame.body->size();
        }
      }
      ++frames;
    }
    if (iov_count == 0) break;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);  // Peer gone; drop the queue.
      return;
    }
    FlushBatchHistogram()->Record(frames);
    bytes_tx_.fetch_add(n, std::memory_order_relaxed);
    TxBytesCounter()->Increment(n);
    conn->write_queue_bytes -= static_cast<size_t>(n);
    WriteQueueBytesGauge()->Add(-static_cast<int64_t>(n));
    conn->write_offset += static_cast<size_t>(n);
    while (!conn->write_queue.empty() &&
           conn->write_offset >= conn->write_queue.front().size()) {
      conn->write_offset -= conn->write_queue.front().size();
      conn->write_queue.pop_front();
    }
    if (static_cast<size_t>(n) < batch_bytes) break;  // Socket buffer full.
  }
  UpdateInterest(conn);
  if (conn->close_after_flush && conn->inflight == 0 &&
      conn->write_queue.empty() && conn->completed.empty() &&
      !HasBufferedFrame(conn)) {
    CloseConnection(conn);
  }
}

void NavServer::UpdateInterest(const ConnPtr& conn) {
  if (conn->closed) return;
  bool want_read = !conn->draining && !conn->close_after_flush &&
                   !DecoderBroken(conn) &&
                   conn->inflight < options_.max_inflight_per_connection &&
                   conn->write_queue_bytes < options_.max_write_queue_bytes;
  bool want_write = !conn->write_queue.empty();
  if (want_read == conn->reading && want_write == conn->want_write) return;
  uint32_t events = (want_read ? EventLoop::kReadable : 0) |
                    (want_write ? EventLoop::kWritable : 0);
  loops_[conn->loop_index]->Modify(conn->fd, events);
  conn->reading = want_read;
  conn->want_write = want_write;
}

void NavServer::ArmIdleTimer(const ConnPtr& conn) {
  if (options_.idle_timeout_ms <= 0 || conn->closed) return;
  int64_t idle = SteadyNowMs() - conn->last_activity_ms;
  int64_t remaining = options_.idle_timeout_ms - idle;
  if (remaining <= 0) {
    // Only reap a connection that is truly quiet — in-flight work or
    // unflushed responses count as activity.
    if (conn->inflight == 0 && conn->write_queue.empty() &&
        conn->completed.empty()) {
      connections_idle_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(conn);
      return;
    }
    remaining = options_.idle_timeout_ms;
  }
  conn->idle_timer = loops_[conn->loop_index]->AddTimer(
      remaining, [this, conn] {
        conn->idle_timer = kInvalidTimer;
        ArmIdleTimer(conn);
      });
}

void NavServer::CloseConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  EventLoop* loop = loops_[conn->loop_index].get();
  if (conn->idle_timer != kInvalidTimer) {
    loop->CancelTimer(conn->idle_timer);
    conn->idle_timer = kInvalidTimer;
  }
  loop->Remove(conn->fd);
  ::close(conn->fd);
  if (conn->write_queue_bytes > 0) {
    WriteQueueBytesGauge()->Add(-static_cast<int64_t>(conn->write_queue_bytes));
    conn->write_queue_bytes = 0;
  }
  loop_conns_[conn->loop_index].erase(conn->fd);
  connections_open_.fetch_sub(1, std::memory_order_acq_rel);
  OpenConnectionsGauge()->Add(-1);
  drain_cv_.notify_all();
}

void NavServer::DrainConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->draining = true;
  conn->close_after_flush = true;
  DispatchFrames(conn);  // Buffered pipelined frames answer SHUTTING_DOWN.
  UpdateInterest(conn);
  if (conn->inflight == 0 && conn->write_queue.empty() &&
      conn->completed.empty()) {
    CloseConnection(conn);
  }
}

WireFrame NavServer::HandleFrame(WireProto proto, const std::string& payload) {
  if (proto == WireProto::kBinary) {
    // Arena decode: the view's string fields point into `payload`, which
    // outlives the whole handler call.
    RequestView view;
    std::string error_message;
    WireError error = ParseRequestBinary(payload, &view, &error_message);
    if (error != WireError::kNone) {
      return HandleParseError(proto, error, error_message);
    }
    return HandleRequest(view, proto);
  }
  Request request;
  std::string error_message;
  WireError error = ParseRequest(payload, &request, &error_message);
  if (error != WireError::kNone) {
    return HandleParseError(proto, error, error_message);
  }
  return HandleRequest(MakeRequestView(request), proto);
}

WireFrame NavServer::HandleParseError(WireProto proto, WireError error,
                                      const std::string& message) {
  CountRequest();
  static Counter* errors = GlobalMetrics().GetCounter(
      "bionav_server_protocol_errors_total",
      "Request frames rejected before dispatch");
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  errors->Increment();
  return WireResponse::Error(proto, error, message);
}

void NavServer::CountRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  static Counter* requests = GlobalMetrics().GetCounter(
      "bionav_server_requests_total", "Request frames received");
  requests->Increment();
}

WireFrame NavServer::HandleRequest(const RequestView& request,
                                   WireProto proto) {
  CountRequest();
  TraceSpan span("server_op", OpLatencyHistogram(request.op));
  switch (request.op) {
    case RequestOp::kQuery: return HandleQuery(request, proto);
    case RequestOp::kExpand: return HandleExpand(request, proto);
    case RequestOp::kShowResults: return HandleShowResults(request, proto);
    case RequestOp::kBacktrack: return HandleBacktrack(request, proto);
    case RequestOp::kFind: return HandleFind(request, proto);
    case RequestOp::kView: return HandleView(request, proto);
    case RequestOp::kClose: return HandleClose(request, proto);
    case RequestOp::kStats: return HandleStats(request, proto);
    case RequestOp::kMetrics: return HandleMetrics(request, proto);
    case RequestOp::kBatchExpand: return HandleBatchExpand(request, proto);
    case RequestOp::kFetchArtifact:
      return HandleFetchArtifact(request, proto);
    case RequestOp::kTopology: return HandleTopology(request, proto);
  }
  return WireResponse::Error(proto, WireError::kInternal, "unhandled op");
}

namespace {

/// A SessionManager-level NotFound means the token is not live; op-level
/// statuses pass through with their own codes (see WithSession contract).
WireFrame SessionErrorFrame(WireProto proto, const Status& status) {
  if (status.code() == StatusCode::kNotFound) {
    return WireResponse::Error(proto, WireError::kUnknownSession,
                               status.message());
  }
  return WireResponse::Error(proto, WireErrorFromStatus(status),
                             status.message());
}

}  // namespace

WireFrame NavServer::HandleQuery(const RequestView& request, WireProto proto) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return WireResponse::Error(proto, WireError::kShuttingDown,
                               "server is draining");
  }
  Result<SessionManager::CreateInfo> info =
      sessions_.CreateSession(std::string(request.query));
  if (!info.ok()) {
    return WireResponse::Error(proto, WireErrorFromStatus(info.status()),
                               info.status().message());
  }
  const SessionManager::CreateInfo& created = info.ValueOrDie();
  WireResponse response(proto, RequestOp::kQuery);
  response.AddString(WireField::kToken, created.token);
  if (created.cache_hit && created.artifacts != nullptr) {
    // Warm path: every session of a cached query answers with the same
    // (result_size, cached:true) suffix — rendered once per encoding on
    // the shared bundle, then served by reference forever after.
    std::shared_ptr<const std::string> payload =
        created.artifacts->templates.GetOrRender(
            "Q", static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddUInt(WireField::kResultSize, created.result_size)
                  .AddBool(WireField::kCached, true)
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddUInt(WireField::kResultSize, created.result_size)
      .AddBool(WireField::kCached, created.cache_hit)
      .Finish();
}

WireFrame NavServer::HandleExpand(const RequestView& request,
                                  WireProto proto) {
  std::vector<NavNodeId> revealed;
  std::shared_ptr<const QueryArtifacts> artifacts;
  std::string template_key;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        // Template eligibility must be probed before Expand mutates the
        // active tree: expanding a *visible* node whose component was
        // never split reveals a node set that is a pure function of the
        // frozen artifacts (tree + cost model + shared strategy), so the
        // serialized reply is identical across sessions and cacheable.
        bool eligible = false;
        if (request.node >= 0 &&
            static_cast<size_t>(request.node) <
                session.navigation_tree().size()) {
          const ActiveTree& active = session.active_tree();
          if (active.IsVisible(request.node)) {
            eligible =
                active.ComponentIsIntact(active.ComponentOf(request.node));
          }
        }
        Result<std::vector<NavNodeId>> r = session.Expand(request.node);
        if (!r.ok()) return r.status();
        revealed = r.TakeValue();
        if (eligible) {
          artifacts = session.artifacts();
          template_key = "E|" + std::to_string(request.node);
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  WireResponse response(proto, RequestOp::kExpand);
  if (artifacts != nullptr) {
    std::shared_ptr<const std::string> payload =
        artifacts->templates.GetOrRender(
            template_key, static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddIntList(WireField::kRevealed, revealed)
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddIntList(WireField::kRevealed, revealed).Finish();
}

WireFrame NavServer::HandleBatchExpand(const RequestView& request,
                                       WireProto proto) {
  // Applies the cuts sequentially inside one session lock acquisition —
  // exactly what a client issuing the EXPANDs one by one would get, minus
  // the round trips. Per-node failures do not abort the batch: later nodes
  // may be independent components, and the per-node outcomes report what
  // happened. Each applied cut appends its own ExpandRecord, so snapshots
  // and replay see a BATCH_EXPAND exactly as the equivalent EXPAND chain.
  std::vector<NavNodeId> combined;
  std::string outcomes = "[";
  uint64_t applied = 0;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        for (size_t i = 0; i < request.nodes.size(); ++i) {
          NavNodeId node = request.nodes[i];
          if (i != 0) outcomes.push_back(',');
          Result<std::vector<NavNodeId>> r = session.Expand(node);
          if (r.ok()) {
            ++applied;
            const std::vector<NavNodeId>& revealed = r.ValueOrDie();
            // A revealed node stays visible for the rest of the batch, so
            // the concatenation is exactly the frontier the batch added —
            // no deduplication needed.
            outcomes += "{\"node\":" + std::to_string(node) +
                        ",\"ok\":true,\"revealed\":[";
            for (size_t k = 0; k < revealed.size(); ++k) {
              if (k != 0) outcomes.push_back(',');
              outcomes += std::to_string(revealed[k]);
            }
            outcomes += "]}";
            combined.insert(combined.end(), revealed.begin(), revealed.end());
          } else {
            outcomes += "{\"node\":" + std::to_string(node) +
                        ",\"ok\":false,\"error\":\"" +
                        WireErrorName(WireErrorFromStatus(r.status())) +
                        "\",\"message\":\"" +
                        JsonEscape(r.status().message()) + "\"}";
          }
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  outcomes.push_back(']');
  return WireResponse(proto, RequestOp::kBatchExpand)
      .AddUInt(WireField::kExpanded, applied)
      .AddIntList(WireField::kRevealed, combined)
      .AddRawJson(WireField::kResults, outcomes)
      .Finish();
}

WireFrame NavServer::HandleShowResults(const RequestView& request,
                                       WireProto proto) {
  std::vector<CitationSummary> summaries;
  std::shared_ptr<const QueryArtifacts> artifacts;
  std::string template_key;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        Result<std::vector<CitationSummary>> r = session.ShowResults(
            request.node, request.retstart, request.retmax);
        if (!r.ok()) return r.status();
        summaries = r.TakeValue();
        // Same intact-component gate as EXPAND: the citations attached
        // under a visible, never-split component are exactly its frozen
        // navigation subtree's, and their ranking depends only on the
        // session query — which therefore joins the template key.
        if (request.node >= 0 &&
            static_cast<size_t>(request.node) <
                session.navigation_tree().size()) {
          const ActiveTree& active = session.active_tree();
          if (active.IsVisible(request.node) &&
              active.ComponentIsIntact(active.ComponentOf(request.node))) {
            artifacts = session.artifacts();
            template_key = "S|" + std::to_string(request.node) + "|" +
                           std::to_string(request.retstart) + "|" +
                           std::to_string(request.retmax) + "|" +
                           session.query();
          }
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  WireResponse response(proto, RequestOp::kShowResults);
  if (artifacts != nullptr) {
    std::shared_ptr<const std::string> payload =
        artifacts->templates.GetOrRender(
            template_key, static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddUInt(WireField::kTotal, summaries.size())
                  .AddRawJson(WireField::kSummaries,
                              SummariesToJson(summaries))
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddUInt(WireField::kTotal, summaries.size())
      .AddRawJson(WireField::kSummaries, SummariesToJson(summaries))
      .Finish();
}

WireFrame NavServer::HandleBacktrack(const RequestView& request,
                                     WireProto proto) {
  bool undone = false;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        undone = session.Backtrack();
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kBacktrack)
      .AddBool(WireField::kUndone, undone)
      .Finish();
}

WireFrame NavServer::HandleFind(const RequestView& request, WireProto proto) {
  bool found = false, visible = false;
  NavNodeId node = kInvalidNavNode, root = kInvalidNavNode;
  int distinct = 0;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        const NavigationTree& nav = session.navigation_tree();
        node = nav.NodeOfConcept(request.concept_id);
        if (node == kInvalidNavNode) return Status::OK();
        found = true;
        const ActiveTree& active = session.active_tree();
        int comp = active.ComponentOf(node);
        visible = active.IsVisible(node);
        root = active.ComponentRoot(comp);
        distinct = active.ComponentDistinctCount(comp);
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kFind)
      .AddBool(WireField::kFound, found)
      .AddInt(WireField::kNode, static_cast<int64_t>(node))
      .AddBool(WireField::kVisible, visible)
      .AddInt(WireField::kComponentRoot, static_cast<int64_t>(root))
      .AddInt(WireField::kDistinct, static_cast<int64_t>(distinct))
      .Finish();
}

WireFrame NavServer::HandleView(const RequestView& request, WireProto proto) {
  std::string tree;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        tree = VisualizationToJson(session.active_tree(), session.cost_model(),
                                   request.depth);
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kView)
      .AddRawJson(WireField::kTree, tree)
      .Finish();
}

WireFrame NavServer::HandleClose(const RequestView& request, WireProto proto) {
  bool closed = sessions_.Close(request.token);
  if (!closed) {
    return WireResponse::Error(
        proto, WireError::kUnknownSession,
        "unknown session '" + std::string(request.token) + "'");
  }
  return WireResponse(proto, RequestOp::kClose)
      .AddBool(WireField::kClosed, true)
      .Finish();
}

WireFrame NavServer::HandleFetchArtifact(const RequestView& request,
                                         WireProto proto) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return WireResponse::Error(proto, WireError::kShuttingDown,
                               "server is draining");
  }
  Result<std::shared_ptr<const QueryArtifacts>> artifacts =
      sessions_.ArtifactsForKey(std::string(request.query));
  if (!artifacts.ok()) {
    return WireResponse::Error(proto, WireErrorFromStatus(artifacts.status()),
                               artifacts.status().message());
  }
  // Base64 in both encodings: JSON strings cannot carry raw bytes, and one
  // representation keeps owner/replica wire responses oracle-identical.
  return WireResponse(proto, RequestOp::kFetchArtifact)
      .AddString(WireField::kArtifact,
                 Base64Encode(artifacts.ValueOrDie()->Serialize()))
      .Finish();
}

WireFrame NavServer::HandleTopology(const RequestView&, WireProto proto) {
  return WireResponse::Error(
      proto, WireError::kFailedPrecondition,
      "TOPOLOGY is answered by the routing tier, not a bare backend");
}

WireFrame NavServer::HandleStats(const RequestView&, WireProto proto) {
  NavServerStats s = stats();
  std::string sessions =
      "{\"active\":" + std::to_string(s.sessions.active) +
      ",\"created\":" + std::to_string(s.sessions.created) +
      ",\"evicted_lru\":" + std::to_string(s.sessions.evicted_lru) +
      ",\"expired_ttl\":" + std::to_string(s.sessions.expired_ttl) +
      ",\"closed\":" + std::to_string(s.sessions.closed) +
      ",\"operations\":" + std::to_string(s.sessions.operations) +
      ",\"spilled\":" + std::to_string(s.sessions.spilled) +
      ",\"restored\":" + std::to_string(s.sessions.restored) +
      ",\"restore_failed\":" + std::to_string(s.sessions.restore_failed) +
      ",\"spilled_now\":" + std::to_string(s.sessions.spilled_now) +
      ",\"resident_bytes\":" + std::to_string(s.sessions.resident_bytes) +
      "}";
  // Artifact-cache section: enabled:false (and zeros) when --cache=off, so
  // scrapers can rely on the section's presence either way.
  QueryArtifactCacheStats c;
  const QueryArtifactCache* cache = sessions_.cache();
  if (cache != nullptr) c = cache->stats();
  std::string cache_json =
      std::string("{\"enabled\":") + (cache != nullptr ? "true" : "false") +
      ",\"hits\":" + std::to_string(c.hits) +
      ",\"misses\":" + std::to_string(c.misses) +
      ",\"singleflight_waits\":" + std::to_string(c.singleflight_waits) +
      ",\"evicted_lru\":" + std::to_string(c.evicted_lru) +
      ",\"expired_ttl\":" + std::to_string(c.expired_ttl) +
      ",\"entries\":" + std::to_string(c.entries) +
      ",\"bytes\":" + std::to_string(c.bytes) +
      ",\"build_us_saved\":" + std::to_string(c.build_us_saved) +
      ",\"builds\":" + std::to_string(s.sessions.artifact_builds) +
      ",\"peer_fetch_hits\":" + std::to_string(s.sessions.peer_fetch_hits) +
      ",\"peer_fetch_misses\":" +
      std::to_string(s.sessions.peer_fetch_misses) + "}";
  // The exposition-sized payload has no hot-path template; both protocols
  // carry the identical JSON document (binary wraps it as a kWhole field).
  std::string line =
      ResponseBuilder(RequestOp::kStats)
          .Add("connections_accepted", s.connections_accepted)
          .Add("connections_shed", s.connections_shed)
          .Add("connections_open", s.connections_open)
          .Add("connections_idle_closed", s.connections_idle_closed)
          .Add("requests", s.requests)
          .Add("protocol_errors", s.protocol_errors)
          .Add("oversized_frames", s.oversized_frames)
          .Add("epoll_wakeups", s.epoll_wakeups)
          .Add("bytes_rx", s.bytes_rx)
          .Add("bytes_tx", s.bytes_tx)
          .Add("threads", pool_.num_threads())
          .Add("io_threads", static_cast<int64_t>(loops_.size()))
          .AddRaw("sessions", sessions)
          .AddRaw("cache", cache_json)
          .AddRaw("metrics", GlobalMetrics().ToJson())
          .Finish();
  return WrapWholeJson(proto, std::move(line));
}

WireFrame NavServer::HandleMetrics(const RequestView&, WireProto proto) {
  int64_t wakeups = 0;
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    wakeups += loop->wakeups();
  }
  EpollWakeupsGauge()->Set(wakeups);
  // The exposition travels as one JSON string field; JsonEscape turns the
  // newlines into \n so the line protocol survives, and clients (or
  // `bionav_cli stats --prom`) unescape on print.
  std::string line =
      ResponseBuilder(RequestOp::kMetrics)
          .Add("text", std::string_view(GlobalMetrics().ToPrometheusText()))
          .Finish();
  return WrapWholeJson(proto, std::move(line));
}

NavServerStats NavServer::stats() const {
  NavServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.connections_idle_closed =
      connections_idle_closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.oversized_frames = oversized_frames_.load(std::memory_order_relaxed);
  s.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  s.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    s.epoll_wakeups += loop->wakeups();
  }
  // Pull-refreshed at exposition: STATS/METRICS are exactly when the value
  // is read, so the reactor threads never spend a timer keeping it warm.
  EpollWakeupsGauge()->Set(s.epoll_wakeups);
  s.sessions = sessions_.stats();
  return s;
}

void NavServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (!started_.load() || shutting_down_.load()) return;
  shutting_down_.store(true, std::memory_order_release);

  // 1. Stop admitting: unregister and close the listener on its loop so
  //    no accept races the teardown.
  {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    loops_[0]->RunInLoop([&] {
      loops_[0]->Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  // 2. Drain every connection: in-flight requests finish normally,
  //    buffered-but-undispatched pipelined frames answer SHUTTING_DOWN,
  //    write queues flush before fds close.
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->RunInLoop([this, i] {
      std::vector<ConnPtr> conns;
      conns.reserve(loop_conns_[i].size());
      for (const auto& [fd, conn] : loop_conns_[i]) conns.push_back(conn);
      for (const ConnPtr& conn : conns) DrainConnection(conn);
    });
  }

  // 3. Let the pool finish every dispatched request (their completions
  //    re-enter the still-running loops and flush).
  pool_.Wait();

  // 4. Bounded drain: wait for the loops to report every connection
  //    closed, then force-close stragglers (dead peers that never drain
  //    their receive window).
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_deadline_ms),
        [this] { return connections_open_.load() == 0; });
  }
  if (connections_open_.load() > 0) {
    for (size_t i = 0; i < loops_.size(); ++i) {
      loops_[i]->RunInLoop([this, i] {
        std::vector<ConnPtr> conns;
        conns.reserve(loop_conns_[i].size());
        for (const auto& [fd, conn] : loop_conns_[i]) conns.push_back(conn);
        for (const ConnPtr& conn : conns) CloseConnection(conn);
      });
    }
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(1000),
                       [this] { return connections_open_.load() == 0; });
  }

  // 5. Stop and join the reactors.
  for (std::unique_ptr<EventLoop>& loop : loops_) loop->Stop();
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
}

NavServer::~NavServer() { Shutdown(); }

}  // namespace bionav
