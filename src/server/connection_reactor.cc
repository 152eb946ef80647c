#include "server/connection_reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace bionav {

namespace {

/// iovec segments per sendmsg. Each queued frame spends at most two (owned
/// head + shared template body), so one flush coalesces up to 32 responses.
constexpr size_t kMaxIov = 64;

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

ConnectionReactor::ConnectionReactor(ConnectionReactorOptions options,
                                     FrameHandler on_frame)
    : options_(std::move(options)),
      on_frame_(std::move(on_frame)),
      draining_message_(options_.role + " is draining") {
  if (options_.io_threads < 1) options_.io_threads = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_inflight_per_connection < 1) {
    options_.max_inflight_per_connection = 1;
  }
  if (options_.max_write_queue_bytes < 4096) {
    options_.max_write_queue_bytes = 4096;
  }
  const std::string prefix = "bionav_" + options_.role + "_";
  MetricsRegistry& metrics = GlobalMetrics();
  accepted_total_ = metrics.GetCounter(prefix + "connections_accepted_total",
                                       "Connections accepted");
  shed_total_ = metrics.GetCounter(prefix + "connections_shed_total",
                                   "Connections shed by admission control");
  requests_total_ =
      metrics.GetCounter(prefix + "requests_total", "Request frames received");
  protocol_errors_total_ = metrics.GetCounter(
      prefix + "protocol_errors_total",
      "Request frames rejected before dispatch");
  bytes_rx_total_ = metrics.GetCounter(
      prefix + "bytes_rx_total", "Request bytes read from client sockets");
  bytes_tx_total_ = metrics.GetCounter(
      prefix + "bytes_tx_total", "Response bytes written to client sockets");
  open_connections_ = metrics.GetGauge(prefix + "open_connections",
                                       "Connections currently open");
  write_queue_bytes_ = metrics.GetGauge(
      prefix + "write_queue_bytes",
      "Total response bytes queued across connections");
  epoll_wakeups_ = metrics.GetGauge(prefix + "epoll_wakeups",
                                    "Reactor epoll_wait returns (monotone)");
  flush_batch_ = metrics.GetHistogram(prefix + "flush_batch",
                                      "Response frames coalesced per sendmsg");
}

ConnectionReactor::~ConnectionReactor() { StopLoops(); }

Status ConnectionReactor::Start() {
  BIONAV_CHECK(!started_.load()) << options_.role << " started twice";

  sockaddr_in addr{};
  if (options_.inherit_listen_fd >= 0) {
    // Warm restart: the predecessor's listener, already bound and
    // listening, arrives across exec. Re-assert the flags a fresh socket
    // would get (the dup dropped CLOEXEC deliberately; NONBLOCK is shared
    // but cheap to enforce) and read the port back off the socket.
    listen_fd_ = options_.inherit_listen_fd;
    int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
      return FailStart(ErrnoStatus("inherited listener unusable"));
    }
    ::fcntl(listen_fd_, F_SETFD, FD_CLOEXEC);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return ErrnoStatus("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      std::string message = "bad bind address '" + options_.bind_address + "'";
      return FailStart(Status::InvalidArgument(message));
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return FailStart(ErrnoStatus("bind"));
    }
    if (::listen(listen_fd_, 512) != 0) {
      return FailStart(ErrnoStatus("listen"));
    }
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  loops_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  loop_conns_.assign(loops_.size(), {});

  // Pre-Run registration is safe: no loop thread is running yet.
  Status added = loops_[0]->Add(listen_fd_, EventLoop::kReadable,
                                [this](uint32_t) { OnAcceptable(); });
  if (!added.ok()) return FailStart(added);

  started_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    io_threads_.emplace_back([this, i] { loops_[i]->Run(); });
  }
  return Status::OK();
}

Status ConnectionReactor::FailStart(Status status) {
  ::close(listen_fd_);
  listen_fd_ = -1;
  return status;
}

int ConnectionReactor::DetachListener() {
  if (!started_.load() || listen_fd_ < 0) return -1;
  // F_DUPFD (not F_DUPFD_CLOEXEC): the whole point is surviving exec.
  return ::fcntl(listen_fd_, F_DUPFD, 3);
}

void ConnectionReactor::RefuseConnection(int fd, WireError error,
                                         const std::string& message) {
  std::string line = ErrorReply(error, message);
  line.push_back('\n');
  [[maybe_unused]] ssize_t n =
      ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void ConnectionReactor::OnAcceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_total_->Increment();
    if (shutting_down()) {
      RefuseConnection(fd, WireError::kShuttingDown, draining_message_);
      continue;
    }
    // Admission control: past max_connections the client backs off, and
    // the connection table never grows without bound.
    if (connections_open_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Counted before the reply, so a client that has seen RETRY_LATER
      // also sees the shed in STATS.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      shed_total_->Increment();
      RefuseConnection(fd, WireError::kRetryLater,
                       options_.role + " at capacity, retry later");
      continue;
    }
    AdmitConnection(fd);
  }
}

void ConnectionReactor::ReleaseOpenSlot() {
  connections_open_.fetch_sub(1, std::memory_order_acq_rel);
  open_connections_->Add(-1);
  // Pass through the waiter's mutex: a notify between its predicate check
  // and its wait would otherwise be lost and stall it to the deadline.
  { std::lock_guard<std::mutex> lock(drain_mu_); }
  drain_cv_.notify_all();
}

void ConnectionReactor::AdmitConnection(int fd) {
  // Disable Nagle: responses are small frames written as soon as they are
  // released; coalescing only adds latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  connections_open_.fetch_add(1, std::memory_order_acq_rel);
  open_connections_->Add(1);

  ConnPtr conn = std::make_shared<Connection>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  conn->loop_index =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  conn->last_activity_ms = SteadyNowMs();

  EventLoop* loop = loops_[conn->loop_index].get();
  loop->RunInLoop([this, loop, conn] {
    if (shutting_down()) {
      // Raced with drain: DrainConnections would never see this
      // connection, so refuse it here.
      conn->closed = true;
      RefuseConnection(conn->fd, WireError::kShuttingDown, draining_message_);
      ReleaseOpenSlot();
      return;
    }
    loop_conns_[conn->loop_index].emplace(conn->fd, conn);
    Status added = loop->Add(
        conn->fd, EventLoop::kReadable,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!added.ok()) {
      loop_conns_[conn->loop_index].erase(conn->fd);
      conn->closed = true;
      ::close(conn->fd);
      ReleaseOpenSlot();
      return;
    }
    ArmIdleTimer(conn);
  });
}

void ConnectionReactor::OnConnectionEvent(const ConnPtr& conn,
                                          uint32_t events) {
  if (conn->closed) return;
  if (events & EventLoop::kError) {
    CloseConnection(conn);
    return;
  }
  if (events & EventLoop::kWritable) FlushWrites(conn);
  if (conn->closed) return;
  if (events & EventLoop::kReadable) ReadConnection(conn);
}

bool ConnectionReactor::FeedConnection(const ConnPtr& conn,
                                       std::string_view data) {
  if (!conn->proto_decided) {
    conn->preamble.append(data.data(), data.size());
    if (conn->preamble.empty()) return true;
    if (conn->preamble[0] != kBinaryPreamble[0]) {
      // A JSON request line always starts with '{': the connection is v1.
      // Replay everything buffered so far into the line decoder.
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

bool ConnectionReactor::HasBufferedFrame(const ConnPtr& conn) const {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.has_frame()
                                           : conn->decoder.has_frame();
}

bool ConnectionReactor::NextBufferedFrame(const ConnPtr& conn,
                                          std::string* payload) {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.Next(payload)
                                           : conn->decoder.Next(payload);
}

bool ConnectionReactor::DecoderBroken(const ConnPtr& conn) const {
  if (conn->preamble_error) return true;
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.broken()
                                           : conn->decoder.overflowed();
}

void ConnectionReactor::ReadConnection(const ConnPtr& conn) {
  // Bounded reads per readiness event so one firehose connection cannot
  // starve its loop siblings; level-triggering redrives the remainder.
  char chunk[16384];
  int64_t received = 0;
  bool peer_eof = false;
  for (int i = 0; i < 4; ++i) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      received += n;
      if (!FeedConnection(conn,
                          std::string_view(chunk, static_cast<size_t>(n)))) {
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
    bytes_rx_total_->Increment(received);
  }

  DispatchFrames(conn);
  if (conn->closed) return;

  if (conn->preamble_error && !conn->draining) {
    // The peer speaks neither protocol: answer in JSON (its encoding is
    // unknowable) and close.
    FailStream(conn, WireProto::kJson, "unrecognized protocol preamble");
    return;
  }
  if (DecoderBroken(conn) && !conn->draining) {
    // Slow-loris / runaway frame (either framing), or a binary stream that
    // lost sync: the typed error follows any complete frames before it.
    bool oversized = conn->proto == WireProto::kBinary
                         ? conn->bdecoder.overflowed()
                         : conn->decoder.overflowed();
    if (oversized) oversized_frames_.fetch_add(1, std::memory_order_relaxed);
    std::string message =
        oversized ? "request frame exceeds " +
                        std::to_string(options_.max_frame_bytes) + " bytes"
                  : "malformed binary frame header";
    FailStream(conn, conn->proto, message);
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

void ConnectionReactor::FailStream(const ConnPtr& conn, WireProto proto,
                                   const std::string& message) {
  CountRequest();
  CountProtocolError();
  uint64_t seq = conn->next_dispatch_seq++;
  ++conn->inflight;
  conn->draining = true;
  conn->close_after_flush = true;
  Complete(conn, seq,
           WireResponse::Error(proto, WireError::kBadRequest, message));
}

void ConnectionReactor::DispatchFrames(const ConnPtr& conn) {
  // Re-entrancy guard: an inline completion calls back into Complete,
  // whose refill would otherwise recurse here once per buffered frame.
  // The outer invocation's loop drains them instead.
  if (conn->dispatching) return;
  conn->dispatching = true;
  std::string payload;
  while (!conn->closed) {
    if (!conn->draining &&
        conn->inflight >= options_.max_inflight_per_connection) {
      break;
    }
    if (!NextBufferedFrame(conn, &payload)) break;
    if (payload.empty() && conn->proto == WireProto::kJson) continue;
    uint64_t seq = conn->next_dispatch_seq++;
    ++conn->inflight;
    if (conn->draining) {
      // Shutdown drain: every queued pipelined request still gets a
      // definite answer instead of silence (no cap — answers are local).
      CountRequest();
      Complete(conn, seq,
               WireResponse::Error(conn->proto, WireError::kShuttingDown,
                                   draining_message_));
      continue;
    }
    on_frame_(conn, seq, payload);
  }
  conn->dispatching = false;
}

void ConnectionReactor::Complete(const ConnPtr& conn, uint64_t seq,
                                 WireFrame response) {
  if (conn->closed) return;  // Completion raced with a reset/force-close.
  --conn->inflight;
  if (seq == conn->next_release_seq && conn->completed.empty()) {
    // In-order completion — the only case on an inline answer and the
    // common one under pipelining — skips the reorder map and its per-node
    // allocation.
    size_t bytes = response.size();
    conn->write_queue_bytes += bytes;
    write_queue_bytes_->Add(static_cast<int64_t>(bytes));
    conn->write_queue.push_back(std::move(response));
    ++conn->next_release_seq;
  } else {
    conn->completed.emplace(seq, std::move(response));
    // Release every response whose predecessors are all out: pipelined
    // responses hit the wire in request arrival order, whatever order they
    // finished in.
    while (!conn->completed.empty() &&
           conn->completed.begin()->first == conn->next_release_seq) {
      WireFrame& ready = conn->completed.begin()->second;
      size_t bytes = ready.size();
      conn->write_queue_bytes += bytes;
      write_queue_bytes_->Add(static_cast<int64_t>(bytes));
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

void ConnectionReactor::FlushWrites(const ConnPtr& conn) {
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
        iov[iov_count].iov_base = const_cast<char*>(frame.head.data()) + skip;
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
    flush_batch_->Record(frames);
    bytes_tx_.fetch_add(n, std::memory_order_relaxed);
    bytes_tx_total_->Increment(n);
    conn->write_queue_bytes -= static_cast<size_t>(n);
    write_queue_bytes_->Add(-static_cast<int64_t>(n));
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

void ConnectionReactor::UpdateInterest(const ConnPtr& conn) {
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

void ConnectionReactor::ArmIdleTimer(const ConnPtr& conn) {
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
  conn->idle_timer =
      loops_[conn->loop_index]->AddTimer(remaining, [this, conn] {
        conn->idle_timer = kInvalidTimer;
        ArmIdleTimer(conn);
      });
}

void ConnectionReactor::CloseConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  EventLoop* loop = loops_[conn->loop_index].get();
  if (conn->idle_timer != kInvalidTimer) {
    loop->CancelTimer(conn->idle_timer);
    conn->idle_timer = kInvalidTimer;
  }
  loop->Remove(conn->fd);
  if (conn->write_queue_bytes > 0) {
    write_queue_bytes_->Add(-static_cast<int64_t>(conn->write_queue_bytes));
    conn->write_queue_bytes = 0;
  }
  loop_conns_[conn->loop_index].erase(conn->fd);
  // Released before the fd closes, so a peer that has seen EOF also sees
  // the connection gone from STATS.
  ReleaseOpenSlot();
  ::close(conn->fd);
}

void ConnectionReactor::DrainConnection(const ConnPtr& conn) {
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

void ConnectionReactor::CountRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_total_->Increment();
}

void ConnectionReactor::CountProtocolError() {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  protocol_errors_total_->Increment();
}

ConnectionReactorStats ConnectionReactor::stats() const {
  ConnectionReactorStats s;
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
  // is read, so the loops never spend a timer keeping it warm.
  epoll_wakeups_->Set(s.epoll_wakeups);
  return s;
}

bool ConnectionReactor::StopAccepting() {
  if (!started_.load() || shutting_down_.exchange(true)) return false;
  // Unregister and close the listener on its loop so no accept races the
  // teardown.
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
  return true;
}

void ConnectionReactor::ForEachConnection(
    void (ConnectionReactor::*fn)(const ConnPtr&)) {
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->RunInLoop([this, i, fn] {
      std::vector<ConnPtr> conns;
      conns.reserve(loop_conns_[i].size());
      for (const auto& [fd, conn] : loop_conns_[i]) conns.push_back(conn);
      for (const ConnPtr& conn : conns) (this->*fn)(conn);
    });
  }
}

void ConnectionReactor::DrainConnections() {
  ForEachConnection(&ConnectionReactor::DrainConnection);
}

void ConnectionReactor::WaitForNoConnections(int64_t deadline_ms) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                     [this] { return connections_open_.load() == 0; });
}

void ConnectionReactor::AwaitClosed(int64_t deadline_ms) {
  WaitForNoConnections(deadline_ms);
  if (connections_open_.load() == 0) return;
  ForEachConnection(&ConnectionReactor::CloseConnection);
  WaitForNoConnections(1000);
}

void ConnectionReactor::StopLoops() {
  for (std::unique_ptr<EventLoop>& loop : loops_) loop->Stop();
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
}

}  // namespace bionav
