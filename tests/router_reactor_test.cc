// Downstream connection behaviour of NavRouter: framing errors, idle
// reaping, the shutdown drain and the metric series router traffic writes,
// checked through a router over one shard.
// The router and NavServer share one ConnectionReactor, so these mirror the
// NavServerReactor cases that matter at the router's front door.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

const Workload& SmallWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

/// A blocking loopback socket speaking raw bytes.
class RawConn {
 public:
  explicit RawConn(int fd) : fd_(fd) {}
  static RawConn Connect(int port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
    return RawConn(fd);
  }
  RawConn(RawConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool SendAll(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking read of the next line (without the newline); false on EOF.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  /// True when the peer has closed the connection.
  bool AtEof() {
    char byte;
    ssize_t n;
    do {
      n = ::recv(fd_, &byte, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.ValueOrDie() : JsonValue();
}

/// A listening loopback socket on an ephemeral port (a scripted shard);
/// -1 on failure.
int ListenOnLoopback(int* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

/// One NavServer shard behind a NavRouter.
struct OneShardTier {
  explicit OneShardTier(NavRouterOptions router_options)
      : eutils(SmallWorkload().corpus().MakeClient()),
        shard(&SmallWorkload().hierarchy(), &eutils, nullptr,
              NavServerOptions()) {
    EXPECT_TRUE(shard.Start().ok());
    router = std::make_unique<NavRouter>(
        std::vector<RouterBackend>{{"127.0.0.1", shard.port(), "shard0"}},
        router_options);
    EXPECT_TRUE(router->Start().ok());
  }
  ~OneShardTier() {
    router->Shutdown();
    shard.Shutdown();
  }

  EUtilsClient eutils;
  NavServer shard;
  std::unique_ptr<NavRouter> router;
};

TEST(RouterReactor, OversizedJsonFrameGetsTypedErrorThenClose) {
  NavRouterOptions options;
  options.max_frame_bytes = 1024;
  OneShardTier tier(options);
  RawConn conn = RawConn::Connect(tier.router->port());
  ASSERT_TRUE(conn.ok());

  // 4 KiB with no newline: past the cap the router answers one typed
  // BAD_REQUEST and closes instead of buffering forever.
  ASSERT_TRUE(conn.SendAll(std::string(4096, 'x')));
  std::string response;
  ASSERT_TRUE(conn.ReadLine(&response));
  JsonValue doc = MustParse(response);
  EXPECT_FALSE(doc.BoolOr("ok", true));
  EXPECT_EQ(doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.StringOr("message", "").find("exceeds"), std::string::npos)
      << response;
  EXPECT_TRUE(conn.AtEof()) << "connection left open after oversized frame";
  EXPECT_GE(tier.router->stats().protocol_errors, 1);
  EXPECT_EQ(tier.router->stats().forwarded, 0);
}

TEST(RouterReactor, UnrecognizedPreambleAnswersJsonErrorThenClose) {
  OneShardTier tier{NavRouterOptions()};
  RawConn conn = RawConn::Connect(tier.router->port());
  ASSERT_TRUE(conn.ok());

  // 'B'-led but not "BNV2": the router answers in JSON and closes.
  ASSERT_TRUE(conn.SendAll("BNVX{\"v\":1,\"op\":\"STATS\"}\n"));
  std::string line;
  ASSERT_TRUE(conn.ReadLine(&line));
  JsonValue doc = MustParse(line);
  EXPECT_FALSE(doc.BoolOr("ok", true));
  EXPECT_EQ(doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.StringOr("message", "").find("preamble"), std::string::npos);
  EXPECT_TRUE(conn.AtEof()) << "connection left open after bad preamble";
  EXPECT_GE(tier.router->stats().protocol_errors, 1);
}

TEST(RouterReactor, IdleConnectionReapedAfterTimeout) {
  NavRouterOptions options;
  options.idle_timeout_ms = 100;
  OneShardTier tier(options);
  RawConn idle = RawConn::Connect(tier.router->port());
  ASSERT_TRUE(idle.ok());

  // A connection that never sends a byte is closed by the idle timer.
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(idle.AtEof());
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(waited.count(), 50) << "reaped before the idle deadline";
  EXPECT_LT(waited.count(), 5000) << "idle reap took implausibly long";
  EXPECT_EQ(tier.router->stats().connections_open, 0);
}

TEST(RouterReactor, ShutdownAnswersBufferedPipelinedFrames) {
  // The shard is scripted: it holds the head request until the drain has
  // answered the buffered tail, so the drain provably sees queued frames.
  int shard_port = 0;
  int listen_fd = ListenOnLoopback(&shard_port);
  ASSERT_GE(listen_fd, 0);

  NavRouterOptions options;
  options.health_interval_ms = 0;  // No probes: the shard sees one socket.
  options.max_inflight_per_connection = 1;  // Keep the tail undispatched.
  NavRouter router(std::vector<RouterBackend>{{"127.0.0.1", shard_port, "s0"}},
                   options);
  ASSERT_TRUE(router.Start().ok());
  RawConn client = RawConn::Connect(router.port());
  ASSERT_TRUE(client.ok());

  const int kRequests = 24;
  Request query;
  query.op = RequestOp::kQuery;
  query.query = "held";
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += SerializeRequest(query) + "\n";
  ASSERT_TRUE(client.SendAll(burst));

  // The head request reaches the shard; the rest wait behind the cap.
  RawConn upstream(::accept(listen_fd, nullptr, nullptr));
  ASSERT_TRUE(upstream.ok());
  std::string forwarded;
  ASSERT_TRUE(upstream.ReadLine(&forwarded));
  EXPECT_EQ(MustParse(forwarded).StringOr("op", ""), "QUERY");

  std::thread shutdown([&] { router.Shutdown(); });
  // Drain answers count as requests: wait until every buffered frame has
  // its SHUTTING_DOWN, then release the head.
  for (int i = 0; i < 2000 && router.stats().requests < kRequests; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(router.stats().requests, kRequests);
  ASSERT_TRUE(upstream.SendAll(
      "{\"v\":1,\"ok\":true,\"op\":\"QUERY\",\"token\":\"s0-s1\","
      "\"result_size\":1,\"cached\":false}\n"));

  std::vector<std::string> lines;
  std::string line;
  while (client.ReadLine(&line)) lines.push_back(line);
  shutdown.join();
  ::close(listen_fd);

  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests))
      << "pipelined requests dropped without a response";
  EXPECT_TRUE(MustParse(lines[0]).BoolOr("ok", false)) << lines[0];
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(MustParse(lines[i]).StringOr("error", ""), "SHUTTING_DOWN")
        << lines[i];
  }
}

/// Sum of a registry series (counter value or histogram count); 0 when the
/// series was never registered in this process.
int64_t SeriesTotal(const std::string& name) {
  if (const Counter* counter = GlobalMetrics().FindCounter(name)) {
    return counter->Value();
  }
  if (const LatencyHistogram* hist = GlobalMetrics().FindHistogram(name)) {
    return hist->Count();
  }
  return 0;
}

TEST(RouterReactor, RouterTrafficRecordsOnlyRouterSeries) {
  // The router and its shards share one registry in-process, so per-layer
  // server numbers stay honest only if the router never writes a
  // bionav_server_* series. Port 1 is never contacted: probes are off and
  // STATS is answered by the router itself.
  NavRouterOptions options;
  options.health_interval_ms = 0;
  NavRouter router(std::vector<RouterBackend>{{"127.0.0.1", 1, "s0"}},
                   options);
  ASSERT_TRUE(router.Start().ok());
  const std::vector<std::string> server_series = {
      "bionav_server_requests_total", "bionav_server_bytes_rx_total",
      "bionav_server_bytes_tx_total", "bionav_server_flush_batch",
      "bionav_server_connections_accepted_total"};
  std::vector<int64_t> before;
  for (const std::string& name : server_series) {
    before.push_back(SeriesTotal(name));
  }
  int64_t router_rx = SeriesTotal("bionav_router_bytes_rx_total");
  int64_t router_flushes = SeriesTotal("bionav_router_flush_batch");

  RawConn conn = RawConn::Connect(router.port());
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(conn.SendAll("{\"v\":1,\"op\":\"STATS\"}\n"));
    std::string line;
    ASSERT_TRUE(conn.ReadLine(&line));
    EXPECT_TRUE(MustParse(line).BoolOr("ok", false)) << line;
  }
  router.Shutdown();

  for (size_t i = 0; i < server_series.size(); ++i) {
    EXPECT_EQ(SeriesTotal(server_series[i]), before[i]) << server_series[i];
  }
  EXPECT_GT(SeriesTotal("bionav_router_bytes_rx_total"), router_rx);
  EXPECT_GE(SeriesTotal("bionav_router_flush_batch"), router_flushes + 3);
}

}  // namespace
}  // namespace bionav
