#include "load.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <queue>
#include <utility>

#include "stats.h"
#include "util/rng.h"

namespace perfbench {

using bionav::JsonValue;
using bionav::NavNodeId;
using bionav::Request;
using bionav::RequestOp;
using bionav::WireProto;

namespace {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<NavNodeId> NodeList(const JsonValue* array) {
  std::vector<NavNodeId> out;
  if (array == nullptr || !array->is_array()) return out;
  out.reserve(array->array_items().size());
  for (const JsonValue& v : array->array_items()) {
    out.push_back(static_cast<NavNodeId>(v.number_value()));
  }
  return out;
}

/// Node ids marked expandable anywhere in a VIEW tree.
void CollectExpandable(const JsonValue& node, std::vector<NavNodeId>* out) {
  if (!node.is_object()) return;
  if (node.BoolOr("expandable", false)) {
    out->push_back(static_cast<NavNodeId>(node.IntOr("node", -1)));
  }
  if (const JsonValue* children = node.Find("children");
      children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->array_items()) {
      CollectExpandable(child, out);
    }
  }
}

constexpr int kMaxDescentSteps = 64;
constexpr int64_t kTickNs = 100'000'000;
constexpr int64_t kDrainLimitNs = 20'000'000'000;

}  // namespace

struct LoadGenerator::Conn {
  int fd = -1;
  WireProto proto = WireProto::kJson;
  bool preamble_pending = false;
  bool dead = false;
  bool want_write = false;
  std::string out;
  size_t out_offset = 0;
  bionav::LineFrameDecoder line_decoder{64u << 20};
  bionav::BinaryFrameDecoder binary_decoder{64u << 20};
  struct Pending {
    size_t session = 0;
    RequestOp op = RequestOp::kQuery;
    int64_t due_ns = 0;
    int64_t send_ns = 0;
  };
  std::deque<Pending> pending;
};

LoadGenerator::LoadGenerator(LoadConfig config,
                             const std::vector<Variant>* variants)
    : config_(std::move(config)), variants_(variants) {}

LoadGenerator::~LoadGenerator() {
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bionav::Status LoadGenerator::Connect(const std::string& host, int port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return bionav::Status::IOError("epoll_create1 failed");
  for (size_t i = 0; i < config_.protos.size(); ++i) {
    auto conn = std::make_unique<Conn>();
    conn->proto = config_.protos[i];
    conn->preamble_pending = conn->proto == WireProto::kBinary;
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return bionav::Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return bionav::Status::IOError(std::string("connect: ") +
                                     std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      return bionav::Status::IOError("epoll_ctl failed");
    }
    conns_.push_back(std::move(conn));
  }
  return bionav::Status::OK();
}

/// The state of one Run: sessions, timers and the event loop.
class LoadGenerator::Phase {
 public:
  Phase(LoadGenerator* gen, uint64_t seed, double seconds, bool capture,
        const std::function<void()>* on_tick)
      : gen_(gen),
        config_(gen->config_),
        seed_(seed),
        seconds_(seconds),
        capture_(capture),
        on_tick_(on_tick) {}

  PhaseResult Run();

 private:
  struct Session {
    size_t conn = 0;
    bionav::Rng rng{0};
    std::string token;
    // Archetype progress.
    int steps_left = 0;
    int expands = 0;
    int backtracks_left = 0;
    int descent_steps = 0;
    bool second_descent = false;
    NavNodeId target_node = bionav::kInvalidNavNode;
    std::vector<NavNodeId> expandable;
    /// Request waiting on a think-time timer.
    Request next;
    bool open = false;
    SessionLog log;
  };

  const Variant& VariantOf(const Session& s) const {
    return (*gen_->variants_)[s.log.variant];
  }
  double Uniform(Session& s, double lo, double hi) {
    return lo + (hi - lo) * s.rng.UniformDouble();
  }

  void StartSession(size_t conn, int64_t due_ns);
  /// Chooses the session's next request from its last answer. False when
  /// the session is over. `think_ms` is the pause before sending it.
  bool Advance(Session& s, Request* next, double* think_ms);
  bool AdvanceBrowser(Session& s, const OpRecord* last, Request* next);
  bool AdvanceBacktracker(Session& s, const OpRecord* last, Request* next);
  bool AdvanceFinder(Session& s, const OpRecord* last, Request* next,
                     double* think_ms);
  bool Descend(Session& s, const OpRecord& find, Request* next);
  void Schedule(size_t sid, Request request, int64_t due_ns);
  void Send(size_t sid, const Request& request, int64_t due_ns);
  void Flush(size_t conn_index);
  void SetWriteInterest(size_t conn_index, bool want);
  void OnReadable(size_t conn_index);
  void OnAnswer(size_t conn_index, const JsonValue& doc, int64_t recv_ns);
  void EndSession(size_t sid, bool completed);
  void TransportError(size_t conn_index, const std::string& message);
  bool AcceptingSessions(int64_t now) const;

  LoadGenerator* gen_;
  const LoadConfig& config_;
  const uint64_t seed_;
  const double seconds_;
  const bool capture_;
  const std::function<void()>* on_tick_;

  std::deque<Session> sessions_;
  std::priority_queue<std::pair<int64_t, size_t>,
                      std::vector<std::pair<int64_t, size_t>>,
                      std::greater<>>
      timers_;
  int64_t start_ns_ = 0;
  int64_t deadline_ns_ = 0;
  int64_t last_answer_ns_ = 0;
  int open_sessions_ = 0;
  PhaseResult result_;
};

bool LoadGenerator::Phase::AcceptingSessions(int64_t now) const {
  return !config_.open_loop && now < deadline_ns_;
}

void LoadGenerator::Phase::StartSession(size_t conn, int64_t due_ns) {
  size_t sid = sessions_.size();
  sessions_.emplace_back();
  Session& s = sessions_.back();
  s.conn = conn;
  s.rng = bionav::Rng(MixSeed(seed_, 0x1000000000ULL + sid));
  s.log.variant =
      DrawVariant(seed_, sid, gen_->variants_->size(), config_.zipf_s);
  s.open = true;
  ++open_sessions_;
  Request query;
  query.op = RequestOp::kQuery;
  query.query = VariantOf(s).query;
  Send(sid, query, due_ns);
}

bool LoadGenerator::Phase::Descend(Session& s, const OpRecord& find,
                                   Request* next) {
  if (!find.found || find.visible || s.descent_steps >= kMaxDescentSteps) {
    return false;
  }
  ++s.descent_steps;
  next->op = RequestOp::kExpand;
  next->token = s.token;
  next->node = static_cast<NavNodeId>(find.find_root);
  return true;
}

bool LoadGenerator::Phase::AdvanceBrowser(Session& s, const OpRecord* last,
                                          Request* next) {
  next->token = s.token;
  auto view = [&] {
    next->op = RequestOp::kView;
    next->depth = 100;
    return true;
  };
  auto close = [&] {
    next->op = RequestOp::kClose;
    return true;
  };
  auto step_done = [&] { return --s.steps_left > 0 ? view() : close(); };
  switch (last->op) {
    case RequestOp::kQuery:
      s.steps_left = static_cast<int>(s.rng.UniformInt(2, 6));
      return view();
    case RequestOp::kView: {
      if (s.expandable.empty()) return close();
      if (s.rng.Bernoulli(0.5)) {
        // Up to four frontier nodes spread over the expandable list, as a
        // user opening several branches at once.
        size_t n = s.expandable.size();
        size_t want = std::min<size_t>(4, n);
        size_t start = s.rng.Uniform(n);
        next->op = RequestOp::kBatchExpand;
        for (size_t k = 0; k < want; ++k) {
          next->nodes.push_back(s.expandable[(start + k * n / want) % n]);
        }
      } else {
        next->op = RequestOp::kExpand;
        next->node = s.expandable[s.rng.Uniform(s.expandable.size())];
      }
      return true;
    }
    case RequestOp::kExpand:
    case RequestOp::kBatchExpand: {
      std::vector<NavNodeId> revealed = last->revealed;
      for (const BatchItem& item : last->batch) {
        revealed.insert(revealed.end(), item.revealed.begin(),
                        item.revealed.end());
      }
      if (revealed.empty()) return step_done();
      next->op = RequestOp::kShowResults;
      next->node = revealed[s.rng.Uniform(revealed.size())];
      next->retstart = 0;
      next->retmax = 5;
      return true;
    }
    case RequestOp::kShowResults:
      return step_done();
    default:
      return false;
  }
}

bool LoadGenerator::Phase::AdvanceBacktracker(Session& s, const OpRecord* last,
                                              Request* next) {
  next->token = s.token;
  auto find = [&] {
    next->op = RequestOp::kFind;
    next->concept_id = VariantOf(s).target;
    return true;
  };
  switch (last->op) {
    case RequestOp::kQuery:
      return find();
    case RequestOp::kFind:
      if (Descend(s, *last, next)) return true;
      if (last->found) s.target_node = static_cast<NavNodeId>(last->find_node);
      if (!s.second_descent && s.expands > 0) {
        s.second_descent = true;
        s.descent_steps = 0;
        s.backtracks_left = s.expands;
        next->op = RequestOp::kBacktrack;
        return true;
      }
      if (s.target_node != bionav::kInvalidNavNode) {
        next->op = RequestOp::kShowResults;
        next->node = s.target_node;
        next->retstart = 0;
        next->retmax = 20;
        return true;
      }
      next->op = RequestOp::kClose;
      return true;
    case RequestOp::kExpand:
      if (!s.second_descent) ++s.expands;
      return find();
    case RequestOp::kBacktrack:
      if (--s.backtracks_left > 0) {
        next->op = RequestOp::kBacktrack;
        return true;
      }
      return find();
    case RequestOp::kShowResults:
      next->op = RequestOp::kClose;
      return true;
    default:
      return false;
  }
}

bool LoadGenerator::Phase::AdvanceFinder(Session& s, const OpRecord* last,
                                         Request* next, double* think_ms) {
  next->token = s.token;
  *think_ms = Uniform(s, config_.short_think_ms_lo, config_.short_think_ms_hi);
  auto pause_then_view = [&] {
    next->op = RequestOp::kView;
    next->depth = 100;
    *think_ms = Uniform(s, config_.long_think_ms_lo, config_.long_think_ms_hi);
    return true;
  };
  switch (last->op) {
    case RequestOp::kQuery:
    case RequestOp::kExpand:
      next->op = RequestOp::kFind;
      next->concept_id = VariantOf(s).target;
      return true;
    case RequestOp::kFind:
      if (Descend(s, *last, next)) return true;
      if (!last->found) return pause_then_view();
      next->op = RequestOp::kShowResults;
      next->node = static_cast<NavNodeId>(last->find_node);
      next->retstart = 0;
      next->retmax = 20;
      return true;
    case RequestOp::kShowResults:
      return pause_then_view();
    case RequestOp::kView:
      next->op = RequestOp::kClose;
      return true;
    default:
      return false;
  }
}

bool LoadGenerator::Phase::Advance(Session& s, Request* next,
                                   double* think_ms) {
  *think_ms = 0;
  const OpRecord* last = &s.log.ops.back();
  if (last->op == RequestOp::kClose) return false;
  switch (config_.archetype) {
    case Archetype::kBrowser:
      return AdvanceBrowser(s, last, next);
    case Archetype::kBacktracker:
      return AdvanceBacktracker(s, last, next);
    case Archetype::kFinder:
      return AdvanceFinder(s, last, next, think_ms);
  }
  return false;
}

void LoadGenerator::Phase::Schedule(size_t sid, Request request,
                                    int64_t due_ns) {
  sessions_[sid].next = std::move(request);
  timers_.emplace(due_ns, sid);
}

void LoadGenerator::Phase::Send(size_t sid, const Request& request,
                                int64_t due_ns) {
  Session& s = sessions_[sid];
  Conn& conn = *gen_->conns_[s.conn];
  if (conn.dead) {
    EndSession(sid, false);
    return;
  }
  OpRecord record;
  record.op = request.op;
  record.node = request.node;
  record.nodes = request.nodes;
  record.concept_id = request.concept_id;
  record.retstart = request.retstart;
  record.retmax = request.retmax;
  record.depth = request.depth;
  s.log.ops.push_back(std::move(record));

  if (conn.preamble_pending) {
    conn.out.append(bionav::kBinaryPreamble, sizeof(bionav::kBinaryPreamble));
    conn.preamble_pending = false;
  }
  if (conn.proto == WireProto::kBinary) {
    std::string frame = bionav::SerializeRequestBinary(request);
    if (capture_) {
      result_.frames.push_back(frame.substr(bionav::kBinaryFrameHeaderBytes));
      result_.frame_protos.push_back(WireProto::kBinary);
    }
    conn.out += frame;
  } else {
    std::string line = bionav::SerializeRequest(request);
    if (capture_) {
      result_.frames.push_back(line);
      result_.frame_protos.push_back(WireProto::kJson);
    }
    conn.out += line;
    conn.out.push_back('\n');
  }
  int64_t send_ns = NowNs();
  conn.pending.push_back({sid, request.op, due_ns, send_ns});
  result_.lateness_ms.push_back(
      static_cast<double>(std::max<int64_t>(0, send_ns - due_ns)) / 1e6);
  Flush(s.conn);
}

void LoadGenerator::Phase::SetWriteInterest(size_t conn_index, bool want) {
  Conn& conn = *gen_->conns_[conn_index];
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn_index;
  ::epoll_ctl(gen_->epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void LoadGenerator::Phase::Flush(size_t conn_index) {
  Conn& conn = *gen_->conns_[conn_index];
  while (conn.out_offset < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    TransportError(conn_index, std::string("send: ") + std::strerror(errno));
    return;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  SetWriteInterest(conn_index, !conn.out.empty());
}

void LoadGenerator::Phase::OnReadable(size_t conn_index) {
  Conn& conn = *gen_->conns_[conn_index];
  char buffer[65536];
  while (true) {
    ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      std::string_view data(buffer, static_cast<size_t>(n));
      bool fed = conn.proto == WireProto::kBinary
                     ? conn.binary_decoder.Feed(data)
                     : conn.line_decoder.Feed(data);
      if (!fed) {
        TransportError(conn_index, "answer frame over the size limit");
        return;
      }
      continue;
    }
    if (n == 0) {
      TransportError(conn_index, "server closed the connection");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    TransportError(conn_index, std::string("recv: ") + std::strerror(errno));
    return;
  }
  int64_t recv_ns = NowNs();
  std::string frame;
  while (!conn.dead) {
    bool have = conn.proto == WireProto::kBinary
                    ? conn.binary_decoder.Next(&frame)
                    : conn.line_decoder.Next(&frame);
    if (!have) break;
    bionav::Result<JsonValue> doc =
        conn.proto == WireProto::kBinary
            ? bionav::DecodeBinaryResponse(frame)
            : bionav::ParseJson(frame);
    if (!doc.ok() || !doc.ValueOrDie().is_object()) {
      TransportError(conn_index, "malformed answer frame");
      return;
    }
    OnAnswer(conn_index, doc.ValueOrDie(), recv_ns);
  }
  if (!conn.dead && conn.proto == WireProto::kBinary &&
      conn.binary_decoder.broken()) {
    TransportError(conn_index, "broken binary answer stream");
  }
}

void LoadGenerator::Phase::OnAnswer(size_t conn_index, const JsonValue& doc,
                                    int64_t recv_ns) {
  Conn& conn = *gen_->conns_[conn_index];
  if (conn.pending.empty()) {
    TransportError(conn_index, "answer without a request");
    return;
  }
  Conn::Pending pending = conn.pending.front();
  conn.pending.pop_front();
  last_answer_ns_ = recv_ns;
  Session& s = sessions_[pending.session];
  OpRecord& record = s.log.ops.back();
  record.ok = doc.BoolOr("ok", false);
  int64_t from = config_.open_loop ? pending.due_ns : pending.send_ns;
  result_.samples.push_back(
      {pending.op, record.ok, static_cast<double>(recv_ns - from) / 1e6});
  if (!record.ok) {
    record.error = doc.StringOr("error", "INTERNAL");
    if (record.error == "RETRY_LATER" || record.error == "SHUTTING_DOWN") {
      ++result_.requests_shed;
    } else {
      ++result_.requests_failed;
    }
    if (result_.first_error.empty()) {
      result_.first_error = std::string(bionav::RequestOpName(pending.op)) +
                            ": " + record.error + " " +
                            doc.StringOr("message", "");
    }
    EndSession(pending.session, false);
    return;
  }
  switch (record.op) {
    case RequestOp::kQuery:
      s.token = doc.StringOr("token", "");
      record.result_size = doc.IntOr("result_size", -1);
      break;
    case RequestOp::kExpand:
      record.revealed = NodeList(doc.Find("revealed"));
      s.log.nav_cost += 1 + static_cast<int64_t>(record.revealed.size());
      break;
    case RequestOp::kBatchExpand:
      if (const JsonValue* results = doc.Find("results");
          results != nullptr && results->is_array()) {
        for (const JsonValue& item : results->array_items()) {
          BatchItem b;
          b.ok = item.BoolOr("ok", false);
          b.revealed = NodeList(item.Find("revealed"));
          if (b.ok) s.log.nav_cost += 1 + static_cast<int64_t>(b.revealed.size());
          record.batch.push_back(std::move(b));
        }
      }
      break;
    case RequestOp::kBacktrack:
      record.undone = doc.BoolOr("undone", false);
      break;
    case RequestOp::kFind:
      record.found = doc.BoolOr("found", false);
      record.visible = doc.BoolOr("visible", false);
      record.find_node = doc.IntOr("node", -1);
      record.find_root = doc.IntOr("component_root", -1);
      record.find_distinct = doc.IntOr("distinct", 0);
      break;
    case RequestOp::kShowResults:
      record.total = doc.IntOr("total", -1);
      break;
    case RequestOp::kView:
      s.expandable.clear();
      if (const JsonValue* tree = doc.Find("tree")) {
        CollectExpandable(*tree, &s.expandable);
        if (config_.record_views) record.view = bionav::WriteJson(*tree);
      }
      break;
    default:
      break;
  }
  Request next;
  double think_ms = 0;
  if (!Advance(s, &next, &think_ms)) {
    s.log.completed = true;
    EndSession(pending.session, true);
    return;
  }
  int64_t due = recv_ns + static_cast<int64_t>(think_ms * 1e6);
  if (think_ms <= 0) {
    Send(pending.session, next, due);
  } else {
    Schedule(pending.session, std::move(next), due);
  }
}

void LoadGenerator::Phase::EndSession(size_t sid, bool completed) {
  Session& s = sessions_[sid];
  if (!s.open) return;
  s.open = false;
  --open_sessions_;
  if (completed) {
    ++result_.sessions_completed;
  } else {
    ++result_.sessions_failed;
  }
  int64_t now = NowNs();
  if (AcceptingSessions(now) && !gen_->conns_[s.conn]->dead) {
    StartSession(s.conn, now);
  }
}

void LoadGenerator::Phase::TransportError(size_t conn_index,
                                          const std::string& message) {
  Conn& conn = *gen_->conns_[conn_index];
  if (conn.dead) return;
  conn.dead = true;
  ++result_.transport_errors;
  if (result_.first_error.empty()) {
    result_.first_error =
        "connection " + std::to_string(conn_index) + ": " + message;
  }
  ::epoll_ctl(gen_->epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  std::deque<Conn::Pending> pending;
  pending.swap(conn.pending);
  result_.requests_lost += static_cast<int64_t>(pending.size());
  for (const Conn::Pending& p : pending) EndSession(p.session, false);
}

PhaseResult LoadGenerator::Phase::Run() {
  double cpu_start = ThreadCpuSeconds();
  start_ns_ = NowNs();
  deadline_ns_ = start_ns_ + static_cast<int64_t>(seconds_ * 1e9);
  std::vector<double> arrivals;
  size_t next_arrival = 0;
  if (config_.open_loop) {
    arrivals = PoissonSchedule(seed_, config_.rate_per_s, seconds_);
  } else {
    for (size_t c = 0; c < gen_->conns_.size(); ++c) {
      if (!gen_->conns_[c]->dead) StartSession(c, start_ns_);
    }
  }
  int64_t next_tick = start_ns_ + kTickNs;
  int64_t busy_ns = 0;
  epoll_event events[16];
  while (true) {
    int64_t now = NowNs();
    size_t work_before = result_.samples.size() + result_.lateness_ms.size();
    while (next_arrival < arrivals.size() &&
           start_ns_ + static_cast<int64_t>(arrivals[next_arrival] * 1e9) <=
               now) {
      int64_t due =
          start_ns_ + static_cast<int64_t>(arrivals[next_arrival] * 1e9);
      StartSession(next_arrival % gen_->conns_.size(), due);
      ++next_arrival;
    }
    while (!timers_.empty() && timers_.top().first <= now) {
      auto [due, sid] = timers_.top();
      timers_.pop();
      Send(sid, sessions_[sid].next, due);
    }
    if (now >= next_tick) {
      result_.open_sessions.push_back(open_sessions_);
      result_.completed_at_tick.push_back(result_.sessions_completed);
      if (*on_tick_) (*on_tick_)();
      next_tick += kTickNs;
    }
    bool arrivals_done = next_arrival >= arrivals.size();
    if (arrivals_done && open_sessions_ == 0 && !AcceptingSessions(now)) break;
    if (now > deadline_ns_ + kDrainLimitNs) {
      ++result_.transport_errors;
      if (result_.first_error.empty()) {
        result_.first_error = "sessions still open 20 s after the deadline";
      }
      break;
    }
    // The generator polls instead of sleeping: a sleeping client thread
    // would add its own wake-up latency (large and erratic on virtual
    // CPUs) to every answer it times, and to every send it schedules.
    int n = ::epoll_wait(gen_->epoll_fd_, events, 16, 0);
    for (int i = 0; i < n; ++i) {
      size_t index = static_cast<size_t>(events[i].data.u64);
      if (gen_->conns_[index]->dead) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        OnReadable(index);  // Drains what arrived, then reports the close.
        if (!gen_->conns_[index]->dead) {
          TransportError(index, "socket error");
        }
        continue;
      }
      if (events[i].events & EPOLLOUT) Flush(index);
      if (!gen_->conns_[index]->dead && (events[i].events & EPOLLIN)) {
        OnReadable(index);
      }
    }
    if (n > 0 ||
        result_.samples.size() + result_.lateness_ms.size() != work_before) {
      busy_ns += NowNs() - now;
    }
  }
  result_.wall_s =
      static_cast<double>(std::max(last_answer_ns_, start_ns_) - start_ns_) /
      1e9;
  result_.generator_busy_s = static_cast<double>(busy_ns) / 1e9;
  result_.generator_cpu_s = ThreadCpuSeconds() - cpu_start;
  result_.sessions.reserve(sessions_.size());
  for (Session& s : sessions_) result_.sessions.push_back(std::move(s.log));
  return std::move(result_);
}

PhaseResult LoadGenerator::Run(uint64_t seed, double seconds,
                               bool capture_frames,
                               const std::function<void()>& on_tick) {
  Phase phase(this, seed, seconds, capture_frames, &on_tick);
  return phase.Run();
}

}  // namespace perfbench
