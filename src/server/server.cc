#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <utility>

#include "base/strings.h"
#include "base/sync.h"
#include "server/client.h"

namespace oodb::server {

namespace {

// epoll tags: the listener and the eventfd get reserved ids; connections
// use their conns_ key (>= 2).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kEventTag = 1;

// Text command lines longer than this are a malformed peer (matches
// FrameReader::ReadLine's default cap on the client side).
constexpr size_t kMaxTextLine = 1 << 16;

// Soft cap on a connection's unwritten output. Reading (and therefore
// parsing) pauses above it; nothing is ever dropped.
constexpr size_t kMaxOutBuffer = size_t{16} << 20;

// Output-queue chunking: replies append into the back chunk up to this
// size, so a pipelined burst of small replies leaves as a few large
// iovecs instead of hundreds of tiny ones.
constexpr size_t kOutChunk = size_t{8} << 10;

// iovec slots per sendmsg. Deep pipelines with large replies flush in
// several calls; the gather write still beats one send per frame.
constexpr int kMaxIov = 64;

Reply StatusReply(const Status& status) {
  return ErrReply(StatusCodeName(status.code()), status.message());
}

Reply UsageReply(const VerbSpec& spec) {
  return ErrReply(kErrProto, spec.usage);
}

// Parses a non-negative integer token; returns false on garbage.
bool ParseSize(const std::string& token, size_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

// Optional trace-propagation header on the cluster envelopes: the token
// right after FORWARD/REPL may be `@<origin-node-index>:<trace-id>`,
// naming the sending node and its request's trace id. Absent header =
// pre-header framing (hand-crafted frames in tests keep working).
bool ParseEnvelopeHeader(const std::string& token, size_t* origin,
                         uint64_t* trace_id) {
  if (token.size() < 4 || token[0] != '@') return false;
  const size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 1 || colon + 1 >= token.size()) {
    return false;
  }
  size_t id = 0;
  return ParseSize(token.substr(1, colon - 1), origin) &&
         ParseSize(token.substr(colon + 1), &id) &&
         (*trace_id = id, true);
}

}  // namespace

Server::Request Server::Request::Parse(std::vector<std::string> tokens) {
  Request req;
  req.tokens = std::move(tokens);
  if (req.tokens.empty()) return req;
  req.spec = FindVerb(req.tokens[0]);
  if (req.spec == nullptr || !req.spec->Has(kEnvelope)) return req;
  if (req.tokens.size() > 1 &&
      ParseEnvelopeHeader(req.tokens[1], &req.origin, &req.origin_trace)) {
    req.args_at = 2;
  }
  // REPL carries its request after the sequence number.
  const size_t at = req.args_at + (req.spec->verb == Verb::kRepl ? 1 : 0);
  if (at < req.tokens.size()) req.carried_at = at;
  return req;
}

Server::Command Server::Request::command() const {
  return {spec, tokens[0], Args(tokens).subspan(args_at)};
}

Server::Command Server::Request::carried() const {
  if (carried_at == 0) return {};
  return {FindVerb(tokens[carried_at]), tokens[carried_at],
          Args(tokens).subspan(carried_at + 1)};
}

std::string Server::Command::line() const {
  return args.empty() ? std::string(verb)
                      : StrCat(verb, " ", StrJoin(args, " "));
}

// Per-connection state machine, owned by the event-loop thread. A
// connection is always in one of three read states (deciding the
// preamble, streaming frames, read side closed) and flushes its output
// buffer opportunistically, arming EPOLLOUT only while bytes remain.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;

  // Protocol negotiation: text vs binary is decided by the first bytes.
  bool preamble_decided = false;
  bool binary = false;

  std::string in;      // received, not yet parsed past in_pos
  size_t in_pos = 0;   // parse cursor into in

  // Output: encoded replies queued as chunks and flushed with a single
  // gather write (sendmsg) per syscall instead of one send per frame.
  std::deque<std::string> outq;
  size_t out_head = 0;   // write cursor into outq.front()
  size_t out_bytes = 0;  // unwritten bytes across the whole queue

  size_t inflight = 0;        // pooled requests outstanding
  bool text_waiting = false;  // text: one pooled request at a time
                              // (replies must stay in request order)
  bool rd_eof = false;        // peer half-closed; no more input
  bool closing = false;       // finish inflight + flush, then close
  bool discard_input = false;  // stream unrecoverable: parse no more
  uint32_t armed = 0;          // epoll interest currently registered
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      slow_log_(options_.slow_log_capacity, options_.slow_threshold_ms) {
  size_t threads = options_.num_threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  pool_ = std::make_unique<service::ThreadPool>(threads);
  // The input cap must admit the largest legal frame in one piece: a
  // text LOAD/STATE payload or a binary frame, plus header slack.
  in_cap_ =
      std::max(options_.max_payload, size_t{kMaxBinaryFrame}) + (64u << 10);
  if (options_.cluster.enabled()) {
    ring_ = std::make_unique<cluster::Ring>(options_.cluster.nodes);
    peers_ = std::make_unique<cluster::PeerPool>(options_.cluster.nodes);
    replicator_ = std::make_unique<cluster::Replicator>(options_.cluster,
                                                        *ring_, peers_.get());
  }
  RegisterMetrics();
}

void Server::RegisterMetrics() {
  // Latency histograms exist only for verbs that run through the pool;
  // inline verbs are not timed.
  for (const VerbSpec& spec : kVerbs) {
    if (spec.Has(kInline)) continue;
    latency_[static_cast<size_t>(spec.verb)] = registry_.GetHistogram(
        "oodb_server_request_seconds",
        "End-to-end request latency (admission to reply written)",
        {{"verb", std::string(spec.name)}}, 1e-9);
  }
  loop_batch_hist_ = registry_.GetHistogram(
      "oodb_loop_ready_batch", "Ready events per epoll_wait return", {}, 1);
  loop_lag_hist_ = registry_.GetHistogram(
      "oodb_loop_iteration_lag_seconds",
      "Event-loop iteration service time (epoll_wait return to "
      "completions drained)",
      {}, 1e-9);
  if (options_.cluster.enabled()) {
    forward_rtt_.assign(options_.cluster.nodes.size(), nullptr);
    peer_names_.reserve(options_.cluster.nodes.size());
    for (size_t i = 0; i < options_.cluster.nodes.size(); ++i) {
      peer_names_.push_back(options_.cluster.nodes[i].ToString());
      if (i == options_.cluster.self) continue;
      forward_rtt_[i] = registry_.GetHistogram(
          "oodb_cluster_forward_roundtrip_seconds",
          "FORWARD proxy round-trip to a peer (network + remote engine)",
          {{"peer", peer_names_[i]}}, 1e-9);
    }
  }
  registry_.AddCallback(
      [this](obs::Collector& out) { AppendServerMetrics(out); });
}

void Server::AppendServerMetrics(obs::Collector& out) const {
  const auto relaxed = std::memory_order_relaxed;
  out.AddCounter("oodb_server_connections_total", "TCP connections accepted",
                 {}, connections_.load(relaxed));
  out.AddCounter("oodb_server_requests_total",
                 "Frames parsed, including rejected ones", {},
                 requests_.load(relaxed));
  out.AddCounter("oodb_server_ok_total", "OK replies", {}, ok_.load(relaxed));
  out.AddCounter("oodb_server_errors_total", "ERR replies", {},
                 errors_.load(relaxed));
  out.AddCounter("oodb_server_busy_total",
                 "BUSY replies (admission bound hit)", {},
                 busy_.load(relaxed));
  out.AddCounter("oodb_server_deadline_expired_total",
                 "Requests expired in the admission queue", {},
                 deadline_expired_.load(relaxed));
  out.AddCounter("oodb_server_slow_queries_total",
                 "Requests recorded by the slow-query log", {},
                 slow_log_.recorded());
  for (size_t i = 0; i < kNumVerbs; ++i) {
    const uint64_t n = verb_requests_[i].load(relaxed);
    if (n == 0) continue;
    const obs::Labels labels = {{"verb", VerbName(static_cast<Verb>(i))}};
    out.AddCounter("oodb_server_verb_requests_total", "Requests by verb",
                   labels, n);
    out.AddCounter("oodb_server_verb_errors_total", "ERR replies by verb",
                   labels, verb_errors_[i].load(relaxed));
  }
  out.AddGauge("oodb_server_pending",
               "Requests admitted (queued or running)", {},
               admitted_.load(relaxed));
  out.AddGauge("oodb_server_open_connections",
               "Connections registered with the event loop", {},
               open_conns_.load(relaxed));
  out.AddGauge("oodb_server_threads", "Worker threads", {}, pool_->size());
  // Event-loop self-instrumentation (the companion histograms
  // oodb_loop_ready_batch / oodb_loop_iteration_lag_seconds are
  // registry-owned and render on their own).
  out.AddGauge("oodb_loop_connections",
               "Connections owned by the event loop", {},
               open_conns_.load(relaxed));
  out.AddGauge("oodb_loop_write_queue_bytes",
               "Unwritten reply bytes across all connection output queues",
               {}, write_queue_bytes_.load(relaxed));
  {
    size_t depth = 0;
    {
      base::MutexLock lock(&comp_mu_);
      depth = completions_.size();
    }
    out.AddGauge("oodb_loop_completion_queue_depth",
                 "Encoded replies awaiting the event loop", {}, depth);
  }
  if (ring_ != nullptr) {
    // Cluster-only series: a single-node daemon's exposition is
    // byte-identical to what it was before cluster mode existed.
    out.AddCounter("oodb_server_forwards_total",
                   "Requests proxied to another cluster node", {},
                   forwards_.load(relaxed));
    out.AddCounter("oodb_server_forward_failures_total",
                   "Proxied requests with no reachable peer", {},
                   forward_failures_.load(relaxed));
    out.AddCounter("oodb_server_replica_reads_total",
                   "Reads served from this node's replica copies", {},
                   replica_reads_.load(relaxed));
    out.AddCounter("oodb_server_repl_applies_total",
                   "Replicated mutations applied in sequence", {},
                   repl_applies_.load(relaxed));
    out.AddCounter("oodb_server_repl_dups_total",
                   "Replicated mutations already applied", {},
                   repl_dups_.load(relaxed));
    out.AddCounter("oodb_server_repl_gaps_total",
                   "Replication gap rejections (resync trigger)", {},
                   repl_gaps_.load(relaxed));
    const cluster::Replicator::Stats rs = replicator_->stats();
    out.AddCounter("oodb_server_repl_sent_total",
                   "REPL frames pushed to replicas", {}, rs.sent);
    out.AddCounter("oodb_server_repl_acked_total",
                   "REPL frames acknowledged by replicas", {}, rs.acked);
    out.AddCounter("oodb_server_repl_push_failures_total",
                   "REPL pushes that failed (retried on next flush)", {},
                   rs.failures);
    out.AddCounter("oodb_server_repl_resyncs_total",
                   "Replica resyncs (cursor rewinds)", {}, rs.resyncs);
    out.AddGauge("oodb_server_repl_max_lag",
                 "Worst replica lag in log entries", {}, rs.max_lag);
    // Replication lag, exported under the cluster family alongside the
    // per-peer health gauges (oodb_server_repl_max_lag kept above for
    // compatibility).
    out.AddGauge("oodb_cluster_repl_lag_max",
                 "Worst replica lag over live logs, in log entries", {},
                 rs.max_lag);
    out.AddGauge("oodb_cluster_repl_lag_sum",
                 "Total replica lag over all replica slots, in log entries",
                 {}, rs.lag_sum);
    // Per-peer liveness, as seen from this node's FORWARD/REPL traffic.
    const int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const std::vector<cluster::PeerPool::PeerStats> ps = peers_->stats();
    for (size_t i = 0; i < ps.size(); ++i) {
      if (i == options_.cluster.self) continue;
      const obs::Labels labels = {
          {"peer", options_.cluster.nodes[i].ToString()}};
      out.AddGauge("oodb_cluster_peer_up",
                   "1 if the last exchange with this peer succeeded",
                   labels, ps[i].consecutive_failures == 0 ? 1 : 0);
      out.AddGauge("oodb_cluster_peer_consecutive_failures",
                   "Failures since the last healthy exchange", labels,
                   ps[i].consecutive_failures);
      out.AddGauge(
          "oodb_cluster_peer_last_ack_age_ms",
          "Milliseconds since the last healthy exchange (-1 = never)",
          labels,
          ps[i].last_ok_ms < 0 ? -1 : now_ms - ps[i].last_ok_ms);
      out.AddCounter("oodb_cluster_peer_dials_total",
                     "Fresh connections established to this peer", labels,
                     ps[i].dials);
      out.AddCounter("oodb_cluster_peer_failures_total",
                     "Dial failures plus poisoned connections", labels,
                     ps[i].failures);
      out.AddCounter("oodb_cluster_peer_timeouts_total",
                     "Send/recv deadline expiries (subset of failures)",
                     labels, ps[i].timeouts);
    }
  }
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> all;
  {
    base::MutexLock lock(&sessions_mu_);
    all.assign(sessions_.begin(), sessions_.end());
  }
  out.AddGauge("oodb_server_sessions", "Live named sessions", {}, all.size());
  for (const auto& [name, session] : all) {
    // Same lock order as DispatchStats: sessions_mu_ released first, then
    // each session's shared lock in turn.
    base::ReaderLock lock(&session->mu());
    session->AppendMetrics(out, {{"session", name}});
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) Shutdown();
}

Result<int> Server::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return InternalError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return FailedPreconditionError(
        StrCat("cannot bind 127.0.0.1:", options_.port));
  }
  if (::listen(fd, 1024) != 0) {
    ::close(fd);
    return InternalError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return InternalError("getsockname() failed");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    ::close(fd);
    return InternalError("epoll_create1()/eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return InternalError("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kEventTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    ::close(fd);
    return InternalError("epoll_ctl(eventfd) failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  loop_ = std::thread([this] { EventLoop(); });
  return port_;
}

void Server::EventLoop() {
  bool listener_active = true;
  uint64_t loop_iters = 0;
  std::array<epoll_event, 128> events;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && listener_active) {
      // Deregister and close the listener: the port is released and new
      // connects are refused while the drain completes.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listener_active = false;
    }
    if (loop_stop_.load(std::memory_order_acquire)) {
      // The pool has drained: every admitted request has queued its
      // completion. Route the leftovers and flush what the sockets will
      // take within a bounded grace period.
      DrainCompletions();
      FinalFlush();
      break;
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Iteration sampling: the batch-size histogram is one lock-free
    // record per wakeup. The lag histogram needs two clock reads, which
    // are costly on hosts without a vDSO fast path, so it is taken on
    // 1-in-16 wakeups (bench_obs E21 budget) — it is a service-time
    // distribution; totals come from the verb counters.
    const bool sample_loop = obs::Enabled();
    const bool sample_lag = sample_loop && (loop_iters++ & 15) == 0;
    std::chrono::steady_clock::time_point iter_start;
    if (sample_lag) iter_start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (listener_active) HandleAccept();
        continue;
      }
      if (tag == kEventTag) {
        uint64_t counter = 0;
        while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HandleReadable(*it->second);
        it = conns_.find(tag);
        if (it == conns_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(*it->second);
    }
    DrainCompletions();
    if (sample_loop) loop_batch_hist_->RecordAlways(static_cast<uint64_t>(n));
    if (sample_lag) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - iter_start)
                          .count();
      loop_lag_hist_->RecordAlways(ns > 0 ? static_cast<uint64_t>(ns) : 1);
    }
  }
  // Loop exit: drop whatever is left.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  open_conns_.store(0, std::memory_order_relaxed);
  write_queue_bytes_.store(0, std::memory_order_relaxed);
  if (listener_active) ::close(listen_fd_);
}

void Server::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept error
    }
    int one = 1;
    // Replies are small and latency-bound: never wait for Nagle.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->armed = EPOLLIN;
    connections_.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleReadable(Connection& conn) {
  char chunk[32 << 10];
  bool fatal = false;
  while (conn.in.size() - conn.in_pos < in_cap_) {
    ssize_t r = ::read(conn.fd, chunk, sizeof(chunk));
    if (r > 0) {
      conn.in.append(chunk, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      // Half-close: the peer may still be waiting for replies to frames
      // it pipelined before the FIN, so finish those before closing.
      conn.rd_eof = true;
      conn.closing = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fatal = true;
    break;
  }
  if (fatal) {
    CloseConnection(conn.id);
    return;
  }
  if (!conn.preamble_decided && !conn.in.empty()) {
    const size_t n = std::min(conn.in.size(), kBinaryPreamble.size());
    if (conn.in.compare(0, n, kBinaryPreamble.data(), n) != 0) {
      conn.preamble_decided = true;  // not a preamble prefix: legacy text
    } else if (conn.in.size() >= kBinaryPreamble.size()) {
      conn.preamble_decided = true;
      conn.binary = true;
      conn.in_pos = kBinaryPreamble.size();
    }
    // else: a strict prefix of the preamble; wait for more bytes.
  }
  ParseFrames(conn);
  FlushOutput(conn);
}

void Server::HandleWritable(Connection& conn) { FlushOutput(conn); }

void Server::ParseFrames(Connection& conn) {
  if (!conn.preamble_decided) return;
  while (!conn.discard_input) {
    if (conn.out_bytes > kMaxOutBuffer) break;
    if (conn.binary) {
      if (conn.inflight >= options_.max_inflight_per_conn) break;
      if (!ParseBinaryFrame(conn)) break;
    } else {
      if (conn.text_waiting) break;
      if (!ParseTextFrame(conn)) break;
    }
  }
  // Compact once the consumed prefix dominates the buffer.
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
  if (!pending_work_.empty()) SubmitPooled(conn);
}

bool Server::ParseTextFrame(Connection& conn) {
  std::string_view buf = std::string_view(conn.in).substr(conn.in_pos);
  const size_t nl = buf.find('\n');
  if (nl == std::string_view::npos) {
    if (buf.size() > kMaxTextLine) {
      // Malformed peer (unterminated line); no reply can be framed.
      conn.closing = true;
      conn.discard_input = true;
    }
    return false;
  }
  if (nl > kMaxTextLine) {
    conn.closing = true;
    conn.discard_input = true;
    return false;
  }
  Request req = Request::Parse(SplitTokens(buf.substr(0, nl)));
  if (req.tokens.empty()) {  // blank line: ignore
    conn.in_pos += nl + 1;
    return true;
  }
  // Payload-carrying verbs, bare or inside an envelope: the line ends
  // with the byte count; the payload plus one terminating '\n' follows.
  // A line with the wrong argument count or an unreadable count carries
  // no payload; dispatch answers it with the verb's usage.
  size_t frame_len = nl + 1;
  const Command target = req.target();
  size_t nbytes = 0;
  if (target.spec != nullptr && target.spec->Has(kPayload) &&
      target.spec->ArityOk(target.args.size()) &&
      ParseSize(target.args.back(), &nbytes)) {
    Reply reject;
    if (nbytes > options_.max_payload) {
      // The payload cannot be admitted.
      reject = ErrReply(kErrProto, StrCat("payload exceeds ",
                                          options_.max_payload, " bytes"));
    } else if (buf.size() < nl + 1 + nbytes + 1) {
      return false;  // need more bytes
    } else if (buf[nl + 1 + nbytes] != '\n') {
      // The count does not frame the payload: the same usage reply a
      // binary frame with a mismatched count gets.
      reject = UsageReply(*target.spec);
    }
    if (reject.kind == Reply::Kind::kErr) {
      // Reply, then close: the unread bytes make the stream unrecoverable.
      conn.in_pos += frame_len;
      conn.closing = true;
      conn.discard_input = true;
      CountRequest(req.spec->verb);
      QueueReply(conn, 0, reject, req.spec->verb);
      return false;
    }
    req.payload.assign(buf.substr(nl + 1, nbytes));
    frame_len += nbytes + 1;
  }
  conn.in_pos += frame_len;
  HandleFrame(conn, 0, std::move(req));
  return true;
}

bool Server::ParseBinaryFrame(Connection& conn) {
  std::string_view buf = std::string_view(conn.in).substr(conn.in_pos);
  if (buf.empty()) return false;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  switch (ParseBinaryRequest(buf, &consumed, &req, &error)) {
    case ParseStatus::kNeedMore:
      return false;
    case ParseStatus::kBad:
      // Addressed to the frame's id when the header was readable; the
      // framing is gone, so close after the reply flushes.
      CountRequest(Verb::kOther);
      QueueReply(conn, req.id, ErrReply(kErrProto, error), Verb::kOther);
      conn.closing = true;
      conn.discard_input = true;
      return false;
    case ParseStatus::kFrame:
      break;
  }
  conn.in_pos += consumed;
  Request parsed = Request::Parse(std::move(req.tokens));
  parsed.payload = std::move(req.payload);
  HandleFrame(conn, req.id, std::move(parsed));
  return true;
}

void Server::HandleFrame(Connection& conn, uint64_t request_id,
                         Request req) {
  const Verb vkind = req.spec != nullptr ? req.spec->verb : Verb::kOther;
  CountRequest(vkind);
  if (req.tokens.empty()) {  // binary kLine frame with an empty command line
    return QueueReply(conn, request_id, ErrReply(kErrProto, "empty command"),
                      vkind);
  }

  // Inline verbs are answered on the loop — they must work even when the
  // admission queue is saturated, and while draining.
  if (req.spec != nullptr && req.spec->Has(kInline)) {
    QueueReply(conn, request_id, Execute(req.command(), req.payload, nullptr),
               vkind);
    if (vkind == Verb::kShutdown) {
      conn.closing = true;
      conn.discard_input = true;
    }
    return;
  }
  if (stopping_.load(std::memory_order_relaxed)) {
    return QueueReply(conn, request_id,
                      ErrReply(kErrShutdown, "server is draining"), vkind);
  }

  // Bounded admission: reply BUSY instead of queueing without limit.
  if (admitted_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_pending) {
    admitted_.fetch_sub(1, std::memory_order_acq_rel);
    Reply reply;
    reply.kind = Reply::Kind::kBusy;
    return QueueReply(conn, request_id, reply, vkind);
  }

  // Per-request trace: spans are filled on the worker, which also
  // finalizes the trace and the latency histogram when it encodes the
  // reply (the loop only moves bytes from there on).
  std::shared_ptr<obs::TraceContext> trace;
  if (obs::Enabled() && slow_log_.enabled()) {
    trace = std::make_shared<obs::TraceContext>();
    trace->id = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    trace->verb = req.tokens[0];
    const Command target = req.target();
    if (target.spec != nullptr && target.spec->Has(kSession) &&
        !target.args.empty()) {
      trace->session = target.args[0];
    }
  }

  conn.inflight++;
  if (!conn.binary) conn.text_waiting = true;
  PooledWork work;
  work.request_id = request_id;
  work.vkind = vkind;
  work.trace = std::move(trace);
  work.enqueued = std::chrono::steady_clock::now();
  work.request = std::move(req);
  pending_work_.push_back(std::move(work));
}

void Server::SubmitPooled(Connection& conn) {
  // Rollback addresses, should the pool refuse the burst (it destroys
  // the unrun task — and the work it captured — when draining).
  std::vector<std::pair<uint64_t, Verb>> staged;
  staged.reserve(pending_work_.size());
  for (const PooledWork& w : pending_work_) {
    staged.emplace_back(w.request_id, w.vkind);
  }
  const uint64_t conn_id = conn.id;
  const bool binary = conn.binary;
  bool submitted = pool_->Submit(
      [this, conn_id, binary, work = std::move(pending_work_)]() mutable {
        std::vector<Completion> batch;
        batch.reserve(work.size());
        for (PooledWork& w : work) {
          batch.push_back(FinalizeOnWorker(conn_id, binary, std::move(w)));
        }
        PushCompletions(std::move(batch));
      });
  pending_work_.clear();  // moved-from: restore the between-passes invariant
  if (!submitted) {  // pool already draining
    for (const auto& [request_id, vkind] : staged) {
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
      conn.inflight--;
      conn.text_waiting = false;
      QueueReply(conn, request_id,
                 ErrReply(kErrShutdown, "server is draining"), vkind);
    }
  }
}

void Server::CountRequest(Verb vkind) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  verb_requests_[static_cast<size_t>(vkind)].fetch_add(
      1, std::memory_order_relaxed);
}

void Server::CountReply(const Reply& reply, Verb vkind) {
  switch (reply.kind) {
    case Reply::Kind::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Reply::Kind::kErr:
      errors_.fetch_add(1, std::memory_order_relaxed);
      verb_errors_[static_cast<size_t>(vkind)].fetch_add(
          1, std::memory_order_relaxed);
      break;
    case Reply::Kind::kBusy:
      busy_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Server::QueueReply(Connection& conn, uint64_t request_id,
                        const Reply& reply, Verb vkind) {
  CountReply(reply, vkind);
  AppendOutput(conn, conn.binary ? EncodeBinaryReply(request_id, reply)
                                 : EncodeReply(reply));
}

void Server::AppendOutput(Connection& conn, std::string bytes) {
  conn.out_bytes += bytes.size();
  write_queue_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (!conn.outq.empty() &&
      conn.outq.back().size() + bytes.size() <= kOutChunk) {
    conn.outq.back().append(bytes);
  } else {
    conn.outq.push_back(std::move(bytes));
  }
}

void Server::ConsumeOutput(Connection& conn, size_t n) {
  conn.out_bytes -= n;
  write_queue_bytes_.fetch_sub(n, std::memory_order_relaxed);
  while (n > 0) {
    std::string& front = conn.outq.front();
    const size_t avail = front.size() - conn.out_head;
    if (n < avail) {
      conn.out_head += n;
      return;
    }
    n -= avail;
    conn.outq.pop_front();
    conn.out_head = 0;
  }
}

bool Server::WriteOutput(Connection& conn) {
  while (conn.out_bytes > 0) {
    // One gather write per syscall: a pipelined burst of replies leaves
    // in a handful of sendmsg calls, not one send per frame. sendmsg
    // rather than writev for MSG_NOSIGNAL (no SIGPIPE on a dead peer).
    iovec iov[kMaxIov];
    size_t n = 0;
    size_t head = conn.out_head;
    for (const std::string& chunk : conn.outq) {
      if (n == kMaxIov) break;
      iov[n].iov_base = const_cast<char*>(chunk.data()) + head;
      iov[n].iov_len = chunk.size() - head;
      head = 0;
      ++n;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t w = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      ConsumeOutput(conn, static_cast<size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

Server::Completion Server::FinalizeOnWorker(uint64_t conn_id, bool binary,
                                            PooledWork work) {
  Reply reply;
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - work.enqueued)
                          .count();
  if (options_.deadline_ms > 0 && waited > options_.deadline_ms) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    reply = ErrReply(kErrDeadline,
                     StrCat("queued ", waited, " ms, deadline ",
                            options_.deadline_ms, " ms"));
  } else {
    reply = Dispatch(work.request, work.trace.get());
  }
  admitted_.fetch_sub(1, std::memory_order_acq_rel);

  CountReply(reply, work.vkind);
  obs::TraceContext* trace = work.trace.get();
  std::string bytes;
  {
    obs::ScopedSpan span(trace, obs::Phase::kReply);
    bytes = binary ? EncodeBinaryReply(work.request_id, reply)
                   : EncodeReply(reply);
  }
  if (obs::Enabled()) {
    const auto elapsed = std::chrono::steady_clock::now() - work.enqueued;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    const uint64_t total_ns = ns > 0 ? static_cast<uint64_t>(ns) : 1;
    if (obs::Histogram* hist = latency_[static_cast<size_t>(work.vkind)]) {
      hist->RecordAlways(total_ns);
    }
    if (trace != nullptr) {
      trace->total_ns = total_ns;
      trace->ok = reply.kind == Reply::Kind::kOk;
      slow_log_.Finish(std::move(*trace));
    }
  }
  return Completion{conn_id, std::move(bytes)};
}

void Server::PushCompletions(std::vector<Completion> batch) {
  bool was_empty;
  {
    base::MutexLock lock(&comp_mu_);
    was_empty = completions_.empty();
    for (Completion& c : batch) completions_.push_back(std::move(c));
  }
  // One wakeup per empty→non-empty transition: the loop drains the whole
  // vector at once, so later pushes ride the same eventfd signal.
  if (was_empty) WakeLoop();
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    base::MutexLock lock(&comp_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  std::vector<uint64_t> touched;
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while running
    Connection& conn = *it->second;
    AppendOutput(conn, std::move(c.bytes));
    if (conn.inflight > 0) conn.inflight--;
    conn.text_waiting = false;
    if (touched.empty() || touched.back() != c.conn_id) {
      touched.push_back(c.conn_id);
    }
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    // A completion may unblock parsing (text ordering, pipeline bound).
    ParseFrames(*it->second);
    FlushOutput(*it->second);
  }
}

void Server::FlushOutput(Connection& conn) {
  if (!WriteOutput(conn)) {
    CloseConnection(conn.id);  // peer is gone; replies are undeliverable
    return;
  }
  // ParseFrames ran before every flush, so an empty pipe here means no
  // further progress is possible on a closing connection.
  if (conn.closing && conn.inflight == 0 && conn.out_bytes == 0) {
    CloseConnection(conn.id);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection& conn) {
  uint32_t want = 0;
  const size_t unparsed = conn.in.size() - conn.in_pos;
  const size_t pending = conn.out_bytes;
  if (!conn.rd_eof && !conn.discard_input && unparsed < in_cap_ &&
      pending < kMaxOutBuffer) {
    want |= EPOLLIN;
  }
  if (pending > 0) want |= EPOLLOUT;
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed = want;
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  write_queue_bytes_.fetch_sub(it->second->out_bytes,
                               std::memory_order_relaxed);
  conns_.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::FinalFlush() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (auto& [id, conn] : conns_) {
    while (WriteOutput(*conn) && conn->out_bytes > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
    }
  }
}

Reply Server::Dispatch(const Request& req, obs::TraceContext* trace) {
  const Command cmd = req.command();
  if (cmd.spec == nullptr || !cmd.spec->Has(kEnvelope)) {
    return Serve(cmd, req.payload, trace, /*forwarded=*/false);
  }
  // Cluster envelopes: FORWARD unwraps to a serve with the ownership
  // check suppressed, REPL to a serialized replica apply.
  const bool repl = cmd.spec->verb == Verb::kRepl;
  if (ring_ == nullptr) {
    return ErrReply(kErrProto, StrCat(cmd.verb, " outside cluster mode"));
  }
  if (trace != nullptr) {
    // Stamp where the request came from onto this node's trace.
    trace->route = repl ? "replica" : "forwarded";
    if (req.args_at > 1) {  // the envelope had a header
      trace->origin_trace_id = req.origin_trace;
      if (req.origin < peer_names_.size()) {
        trace->peer = peer_names_[req.origin];
      }
    }
  }
  if (!cmd.spec->ArityOk(cmd.args.size())) return UsageReply(*cmd.spec);
  if (repl) return ApplyRepl(req, trace);
  const Command inner = req.carried();
  if (inner.spec != nullptr &&
      (inner.spec->Has(kInline) || inner.spec->Has(kEnvelope))) {
    return ErrReply(kErrProto,
                    StrCat("FORWARD cannot carry '", inner.verb, "'"));
  }
  return Serve(inner, req.payload, trace, /*forwarded=*/true);
}

Reply Server::Serve(const Command& cmd, const std::string& payload,
                    obs::TraceContext* trace, bool forwarded) {
  const bool session_verb = cmd.spec != nullptr &&
                            cmd.spec->Has(kSession) && !cmd.args.empty();
  // Ownership: a session verb arriving from an ordinary client on a
  // node that does not own the session is served locally only when this
  // node replicates it (reads), otherwise proxied to the owner.
  if (ring_ != nullptr && !forwarded && session_verb) {
    const std::string& session = cmd.args[0];
    const size_t owner = ring_->OwnerOf(session);
    if (owner != options_.cluster.self) {
      const bool replica_read =
          !cmd.spec->Has(kMutation) &&
          ring_->IsReplicaOf(session, options_.cluster.self,
                             options_.cluster.EffectiveReplicas());
      if (!replica_read) return ForwardToOwner(owner, cmd, payload, trace);
      replica_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Reply reply = Execute(cmd, payload, trace);

  // Replication hook: the owner logs every applied mutation and pushes
  // it to the session's replicas before the reply leaves this node.
  if (ring_ != nullptr && reply.kind == Reply::Kind::kOk && session_verb &&
      cmd.spec->Has(kMutation)) {
    const std::string& session = cmd.args[0];
    // The push is synchronous: its cost is this request's, so it gets
    // its own phase. The REPL header carries this trace's id so the
    // replica's entry can be joined back here.
    obs::ScopedSpan span(trace, obs::Phase::kReplicate);
    replicator_->Record(session, cmd.line(), payload,
                        trace != nullptr ? trace->id : 0);
    replicator_->Flush(session);
  }
  return reply;
}

Reply Server::ApplyRepl(const Request& req, obs::TraceContext* trace) {
  const Command cmd = req.command();
  const Command inner = req.carried();
  size_t seq = 0;
  if (!ParseSize(cmd.args[0], &seq) || seq == 0) return UsageReply(*cmd.spec);
  if (inner.spec == nullptr || !inner.spec->Has(kMutation)) {
    return ErrReply(kErrProto,
                    StrCat("REPL cannot carry '", inner.verb, "'"));
  }
  const std::string& session = inner.args[0];
  // Serialized per daemon: pipelined REPL frames for one session may
  // land on different workers, and they must apply in sequence order.
  base::MutexLock lock(&repl_mu_);
  uint64_t& applied = replica_applied_[session];
  if (seq <= applied) {
    // Duplicate delivery (owner retried after a lost ack): idempotent.
    repl_dups_.fetch_add(1, std::memory_order_relaxed);
    return OkReply(StrCat("applied=", applied, " dup=true"));
  }
  // In-sequence, or a verb that rebuilds the session from scratch and is
  // therefore a valid resync point at any forward sequence number.
  if (seq != applied + 1 && !inner.spec->Has(kResync)) {
    repl_gaps_.fetch_add(1, std::memory_order_relaxed);
    return ErrReply("replica_gap", StrCat("have=", applied));
  }
  // A replica apply is never routed and never re-replicated.
  Reply reply = Execute(inner, req.payload, trace);
  if (reply.kind != Reply::Kind::kOk) return reply;
  applied = seq;
  repl_applies_.fetch_add(1, std::memory_order_relaxed);
  return OkReply(StrCat("applied=", seq));
}

Reply Server::ForwardToOwner(size_t owner, const Command& cmd,
                             const std::string& payload,
                             obs::TraceContext* trace) {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  // The whole proxy attempt — dialing, the round trip(s), failover — is
  // the forward phase: total_ns minus forward_ns is what this node
  // spent, forward_ns is network plus the remote node's work.
  obs::ScopedSpan span(trace, obs::Phase::kForward);
  const std::string line =
      StrCat("FORWARD @", options_.cluster.self, ":",
             trace != nullptr ? trace->id : 0, " ", cmd.line());
  // The owner first; for idempotent reads, the session's replicas next,
  // so every node keeps answering reads while the owner is down.
  std::vector<size_t> targets{owner};
  if (cmd.spec->Has(kIdempotent)) {
    for (const size_t r : ring_->ReplicasOf(
             cmd.args[0], options_.cluster.EffectiveReplicas())) {
      if (r != options_.cluster.self) targets.push_back(r);
    }
  }
  Reply reply = ErrReply("unavailable", "no cluster peer reachable");
  for (const size_t node : targets) {
    if (ForwardTo(node, line, payload, &reply)) {
      if (trace != nullptr && node < peer_names_.size()) {
        trace->peer = peer_names_[node];
      }
      return reply;
    }
  }
  forward_failures_.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

bool Server::ForwardTo(size_t node, const std::string& line,
                       const std::string& payload, Reply* reply) {
  auto borrowed = peers_->Acquire(node);
  if (!borrowed.ok()) {
    *reply = ErrReply("unavailable",
                      std::string(borrowed.status().message()));
    return false;
  }
  std::unique_ptr<Client> peer = std::move(*borrowed);
  // RTT is sampled 1-in-8 forwards: the two clock reads it needs are the
  // expensive part on hosts without a vDSO fast path (bench_obs E21
  // budget). The histogram is a latency distribution; forward totals
  // come from the per-verb request counters.
  const bool sample =
      obs::Enabled() &&
      (forward_samples_.fetch_add(1, std::memory_order_relaxed) & 7) == 0;
  std::chrono::steady_clock::time_point t0;
  if (sample) t0 = std::chrono::steady_clock::now();
  auto r = peer->Roundtrip(line, payload.empty() ? nullptr : &payload);
  if (sample && node < forward_rtt_.size() &&
      forward_rtt_[node] != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    forward_rtt_[node]->RecordAlways(ns > 0 ? static_cast<uint64_t>(ns) : 1);
  }
  bool healthy = true;
  bool answered = true;
  if (r.ok()) {
    *reply = OkReply(std::move(*r));
  } else {
    switch (r.status().code()) {
      case StatusCode::kResourceExhausted: {  // the peer answered BUSY
        Reply busy;
        busy.kind = Reply::Kind::kBusy;
        *reply = busy;
        break;
      }
      case StatusCode::kFailedPrecondition: {
        // An ERR reply, carried as "<code>: <message>" — re-split it so
        // the original error reaches the client unchanged.
        const std::string msg(r.status().message());
        const size_t sep = msg.find(": ");
        *reply = sep == std::string::npos
                     ? ErrReply(kErrProto, msg)
                     : ErrReply(msg.substr(0, sep), msg.substr(sep + 2));
        break;
      }
      default:  // transport fault: connection poisoned, peer maybe down
        healthy = false;
        answered = false;
        *reply = ErrReply("unavailable", std::string(r.status().message()));
        break;
    }
  }
  peers_->Release(node, std::move(peer), healthy);
  return answered;
}

Reply Server::Execute(const Command& cmd, const std::string& payload,
                      obs::TraceContext* trace) {
  if (cmd.spec == nullptr) {
    return ErrReply(kErrProto, StrCat("unknown command '", cmd.verb, "'"));
  }
  const VerbSpec& spec = *cmd.spec;
  const Args args = cmd.args;
  // A verb that acts on an existing session names it first, and the
  // session must exist before the other arguments are counted. Payload
  // verbs count their arguments first: the byte count frames the payload.
  std::shared_ptr<Session> session;
  if (spec.Has(kSession) && spec.min_args > 0 && !spec.Has(kPayload)) {
    if (args.empty()) {
      return ErrReply(kErrProto, StrCat(spec.name, " needs a session name"));
    }
    session = FindSession(args[0]);
    if (session == nullptr) {
      return ErrReply("not_found", StrCat("no session '", args[0],
                                          "' (LOAD one first)"));
    }
  }
  // A payload verb's last argument is its payload's byte count. The text
  // framing read the payload by that count, but a binary frame carries
  // its payload apart, so the count is judged here for both framings.
  size_t nbytes = 0;
  if (!spec.ArityOk(args.size()) ||
      (spec.Has(kPayload) &&
       (!ParseSize(args.back(), &nbytes) || nbytes != payload.size()))) {
    return UsageReply(spec);
  }

  switch (spec.verb) {
    case Verb::kPing:
      return OkReply("pong");
    case Verb::kHealth:
      return OkReply(HealthText());
    case Verb::kMetrics:
      return OkReply(registry_.RenderPrometheus());
    case Verb::kTrace: {
      size_t n = 10;
      if (!args.empty() && !ParseSize(args[0], &n)) return UsageReply(spec);
      return OkReply(slow_log_.RenderJsonLines(n));
    }
    case Verb::kShutdown:
      RequestShutdown();
      return OkReply("draining");
    case Verb::kLoad: {
      // Parse/translate outside any lock — LOAD of a big schema must not
      // stall requests against other sessions.
      auto loaded = Session::FromSource(payload, options_.checker, trace);
      if (!loaded.ok()) return StatusReply(loaded.status());
      std::string summary = (*loaded)->Summary();
      // Replacing is atomic for new requests; in-flight requests finish
      // against the old session via their shared_ptr. The old session is
      // dropped only after sessions_mu_ is released: freeing a session
      // (its schema, taxonomy and memo) takes milliseconds, and every
      // request's FindSession waits on that lock.
      std::shared_ptr<Session> replaced;
      {
        base::MutexLock lock(&sessions_mu_);
        if (!sessions_.contains(args[0]) &&
            sessions_.size() >= options_.max_sessions) {
          return ErrReply("resource_exhausted",
                          StrCat("session limit (", options_.max_sessions,
                                 ") reached"));
        }
        replaced = std::exchange(sessions_[args[0]], std::move(*loaded));
      }
      return OkReply(StrCat("session=", args[0], " ", summary));
    }
    case Verb::kState: {
      session = FindSession(args[0]);
      if (session == nullptr) {
        return ErrReply("not_found", StrCat("no session '", args[0], "'"));
      }
      base::WriterLock lock(&session->mu());
      obs::ScopedSpan span(trace, obs::Phase::kParse);
      if (Status s = session->LoadState(payload); !s.ok()) {
        return StatusReply(s);
      }
      return OkReply("state loaded (views reset, re-issue VIEW)");
    }
    case Verb::kStats:
      return DispatchStats(args);
    case Verb::kSleep: {
      // Diagnostic: occupies a worker for <ms> — how the tests and the
      // load benchmark provoke BUSY/deadline behaviour deterministically.
      size_t ms = 0;
      if (!ParseSize(args[0], &ms) || ms > 10000) return UsageReply(spec);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return OkReply(StrCat("slept=", ms));
    }
    case Verb::kView: {
      base::WriterLock lock(&session->mu());
      // Extent materialization evaluates the view body over the database;
      // attribute it to the engine phase as one block.
      obs::ScopedSpan span(trace, obs::Phase::kEngine);
      auto extent = session->DefineView(args[1]);
      if (!extent.ok()) return StatusReply(extent.status());
      return OkReply(StrCat("extent=", *extent));
    }
    case Verb::kUndefine: {
      base::WriterLock lock(&session->mu());
      // Taxonomy repair is pure graph surgery (no subsumption checks), but
      // it is still session mutation; attribute it to the engine phase.
      obs::ScopedSpan span(trace, obs::Phase::kEngine);
      auto summary = session->UndefineView(args[1]);
      if (!summary.ok()) return StatusReply(summary.status());
      return OkReply(std::move(*summary));
    }
    case Verb::kCheck: {
      base::ReaderLock lock(&session->mu());
      auto verdict = session->Check(args[1], args[2], trace);
      if (!verdict.ok()) return StatusReply(verdict.status());
      return OkReply(StrCat("subsumed=", *verdict ? "true" : "false"));
    }
    case Verb::kBcheck: {
      // Batched CHECK: N pairs, one verdict per pair, in order. One frame
      // buys one dispatch, one session lock, and grouped SubsumesBatch
      // runs instead of N full round trips.
      const Args operands = args.subspan(1);
      if (operands.size() % 2 != 0) return UsageReply(spec);
      if (operands.size() / 2 > kMaxBatchPairs) {
        return ErrReply(kErrProto,
                        StrCat("batch exceeds ", kMaxBatchPairs, " pairs"));
      }
      base::ReaderLock lock(&session->mu());
      auto verdicts = session->CheckBatch(operands, trace);
      if (!verdicts.ok()) return StatusReply(verdicts.status());
      std::string text = "subsumed=";
      for (size_t i = 0; i < verdicts->size(); ++i) {
        if (i > 0) text += ',';
        text += (*verdicts)[i] ? "true" : "false";
      }
      return OkReply(std::move(text));
    }
    case Verb::kClassify: {
      base::ReaderLock lock(&session->mu());
      auto hierarchy = session->Classify(trace);
      if (!hierarchy.ok()) return StatusReply(hierarchy.status());
      return OkReply(std::move(*hierarchy));
    }
    case Verb::kOptimize: {
      base::ReaderLock lock(&session->mu());
      auto plan = session->Optimize(args[1], trace);
      if (!plan.ok()) return StatusReply(plan.status());
      return OkReply(std::move(*plan));
    }
    case Verb::kRepl:  // envelopes are unwrapped by Dispatch
    case Verb::kForward:
    case Verb::kOther:
    case Verb::kCount:
      break;
  }
  return ErrReply(kErrProto, StrCat("unknown command '", cmd.verb, "'"));
}

Reply Server::DispatchStats(Args args) {
  ServerStats s = stats();
  std::string text = StrCat(
      "server: connections=", s.connections, " requests=", s.requests,
      " ok=", s.ok, " err=", s.errors, " busy=", s.busy,
      " deadline=", s.deadline_expired,
      " pending=", admitted_.load(std::memory_order_relaxed),
      " threads=", pool_->size(), " sessions=", s.sessions);
  if (!s.per_verb.empty()) {
    std::string verbs;
    for (const ServerStats::VerbCount& v : s.per_verb) {
      verbs = StrCat(verbs, verbs.empty() ? "" : " ", v.verb, "=", v.requests,
                     "/", v.errors);
    }
    text = StrCat(text, "\nverbs: ", verbs);
  }
  if (ring_ != nullptr) {
    // Cluster mode only: a single-node daemon's STATS text is unchanged.
    const cluster::Replicator::Stats rs = replicator_->stats();
    text = StrCat(
        text, "\ncluster: nodes=", options_.cluster.nodes.size(),
        " self=", options_.cluster.self,
        " replicas=", options_.cluster.EffectiveReplicas(),
        " forwards=", s.forwards, " forward_failures=", s.forward_failures,
        " replica_reads=", s.replica_reads,
        " repl_applies=", s.repl_applies, " repl_dups=", s.repl_dups,
        " repl_gaps=", s.repl_gaps, " repl_sent=", rs.sent,
        " repl_acked=", rs.acked, " repl_failures=", rs.failures,
        " repl_resyncs=", rs.resyncs, " repl_max_lag=", rs.max_lag);
  }
  auto append = [&](const std::string& name,
                    const std::shared_ptr<Session>& session) {
    base::ReaderLock lock(&session->mu());
    text = StrCat(text, "\nsession ", name, ": ", session->StatsText());
  };
  if (!args.empty()) {
    std::shared_ptr<Session> session = FindSession(args[0]);
    if (session == nullptr) {
      return ErrReply("not_found", StrCat("no session '", args[0], "'"));
    }
    append(args[0], session);
  } else {
    std::vector<std::pair<std::string, std::shared_ptr<Session>>> all;
    {
      base::MutexLock lock(&sessions_mu_);
      all.assign(sessions_.begin(), sessions_.end());
    }
    for (const auto& [name, session] : all) append(name, session);
  }
  return OkReply(std::move(text));
}

std::string Server::HealthText() const {
  const char* status = "ok";
  std::string detail;
  if (ring_ != nullptr) {
    // Degraded: a peer whose last exchange failed, or a replica behind
    // its owner's log (docs/cluster.md §2). Both heal without operator
    // action — the next successful exchange / the next flushed mutation
    // — so degraded means "watch", down peers mean "act".
    size_t peers_down = 0;
    const std::vector<cluster::PeerPool::PeerStats> ps = peers_->stats();
    for (size_t i = 0; i < ps.size(); ++i) {
      if (i != options_.cluster.self && ps[i].consecutive_failures > 0) {
        ++peers_down;
      }
    }
    const cluster::Replicator::Stats rs = replicator_->stats();
    if (peers_down > 0 || rs.max_lag > 0) status = "degraded";
    detail = StrCat(" peers_down=", peers_down, " repl_lag_max=", rs.max_lag,
                    " repl_lag_sum=", rs.lag_sum);
  }
  if (stopping_.load(std::memory_order_relaxed)) status = "draining";
  return StrCat("status=", status, detail);
}

std::shared_ptr<Session> Server::FindSession(const std::string& name) {
  base::MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.busy = busy_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.open_connections = open_conns_.load(std::memory_order_relaxed);
  s.forwards = forwards_.load(std::memory_order_relaxed);
  s.forward_failures = forward_failures_.load(std::memory_order_relaxed);
  s.replica_reads = replica_reads_.load(std::memory_order_relaxed);
  s.repl_applies = repl_applies_.load(std::memory_order_relaxed);
  s.repl_dups = repl_dups_.load(std::memory_order_relaxed);
  s.repl_gaps = repl_gaps_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumVerbs; ++i) {
    const uint64_t n = verb_requests_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    s.per_verb.push_back(
        {VerbName(static_cast<Verb>(i)), n,
         verb_errors_[i].load(std::memory_order_relaxed)});
  }
  {
    base::MutexLock lock(&sessions_mu_);
    s.sessions = sessions_.size();
  }
  return s;
}

void Server::RequestShutdown() {
  stopping_.store(true, std::memory_order_release);
  {
    base::MutexLock lock(&stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
}

void Server::Wait() {
  // Hand-over-hand: the lock is dropped across Teardown(), so the scoped
  // guard does not fit — raw Lock/Unlock, balanced on every path.
  stop_mu_.Lock();
  while (!stop_requested_) stop_cv_.Wait(stop_mu_);
  if (torn_down_) {
    // Another thread owns the teardown; wait for it to finish so the
    // caller may destroy the server afterwards.
    while (!teardown_done_) stop_cv_.Wait(stop_mu_);
    stop_mu_.Unlock();
    return;
  }
  torn_down_ = true;
  stop_mu_.Unlock();
  Teardown();
  {
    base::MutexLock guard(&stop_mu_);
    teardown_done_ = true;
  }
  stop_cv_.NotifyAll();
}

void Server::Shutdown() {
  RequestShutdown();
  Wait();
}

void Server::Teardown() {
  // 1. Wake the loop: it sees stopping_, deregisters + closes the
  //    listener, and starts answering ERR shutdown to new frames. New
  //    connects are refused from here on.
  WakeLoop();

  // 2. Graceful drain: every admitted request runs to completion and
  //    queues its encoded reply; the loop keeps flushing them while we
  //    block here.
  pool_->Drain();

  // 3. Final handshake: the loop routes the remaining completions, gives
  //    the sockets a bounded grace period to take the bytes, closes every
  //    connection, and exits.
  loop_stop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();

  // 4. The loop is gone: its fds are safe to close from this thread.
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  event_fd_ = -1;
  epoll_fd_ = -1;
  listen_fd_ = -1;  // the loop closed it when it saw stopping_
}

void Server::WakeLoop() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

}  // namespace oodb::server
