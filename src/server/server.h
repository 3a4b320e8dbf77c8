// Optimizer-as-a-service: a standalone TCP daemon that keeps named
// sessions (schema + SL axioms + QL concepts + materialized view catalog)
// resident in memory and answers subsumption/classification/optimization
// requests over the framed protocols of wire.h (legacy newline text and
// length-prefixed binary, negotiated per connection on one port).
//
// Concurrency shape: ONE epoll event-loop thread owns every connection —
// non-blocking sockets, each connection a small state machine (reading
// frames → dispatch → writing replies) with per-connection input/output
// buffers and partial read/write resumption. The actual work still runs
// on a shared service::ThreadPool behind a bounded admission counter;
// finished requests hand their encoded reply back to the loop through a
// mutex-guarded completion queue plus an eventfd wakeup. Binary
// connections may pipeline many frames (replies tagged with request ids,
// completing out of order); text connections keep the legacy
// one-reply-per-request-in-order contract by parsing at most one pooled
// request at a time. When the admission queue is full the request is
// answered `BUSY` immediately (backpressure instead of unbounded queue
// growth); a request that waited in the queue past the configured
// deadline is answered `ERR deadline` without running. SHUTDOWN (or
// Shutdown()) stops accepting, drains the queued work, flushes the
// replies, and closes connections — the graceful-drain counterpart of
// the pool's Drain().
#ifndef OODB_SERVER_SERVER_H_
#define OODB_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "calculus/subsumption.h"
#include "cluster/membership.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/session.h"
#include "server/verbs.h"
#include "server/wire.h"
#include "service/thread_pool.h"

namespace oodb::server {

struct ServerOptions {
  // TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  // back from port()).
  uint16_t port = 0;
  // Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 0;
  // Admission bound: requests admitted (queued or running) at once.
  // Requests beyond it are answered BUSY.
  size_t max_pending = 64;
  // Budget in milliseconds a request may wait in the admission queue
  // before it is answered `ERR deadline` instead of running. 0 = none.
  int64_t deadline_ms = 0;
  // Upper bound on LOAD/STATE payload sizes.
  size_t max_payload = size_t{8} << 20;
  // Upper bound on live named sessions.
  size_t max_sessions = 64;
  // Pipelining bound: pooled requests in flight per connection. Frames
  // beyond it stay in the connection's input buffer (backpressure via
  // paused parsing, then paused reading), never dropped.
  size_t max_inflight_per_conn = 256;
  // Requests whose total latency is >= this many milliseconds are traced
  // into the slow-query log (TRACE verb). 0 logs every request; negative
  // disables request tracing entirely.
  int64_t slow_threshold_ms = 100;
  // Ring-buffer capacity of the slow-query log.
  size_t slow_log_capacity = 128;
  // Options for each session's shared checker (memo cache, pre-filter,
  // engine pool).
  calculus::CheckerOptions checker;
  // Cluster membership (docs/cluster.md). Empty = single-node mode, no
  // routing or replication. When set, `cluster.self` must be this
  // daemon's index in `cluster.nodes` (ports are static in cluster
  // mode, so the caller knows it before Start()).
  cluster::ClusterConfig cluster;
};

// Monotone server-wide counters (snapshot via Server::stats()).
struct ServerStats {
  uint64_t connections = 0;  // accepted over the server's lifetime
  uint64_t requests = 0;     // frames parsed, including rejected ones
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;              // BUSY replies (admission bound hit)
  uint64_t deadline_expired = 0;  // ERR deadline replies
  size_t sessions = 0;            // live named sessions
  size_t open_connections = 0;    // connections currently registered

  // Cluster-mode counters; all zero in single-node mode.
  uint64_t forwards = 0;          // requests proxied to another node
  uint64_t forward_failures = 0;  // proxies with no reachable peer
  uint64_t replica_reads = 0;     // reads served from a replica copy
  uint64_t repl_applies = 0;      // REPL mutations applied in sequence
  uint64_t repl_dups = 0;         // REPL already-applied (dup) acks
  uint64_t repl_gaps = 0;         // REPL gap rejections (resync trigger)

  // Per-verb request/error counts, in Verb order, verbs with zero
  // requests omitted.
  struct VerbCount {
    const char* verb;
    uint64_t requests;
    uint64_t errors;
  };
  std::vector<VerbCount> per_verb;
};

class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  // Joins everything; equivalent to Shutdown() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens on 127.0.0.1, spawns the event loop. Returns the
  // bound port.
  Result<int> Start();

  // Blocks until a shutdown is requested (SHUTDOWN frame or Shutdown()),
  // then performs the drain + teardown. Call from the owning thread.
  void Wait() EXCLUDES(stop_mu_);

  // Requests shutdown and performs Wait(). Must not be called from a
  // worker or the event-loop thread (it joins them).
  void Shutdown() EXCLUDES(stop_mu_);

  int port() const { return port_; }
  ServerStats stats() const EXCLUDES(sessions_mu_);

  // The daemon's metrics registry (also served by the METRICS verb).
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }

 private:
  // Per-connection state machine. Owned and touched EXCLUSIVELY by the
  // event-loop thread (thread-confined, hence no lock): workers never see
  // a Connection — they address completions by connection id.
  struct Connection;

  // An encoded reply travelling from a worker back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;  // already in wire form (text or binary)
  };

  using Args = std::span<const std::string>;

  // A command as dispatch sees it: the verb's kVerbs row (null for an
  // unknown verb), the verb as sent, and its arguments.
  struct Command {
    const VerbSpec* spec = nullptr;
    std::string_view verb;
    Args args;

    std::string line() const;  // back to one command line
  };

  // One decoded frame, parsed once for both framings. For REPL/FORWARD
  // the parse also reads the optional `@origin:trace` header and finds
  // the carried request, which is a sub-span of the same tokens: neither
  // the framing nor dispatch parses the envelope again. It stores
  // offsets, not views, so it moves into a pool task safely; Commands
  // are views built on demand and must not outlive it.
  struct Request {
    std::vector<std::string> tokens;  // the command line
    std::string payload;
    const VerbSpec* spec = nullptr;  // row of tokens[0]
    size_t args_at = 1;  // first argument; 2 after an envelope's header
    size_t origin = 0;          // header: the sending node's index
    uint64_t origin_trace = 0;  // header: its request's trace id
    size_t carried_at = 0;      // envelope: the carried verb; 0 = none

    static Request Parse(std::vector<std::string> tokens);
    Command command() const;  // the request as sent
    Command carried() const;  // an envelope's carried request
    // The command that executes: the carried one for an envelope.
    Command target() const { return carried_at != 0 ? carried() : command(); }
  };

  // One admitted request waiting to ride the next pool submission. A
  // parse pass over a pipelined connection collects every complete frame
  // into pending_work_ and hands the burst to the pool as a single task,
  // so the handoff and completion-wakeup costs amortize over the burst.
  struct PooledWork {
    uint64_t request_id = 0;
    Verb vkind = Verb::kOther;
    std::shared_ptr<obs::TraceContext> trace;
    std::chrono::steady_clock::time_point enqueued;
    Request request;
  };

  // ---- Event-loop side (all run on loop_ only) ----
  void EventLoop();
  void HandleAccept();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  // Parses as many complete frames as the connection's buffers and
  // pipelining bounds allow, dispatching each.
  void ParseFrames(Connection& conn);
  bool ParseTextFrame(Connection& conn);    // one frame; false = no progress
  bool ParseBinaryFrame(Connection& conn);  // one frame; false = no progress
  // Routes one decoded frame: inline verbs answered on the loop,
  // everything else admitted onto the pool.
  void HandleFrame(Connection& conn, uint64_t request_id, Request req);
  // Counts one parsed frame, in total and by verb.
  void CountRequest(Verb vkind);
  // Bumps the ok/err/busy counters for one reply.
  void CountReply(const Reply& reply, Verb vkind);
  // Appends an inline (loop-thread) reply to the connection's output.
  void QueueReply(Connection& conn, uint64_t request_id, const Reply& reply,
                  Verb vkind);
  // Submits the frames collected by the current parse pass as one pool
  // task (rolling them back with shutdown errors if the pool refuses).
  void SubmitPooled(Connection& conn);
  // Drains the completion queue into connection output buffers.
  void DrainCompletions() EXCLUDES(comp_mu_);
  // Enqueues encoded reply bytes, coalescing small appends into the
  // back chunk of the connection's output queue.
  void AppendOutput(Connection& conn, std::string bytes);
  // Advances the output queue past `n` written bytes.
  void ConsumeOutput(Connection& conn, size_t n);
  // Gather-writes queued output until it is all sent or the socket would
  // block. False when the peer is gone.
  bool WriteOutput(Connection& conn);
  void FlushOutput(Connection& conn);
  // Keeps EPOLLIN/EPOLLOUT interest in sync with buffer state.
  void UpdateInterest(Connection& conn);
  void CloseConnection(uint64_t conn_id);
  // Best-effort flush of every connection's pending output at teardown.
  void FinalFlush();

  // ---- Worker side ----
  // Runs one admitted request to its encoded reply: deadline check,
  // Dispatch, per-verb stats, histogram and trace finalization.
  Completion FinalizeOnWorker(uint64_t conn_id, bool binary, PooledWork work);
  // Publishes a burst of encoded replies to the loop: one lock, and one
  // eventfd wakeup per empty→non-empty transition of the queue.
  void PushCompletions(std::vector<Completion> batch) EXCLUDES(comp_mu_);

  // Unwraps a REPL/FORWARD envelope, then serves the request.
  Reply Dispatch(const Request& req, obs::TraceContext* trace);
  // Cluster routing around Execute: proxies a session the node does not
  // serve to its owner, and replicates the mutations it applies. A
  // `forwarded` request was routed here by another node, so the
  // ownership check is skipped (we are the owner, or a replica serving a
  // failed-over read).
  Reply Serve(const Command& cmd, const std::string& payload,
              obs::TraceContext* trace, bool forwarded);
  // Runs one command on this node: the session lookup and arity check in
  // the order the replies have always had, then one switch on the verb.
  // The event loop calls it for inline verbs, workers for the rest.
  Reply Execute(const Command& cmd, const std::string& payload,
                obs::TraceContext* trace);
  // REPL [@o:t] <seq> <verb> <session> ...: apply one replicated mutation
  // if it is next in sequence (serialized per daemon by repl_mu_).
  Reply ApplyRepl(const Request& req, obs::TraceContext* trace)
      EXCLUDES(repl_mu_);
  // Proxies `cmd` to the owning node as a FORWARD frame; idempotent
  // reads fail over to the session's replicas when the owner is down.
  // The whole proxy attempt is a kForward span on `trace`, and the peer
  // that answered is stamped into trace->peer.
  Reply ForwardToOwner(size_t owner, const Command& cmd,
                       const std::string& payload, obs::TraceContext* trace);
  // One proxy attempt. Returns true if the peer answered (authoritative
  // reply in *reply), false on a transport fault (try another node).
  bool ForwardTo(size_t node, const std::string& line,
                 const std::string& payload, Reply* reply);
  Reply DispatchStats(Args args);
  // The HEALTH verb body: "status=ok|degraded|draining" plus, in
  // cluster mode, the degraded criteria (down peers, replica lag).
  std::string HealthText() const;
  // Registers the per-verb latency histograms and the snapshot callback.
  void RegisterMetrics();
  // Snapshot callback: server counters + every session's metrics.
  void AppendServerMetrics(obs::Collector& out) const
      EXCLUDES(sessions_mu_);
  std::shared_ptr<Session> FindSession(const std::string& name)
      EXCLUDES(sessions_mu_);
  void RequestShutdown() EXCLUDES(stop_mu_);
  void Teardown();
  void WakeLoop();  // writes the eventfd so a blocked epoll_wait returns

  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  // worker → loop wakeup (completions, teardown)
  int port_ = 0;

  std::unique_ptr<service::ThreadPool> pool_;
  std::atomic<size_t> admitted_{0};  // requests queued or running
  // Per-connection input cap: the largest legal frame (text payload or
  // binary frame) plus header slack. Reading pauses above it.
  size_t in_cap_ = 0;

  // ---- Cluster mode (all null when options_.cluster is empty) ----
  std::unique_ptr<cluster::Ring> ring_;
  std::unique_ptr<cluster::PeerPool> peers_;
  std::unique_ptr<cluster::Replicator> replicator_;

  // Lock order: repl_mu_ -> sessions_mu_ -> stop_mu_; comp_mu_ is a leaf
  // taken by itself (push from workers, swap from the loop) and never
  // held across a call out (see docs/concurrency.md). repl_mu_
  // serializes replica applies across worker threads — it is held across
  // the inner Dispatch so REPL frames for one session apply in sequence
  // order even when pipelined onto different workers.
  base::Mutex repl_mu_ ACQUIRED_BEFORE(sessions_mu_);
  // Per replicated session: highest sequence number applied here.
  std::map<std::string, uint64_t> replica_applied_ GUARDED_BY(repl_mu_);

  mutable base::Mutex sessions_mu_ ACQUIRED_BEFORE(stop_mu_);
  std::map<std::string, std::shared_ptr<Session>> sessions_
      GUARDED_BY(sessions_mu_);

  // mutable: the metrics callback (const) samples the queue depth.
  mutable base::Mutex comp_mu_;
  std::vector<Completion> completions_ GUARDED_BY(comp_mu_);

  // Connection table: event-loop thread only (thread-confined).
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  // Burst under assembly by the current ParseFrames pass (loop-confined;
  // always empty between passes).
  std::vector<PooledWork> pending_work_;
  uint64_t next_conn_id_ = 2;  // 0 = listen tag, 1 = eventfd tag
  std::thread loop_;

  base::Mutex stop_mu_;
  base::CondVar stop_cv_;
  bool stop_requested_ GUARDED_BY(stop_mu_) = false;
  bool torn_down_ GUARDED_BY(stop_mu_) = false;
  bool teardown_done_ GUARDED_BY(stop_mu_) = false;
  std::atomic<bool> stopping_{false};   // fast-path flag for request paths
  std::atomic<bool> loop_stop_{false};  // final wakeup for the event loop

  mutable std::atomic<uint64_t> connections_{0};
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> ok_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> busy_{0};
  mutable std::atomic<uint64_t> deadline_expired_{0};
  mutable std::atomic<size_t> open_conns_{0};
  mutable std::atomic<uint64_t> forwards_{0};
  mutable std::atomic<uint64_t> forward_failures_{0};
  mutable std::atomic<uint64_t> replica_reads_{0};
  mutable std::atomic<uint64_t> repl_applies_{0};
  mutable std::atomic<uint64_t> repl_dups_{0};
  mutable std::atomic<uint64_t> repl_gaps_{0};
  mutable std::array<std::atomic<uint64_t>, kNumVerbs> verb_requests_{};
  mutable std::array<std::atomic<uint64_t>, kNumVerbs> verb_errors_{};

  obs::MetricsRegistry registry_;
  obs::SlowQueryLog slow_log_;
  std::atomic<uint64_t> trace_seq_{0};
  // Request-latency histograms by verb (registry-owned); null for the
  // verbs kVerbs flags inline and for unknown commands.
  std::array<obs::Histogram*, kNumVerbs> latency_{};

  // Event-loop self-instrumentation (registry-owned; docs/observability
  // §6). Recorded once per epoll iteration behind one obs::Enabled()
  // check, so the disabled cost is a single relaxed load per iteration.
  obs::Histogram* loop_batch_hist_ = nullptr;  // events per epoll_wait
  obs::Histogram* loop_lag_hist_ = nullptr;    // iteration service time
  // Unwritten reply bytes across every connection's output queue.
  // Written by the loop thread only; atomic so the scrape callback may
  // read it from another thread.
  mutable std::atomic<size_t> write_queue_bytes_{0};
  // FORWARD round-trip histograms, indexed by peer node (null for self
  // and in single-node mode). Sampled 1-in-8 via forward_samples_.
  std::vector<obs::Histogram*> forward_rtt_;
  std::atomic<uint64_t> forward_samples_{0};
  // "host:port" per node, rendered once: trace stamping on the hot
  // forward/replica paths must not re-allocate it per request.
  std::vector<std::string> peer_names_;
};

}  // namespace oodb::server

#endif  // OODB_SERVER_SERVER_H_
