#ifndef ITAG_NET_SERVER_H_
#define ITAG_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace itag::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  uint16_t port = 0;
  /// IO reactor threads. Each reactor owns an epoll loop, a disjoint set of
  /// connections (accepted round-robin), and the write side of those
  /// connections; 0 picks hardware_concurrency (at least 1). One reactor
  /// reproduces the original single-IO-thread server exactly.
  size_t reactors = 1;
  /// Dispatch worker threads; 0 picks hardware_concurrency (at least 1).
  size_t workers = 0;
  /// Per-connection cap on requests dispatched but not yet answered. A
  /// frame arriving above the cap is answered immediately with a typed
  /// ResourceExhausted error reply — backpressure the client can see and
  /// retry on, instead of unbounded queueing.
  size_t max_in_flight = 256;
  /// Cap on how long queued response bytes may wait for the peer to drain
  /// its receive buffer. Workers never block on writes (they append to the
  /// connection's output queue and the owning reactor flushes it); when a
  /// flush stalls on a full socket buffer for longer than this, the
  /// connection is marked dead and its remaining responses are dropped.
  int write_timeout_ms = 10000;
  /// Test seam: runs right before Service::Dispatch, on the thread that
  /// dispatches: a worker, or the reactor for a detail-free ProjectQuery
  /// of a planned view.
  /// Lets tests hold workers busy deterministically (e.g. to force the
  /// overload path); leave unset in production.
  std::function<void(const api::AnyRequest&)> before_dispatch;
};

/// Replication seam: when installed, frames carrying a replication kind
/// (kReplSubscribe / kReplBatch / kReplAck) are routed to `on_frame` on
/// the owning reactor thread instead of the request path, together with a
/// Sender that queues already-encoded frames back onto that connection
/// (callable from any thread; it never blocks on the peer and drops bytes
/// once the connection dies). `on_close` fires on the reactor thread when
/// the connection goes away — the last chance to forget its Sender.
/// `conn_id` is unique per accepted connection for the server's lifetime
/// (never recycled, unlike fds). Without hooks, replication frames get a
/// typed FailedPrecondition error reply. Install before Start().
struct ReplHooks {
  using Sender = std::function<void(std::string)>;
  std::function<void(uint64_t conn_id, Frame frame, Sender sender)> on_frame;
  std::function<void(uint64_t conn_id)> on_close;
};

/// Monotonic counters, readable while the server runs. Each one is
/// mirrored into the process metrics registry under `net.*` (see
/// docs/observability.md), so MetricsQuery sees the same numbers.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t errors_sent = 0;       ///< error replies (subset counted below)
  uint64_t overload_rejections = 0;
  uint64_t version_rejections = 0;
  /// Connections the server closed defensively: unparseable framing (bad
  /// magic/kind/CRC, oversized payload) or an error-reply backlog the peer
  /// refuses to drain.
  uint64_t protocol_errors = 0;
  uint64_t bytes_received = 0;  ///< raw socket bytes in (incl. framing)
  uint64_t bytes_sent = 0;      ///< raw socket bytes out (incl. framing)
};

/// Multi-client TCP front over an api::Service.
///
/// N reactor threads each run an epoll loop over a disjoint subset of the
/// connections (reactor 0 accepts and hands new sockets off round-robin).
/// A reactor decodes frames, groups the requests of one event burst by
/// destination shard (peeking the project id out of the encoded payload),
/// and submits each group as ONE worker-pool task — so under load a single
/// pool handoff, and for BatchSubmitTags a single merged backend batch,
/// amortizes over many requests, while an idle connection's lone request
/// still dispatches immediately (the batching window is the event burst:
/// it adapts to load and adds no timer latency). One request skips the
/// pool: a ProjectQuery without detail_resources reads only the project's
/// published view, takes no shard mutex, and costs less than the handoff,
/// so the reactor runs it to completion through the same DispatchOne —
/// when the view's projected gain is already planned. The first read of a
/// version plans it, so that one goes to the pool.
/// Responses are appended to a per-connection output queue and flushed by
/// the owning reactor with one gathering writev per syscall — workers
/// never block on a slow peer. A response queued on the owning reactor's
/// own thread is flushed at the end of its event burst, with no wake.
///
/// The correlation id ties replies to requests, so clients may pipeline
/// freely; replies can overtake each other. The wrapped Service is
/// thread-safe, so any number of reactors, workers and clients may share
/// it. Protocol rules, the error taxonomy, and the backpressure contract
/// are specified in docs/wire-protocol.md.
class Server {
 public:
  /// Serves `service` (borrowed; must outlive the server).
  explicit Server(api::Service* service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, then spawns the reactor threads and worker pool. Fails with
  /// IOError when the address cannot be bound, FailedPrecondition when
  /// already started.
  Status Start();

  /// Stops accepting, joins the reactors, drains in-flight dispatches, and
  /// makes a final bounded attempt to flush queued responses. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Reactor threads actually running (valid after Start()).
  size_t reactor_count() const { return reactors_.size(); }

  /// Installs the replication seam (see ReplHooks). Call before Start().
  void SetReplHooks(ReplHooks hooks) { repl_hooks_ = std::move(hooks); }

  ServerStats stats() const;

 private:
  struct Reactor;

  /// Per-connection state. The owning reactor runs inbuf/parsing and the
  /// flush; workers append responses under write_mu. Kept alive by
  /// shared_ptr until the last in-flight worker and queue entry are done.
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;
    uint64_t id = 0;  ///< process-unique, never recycled (fds are)
    Reactor* owner = nullptr;
    std::string inbuf;  ///< owning reactor only

    std::mutex write_mu;
    /// Encoded response frames awaiting flush (guarded by write_mu).
    /// out_head is how much of outq.front() already went out;
    /// out_bytes the queued total; flush_queued whether the conn is
    /// already on its owner's flush list.
    std::deque<std::string> outq;
    size_t out_head = 0;
    size_t out_bytes = 0;
    bool flush_queued = false;

    /// Owning reactor only: EPOLLOUT armed, and the stalled-write deadline.
    bool want_epollout = false;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};

    std::atomic<size_t> in_flight{0};
    std::atomic<bool> dead{false};
  };

  /// One (connection, decoded frame) unit of dispatch work.
  ///
  /// Carries the request's trace context across the reactor→worker hop.
  /// The root span lives behind a shared_ptr only because ThreadPool
  /// tasks must stay copyable; exactly one Work ever owns it, and the
  /// dispatch path resets it (ending the span) after the response is
  /// queued.
  struct Work {
    std::shared_ptr<Conn> conn;
    Frame frame;
    obs::TraceContext trace;
    std::shared_ptr<obs::Span> root;
  };

  /// The dispatch groups of one event burst: requests routable to a single
  /// shard keyed by that shard, mergeable BatchSubmitTags requests
  /// together, everything else dispatched as it arrives.
  struct DispatchGroups {
    std::unordered_map<size_t, std::vector<Work>> by_shard;
    std::vector<Work> submits;
  };

  void ReactorLoop(Reactor& r);
  void AcceptBurst(Reactor& r);
  void RegisterConn(Reactor& r, Socket sock);
  void DrainInbox(Reactor& r);
  void HandleReadable(Reactor& r, const std::shared_ptr<Conn>& conn,
                      DispatchGroups& groups);
  void HandleFrame(Reactor& r, const std::shared_ptr<Conn>& conn,
                   Frame frame, DispatchGroups& groups);
  /// Submits every non-empty group of the burst to the pool, one task per
  /// group (chunked at kMaxDispatchBatch).
  void FlushDispatchGroups(DispatchGroups& groups);
  /// Decode + before_dispatch + Dispatch + queue-response for one unit, on
  /// a worker or, for a detail-free ProjectQuery of a planned view, on the
  /// reactor.
  void DispatchOne(Work& work);
  /// The merged path: N BatchSubmitTags requests through one backend batch.
  void DispatchMergedSubmits(std::vector<Work>& group);
  /// Encodes and queues `response` (or the oversize refusal) for `work`.
  void FinishDispatch(const Work& work, const api::AnyResponse& response);
  /// Annotates the root span with the connection's queued write bytes and
  /// ends it (no-op when the request is untraced).
  void CloseRootSpan(Work& work);
  void CloseConn(Reactor& r, int fd);
  /// Flushes the connection's output queue with gathering writes; arms
  /// EPOLLOUT + the write deadline when the socket stops accepting bytes.
  void FlushConn(Reactor& r, const std::shared_ptr<Conn>& conn);
  /// Kills connections whose flush has been stalled past write_timeout_ms.
  void ExpireWriteDeadlines(Reactor& r, std::chrono::steady_clock::time_point now);
  /// epoll_wait timeout honoring the earliest write deadline (-1 = none).
  int NextTimeoutMs(Reactor& r) const;
  /// Wakes a reactor out of epoll_wait.
  void WakeReactor(Reactor& r);
  /// Marks `conn` dead and schedules an owner-reactor close. Any thread.
  void AbandonConn(const std::shared_ptr<Conn>& conn);
  /// Appends an encoded frame to the connection's output queue and
  /// notifies the owning reactor: through its inbox and eventfd from
  /// another thread, or its end-of-burst flush list from its own. Drops
  /// the bytes once the conn is dead; disconnects when the queue cap is
  /// exceeded. Any thread; never blocks on the peer.
  void QueueWrite(const std::shared_ptr<Conn>& conn, std::string bytes);
  /// Queues a typed error reply directly (error frames are small and
  /// encode in microseconds — no pool hop). A peer that floods frames
  /// while refusing to drain its error replies is disconnected once
  /// kErrorBacklogBytes of refusals pile up.
  void SendError(const std::shared_ptr<Conn>& conn, uint64_t correlation,
                 const Status& error, uint16_t type);

  api::Service* service_;
  ServerOptions options_;
  ReplHooks repl_hooks_;
  std::atomic<uint64_t> next_conn_id_{1};
  /// Shard count of the core; the modulus of the global-id shard routing
  /// of peeked project ids.
  size_t num_shards_ = 1;

  Socket listener_;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Round-robin accept cursor (touched only by reactor 0).
  size_t next_reactor_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> errors_sent_{0};
  std::atomic<uint64_t> overload_rejections_{0};
  std::atomic<uint64_t> version_rejections_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};

  /// Registry mirrors (net.* metrics), cached at construction; counters
  /// aggregate across all Server instances in the process.
  struct Metrics;
  const Metrics* metrics_;
};

}  // namespace itag::net

#endif  // ITAG_NET_SERVER_H_
