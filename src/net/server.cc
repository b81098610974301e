#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/sharding.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itag::net {

namespace {

/// Error replies a flooding peer has left undrained before we give up on
/// the connection (each refusal is ~100 bytes, so this is thousands of
/// unanswered-and-unread refusals — a peer that far behind is not a
/// client, it is a hose).
constexpr size_t kErrorBacklogBytes = 1u << 20;

/// iovec entries per gathering write; deeper queues just take another
/// syscall per 64 frames.
constexpr size_t kMaxIov = 64;

/// Cap on bytes buffered for one connection's unread responses. A peer
/// that pipelines hard while never reading is disconnected at this bound
/// instead of growing the queue until write_timeout_ms fires.
constexpr size_t kMaxPendingWriteBytes = 64u << 20;

/// Requests grouped into one dispatch task (and one merged backend batch
/// for BatchSubmitTags) never exceed this, so a deep burst still spreads
/// across workers.
constexpr size_t kMaxDispatchBatch = 64;

/// Kernel accept-queue depth; connection storms (the 10k soak) need this
/// well above the 128 default.
constexpr int kListenBacklog = 1024;

/// The reactor whose loop runs on this thread, if any (see QueueWrite).
thread_local const void* t_reactor = nullptr;

}  // namespace

/// Registry mirrors of the ServerStats counters plus the live levels and
/// shapes only the registry carries (in-flight dispatch depth, open
/// connections, dispatch batch sizes, frames per flush syscall). One
/// process-wide set: servers are rare (one per daemon), and tests
/// asserting exact counts use stats(), which stays per-instance.
struct Server::Metrics {
  obs::Counter* connections;
  obs::Counter* frames;
  obs::Counter* responses;
  obs::Counter* errors;
  obs::Counter* overload_rejections;
  obs::Counter* version_rejections;
  obs::Counter* protocol_errors;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Gauge* in_flight;
  obs::Gauge* open_connections;
  /// Requests per dispatch-group pool task — the adaptive batching window
  /// made visible: p50 of 1 at low load, rising with pipelining depth.
  obs::Histogram* batch_size;
  /// Whole response frames retired per flush syscall (writev coalescing).
  obs::Histogram* coalesced_frames;

  static const Metrics& Get() {
    static const Metrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      Metrics n;
      n.connections = reg.GetCounter("net.connections");
      n.frames = reg.GetCounter("net.frames");
      n.responses = reg.GetCounter("net.responses");
      n.errors = reg.GetCounter("net.errors");
      n.overload_rejections = reg.GetCounter("net.overload_rejections");
      n.version_rejections = reg.GetCounter("net.version_rejections");
      n.protocol_errors = reg.GetCounter("net.protocol_errors");
      n.bytes_in = reg.GetCounter("net.bytes_in");
      n.bytes_out = reg.GetCounter("net.bytes_out");
      n.in_flight = reg.GetGauge("net.in_flight");
      n.open_connections = reg.GetGauge("net.open_connections");
      n.batch_size = reg.GetHistogram("net.dispatch.batch_size");
      n.coalesced_frames = reg.GetHistogram("net.flush.coalesced_frames");
      return n;
    }();
    return m;
  }
};

/// One reactor: an epoll loop plus the connections it owns. Everything
/// except the inbox (mu + the three hand-off vectors) is touched only by
/// the reactor's own thread.
struct Server::Reactor {
  size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  /// Connections with an armed write deadline (lazily pruned).
  std::vector<std::shared_ptr<Conn>> deadlined;

  /// Cross-thread inbox: reactor 0 hands off accepted sockets, workers
  /// hand off flush-ready and abandoned connections; the owner drains on
  /// its eventfd wake.
  std::mutex mu;
  std::vector<Socket> pending_accepts;
  std::vector<std::shared_ptr<Conn>> flush_ready;
  std::vector<std::shared_ptr<Conn>> dead_conns;

  /// Connections that got a response queued on this reactor's own thread
  /// (inline replies, error replies, replication hook sends): flushed at
  /// the end of the event burst, with no inbox hop and no wake.
  std::vector<std::shared_ptr<Conn>> local_flush;

  /// Per-reactor registry counters (net.reactor.<i>.*) — the balance
  /// check for the round-robin handoff.
  obs::Counter* frames = nullptr;
  obs::Counter* connections = nullptr;
};

Server::Server(api::Service* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      metrics_(&Metrics::Get()) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  ITAG_ASSIGN_OR_RETURN(
      listener_,
      Socket::Listen(options_.host, options_.port, kListenBacklog));
  ITAG_ASSIGN_OR_RETURN(uint16_t port, listener_.LocalPort());
  port_ = port;
  ITAG_RETURN_IF_ERROR(listener_.SetNonBlocking(true));

  // The shard-hint routing mirrors the core's `global % num_shards`.
  num_shards_ = service_->sharded()->num_shards();

  size_t n_reactors = options_.reactors;
  if (n_reactors == 0) {
    n_reactors = std::max(1u, std::thread::hardware_concurrency());
  }
  auto teardown = [this] {
    for (auto& r : reactors_) {
      if (r->epoll_fd >= 0) ::close(r->epoll_fd);
      if (r->wake_fd >= 0) ::close(r->wake_fd);
    }
    reactors_.clear();
    listener_.Close();
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (size_t i = 0; i < n_reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epoll_fd = ::epoll_create1(0);
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      reactors_.push_back(std::move(r));
      teardown();
      return Status::IOError("epoll_create1/eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    const std::string prefix = "net.reactor." + std::to_string(i) + ".";
    r->frames = reg.GetCounter(prefix + "frames");
    r->connections = reg.GetCounter(prefix + "connections");
    reactors_.push_back(std::move(r));
  }
  // Reactor 0 owns the listener and hands accepted sockets off round-robin.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  ::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);

  stopping_.store(false, std::memory_order_release);
  next_reactor_ = 0;
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  for (auto& r : reactors_) {
    r->thread = std::thread(&Server::ReactorLoop, this, std::ref(*r));
  }
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) WakeReactor(*r);
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // Drain the workers. Their responses land in the output queues (and
  // their flush notifications on still-open eventfds, harmlessly — the
  // loops have exited).
  pool_.reset();
  // Final bounded flush: deliver what the drain queued, then tear down.
  for (auto& r : reactors_) {
    for (auto& [fd, conn] : r->conns) {
      if (conn->dead.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> lock(conn->write_mu);
      for (size_t i = 0; i < conn->outq.size(); ++i) {
        const std::string& s = conn->outq[i];
        const char* data = s.data();
        size_t len = s.size();
        if (i == 0) {
          data += conn->out_head;
          len -= conn->out_head;
        }
        if (!conn->sock.WriteAll(data, len, options_.write_timeout_ms).ok()) {
          break;
        }
        bytes_sent_.fetch_add(len, std::memory_order_relaxed);
        metrics_->bytes_out->Inc(len);
      }
      conn->outq.clear();
      conn->out_head = 0;
      conn->out_bytes = 0;
      conn->dead.store(true, std::memory_order_release);
    }
    metrics_->open_connections->Sub(static_cast<int64_t>(r->conns.size()));
    r->conns.clear();
    r->deadlined.clear();
    if (r->epoll_fd >= 0) ::close(r->epoll_fd);
    if (r->wake_fd >= 0) ::close(r->wake_fd);
  }
  reactors_.clear();
  listener_.Close();
  started_ = false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.frames_received = frames_received_.load();
  s.responses_sent = responses_sent_.load();
  s.errors_sent = errors_sent_.load();
  s.overload_rejections = overload_rejections_.load();
  s.version_rejections = version_rejections_.load();
  s.protocol_errors = protocol_errors_.load();
  s.bytes_received = bytes_received_.load();
  s.bytes_sent = bytes_sent_.load();
  return s;
}

void Server::ReactorLoop(Reactor& r) {
  t_reactor = &r;
  std::vector<epoll_event> events(128);
  DispatchGroups groups;
  std::vector<std::shared_ptr<Conn>> flushing;
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(r.epoll_fd, events.data(),
                         static_cast<int>(events.size()), NextTimeoutMs(r));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == r.wake_fd) {
        uint64_t drain;
        [[maybe_unused]] ssize_t got = ::read(r.wake_fd, &drain, sizeof(drain));
        DrainInbox(r);  // stop flag re-checked at the loop head
        continue;
      }
      if (r.index == 0 && fd == listener_.fd()) {
        AcceptBurst(r);
        continue;
      }
      auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;  // handlers may erase the entry
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(r, fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) FlushConn(r, conn);
      if (events[i].events & EPOLLIN) HandleReadable(r, conn, groups);
    }
    // End of the event burst — the adaptive batching window closes and
    // every accumulated group goes to the pool as one task.
    FlushDispatchGroups(groups);
    flushing.swap(r.local_flush);
    for (const std::shared_ptr<Conn>& conn : flushing) FlushConn(r, conn);
    flushing.clear();
    ExpireWriteDeadlines(r, std::chrono::steady_clock::now());
  }
  t_reactor = nullptr;
}

int Server::NextTimeoutMs(Reactor& r) const {
  if (r.deadlined.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  int timeout = -1;
  for (const auto& conn : r.deadlined) {
    if (conn->dead.load(std::memory_order_acquire) || !conn->has_deadline) {
      continue;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    conn->deadline - now)
                    .count();
    int t = left <= 0 ? 0 : static_cast<int>(left) + 1;
    timeout = timeout < 0 ? t : std::min(timeout, t);
  }
  return timeout;
}

void Server::AcceptBurst(Reactor& r0) {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // EAGAIN — the burst is drained
    Socket sock = std::move(accepted).value();
    if (!sock.SetNonBlocking(true).ok()) continue;
    (void)sock.SetNoDelay(true);
    size_t target = next_reactor_ % reactors_.size();
    ++next_reactor_;
    if (target == 0) {
      RegisterConn(r0, std::move(sock));
    } else {
      Reactor& rt = *reactors_[target];
      {
        std::lock_guard<std::mutex> lock(rt.mu);
        rt.pending_accepts.push_back(std::move(sock));
      }
      WakeReactor(rt);
    }
  }
}

void Server::RegisterConn(Reactor& r, Socket sock) {
  int fd = sock.fd();
  auto conn = std::make_shared<Conn>(std::move(sock));
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->owner = &r;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) return;
  r.conns.emplace(fd, std::move(conn));
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  metrics_->connections->Inc();
  metrics_->open_connections->Add(1);
  r.connections->Inc();
}

void Server::DrainInbox(Reactor& r) {
  std::vector<Socket> accepts;
  std::vector<std::shared_ptr<Conn>> flush;
  std::vector<std::shared_ptr<Conn>> dead;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    accepts.swap(r.pending_accepts);
    flush.swap(r.flush_ready);
    dead.swap(r.dead_conns);
  }
  for (Socket& s : accepts) RegisterConn(r, std::move(s));
  for (const std::shared_ptr<Conn>& conn : flush) FlushConn(r, conn);
  for (const std::shared_ptr<Conn>& conn : dead) {
    // Identity check: only close if this fd still maps to *this*
    // connection (it may already have been reaped via EPOLLHUP).
    int fd = conn->sock.fd();
    auto it = r.conns.find(fd);
    if (it != r.conns.end() && it->second == conn) CloseConn(r, fd);
  }
}

void Server::CloseConn(Reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  if (repl_hooks_.on_close) repl_hooks_.on_close(it->second->id);
  it->second->dead.store(true, std::memory_order_release);
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  // The fd itself closes when the last worker holding this Conn finishes.
  r.conns.erase(it);
  metrics_->open_connections->Sub(1);
}

void Server::WakeReactor(Reactor& r) {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(r.wake_fd, &one, sizeof(one));
}

void Server::AbandonConn(const std::shared_ptr<Conn>& conn) {
  conn->dead.store(true, std::memory_order_release);
  Reactor& r = *conn->owner;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.dead_conns.push_back(conn);
  }
  WakeReactor(r);
}

void Server::HandleReadable(Reactor& r, const std::shared_ptr<Conn>& conn,
                            DispatchGroups& groups) {
  int fd = conn->sock.fd();
  if (conn->dead.load(std::memory_order_acquire)) {
    // A worker gave up on this peer (write error or overflow); reap it.
    CloseConn(r, fd);
    return;
  }
  char buf[16384];
  bool peer_gone = false;
  for (;;) {
    Result<size_t> got = conn->sock.ReadSome(buf, sizeof(buf));
    if (!got.ok()) {
      // EOF or socket error — but frames already received (possibly in
      // this very read burst) must still be dispatched: a fire-and-forget
      // client may send and close in one breath.
      peer_gone = true;
      break;
    }
    if (*got == 0) break;  // drained for now
    conn->inbuf.append(buf, *got);
    bytes_received_.fetch_add(*got, std::memory_order_relaxed);
    metrics_->bytes_in->Inc(*got);
    // A short read drained the socket for now. The epoll set is
    // level-triggered, so whatever comes next (EOF included) wakes the
    // loop again; the read that would only say EAGAIN is skipped.
    if (*got < sizeof(buf)) break;
  }
  size_t parsed = 0;
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    Status s = TryDecodeFrame(std::string_view(conn->inbuf).substr(parsed),
                              &frame, &consumed);
    if (!s.ok()) {
      // Unparseable stream (bad magic/CRC/kind): nothing after this point
      // can be framed reliably, so the only safe move is to hang up.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_->protocol_errors->Inc();
      CloseConn(r, fd);
      return;
    }
    if (consumed == 0) break;  // need more bytes
    parsed += consumed;
    HandleFrame(r, conn, std::move(frame), groups);
  }
  conn->inbuf.erase(0, parsed);
  if (peer_gone) CloseConn(r, fd);
}

void Server::HandleFrame(Reactor& r, const std::shared_ptr<Conn>& conn,
                         Frame frame, DispatchGroups& groups) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  metrics_->frames->Inc();
  r.frames->Inc();
  if (frame.kind == FrameKind::kReplSubscribe ||
      frame.kind == FrameKind::kReplBatch ||
      frame.kind == FrameKind::kReplAck) {
    if (!repl_hooks_.on_frame) {
      SendError(conn, frame.correlation,
                Status::FailedPrecondition(
                    "replication is not enabled on this server"),
                frame.type);
      return;
    }
    // The Sender closure pins the Conn; the hook owner must drop it on
    // on_close so the socket can actually be reclaimed.
    repl_hooks_.on_frame(
        conn->id, std::move(frame),
        [this, conn](std::string bytes) { QueueWrite(conn, std::move(bytes)); });
    return;
  }
  if (frame.kind != FrameKind::kRequest) {
    SendError(conn, frame.correlation,
              Status::InvalidArgument("expected a request frame"), frame.type);
    return;
  }
  if (!api::IsCompatibleApiVersion(frame.version)) {
    version_rejections_.fetch_add(1, std::memory_order_relaxed);
    metrics_->version_rejections->Inc();
    SendError(conn, frame.correlation,
              Status::FailedPrecondition(
                  "api version mismatch: frame speaks v" +
                  std::to_string(frame.version) + ", server speaks v" +
                  std::to_string(api::kApiVersion)),
              frame.type);
    return;
  }
  if (conn->in_flight.load(std::memory_order_acquire) >=
      options_.max_in_flight) {
    overload_rejections_.fetch_add(1, std::memory_order_relaxed);
    metrics_->overload_rejections->Inc();
    SendError(conn, frame.correlation,
              Status::ResourceExhausted(
                  "server overloaded: " +
                  std::to_string(options_.max_in_flight) +
                  " requests already in flight on this connection"),
              frame.type);
    return;
  }
  // Payload decoding (and everything after) runs on the pool: a frame near
  // the size cap must not stall this reactor's accepts and reads for every
  // other connection. Reactors do framing and routing, and answer the one
  // request cheaper than a pool handoff: a view-only ProjectQuery.
  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  metrics_->in_flight->Add(1);
  // The trace root opens here — frame decoded, request admitted — so the
  // root duration covers the pool queue wait, dispatch, and response
  // encode. Untraced requests pay one atomic increment and carry an empty
  // context.
  obs::TraceContext trace = obs::Tracer::Default().Begin();
  std::shared_ptr<obs::Span> root;
  if (trace.active()) {
    root = std::make_shared<obs::Span>("net.request", trace, 0);
    root->Annotate("reactor", static_cast<uint64_t>(r.index));
    root->Annotate("conn", static_cast<uint64_t>(conn->sock.fd()));
    root->Annotate("correlation", frame.correlation);
  }
  Work work{conn, std::move(frame), trace, std::move(root)};
  if (IsViewOnlyQuery(work.frame.type, work.frame.payload) &&
      !service_->sharded()->ViewReadPlans(
          *PeekProjectId(work.frame.type, work.frame.payload))) {
    // Run to completion here, as in IX (Belay et al., OSDI 2014): the read
    // takes no shard mutex and costs less than the pool handoff and the
    // cross-thread write queue it would otherwise pay. A read that would
    // plan its view's projected gain (O(n log n) in the project's
    // resources) goes to the pool below instead, like a detail query.
    DispatchOne(work);
    return;
  }
  if (work.frame.type == api::kRequestTypeIndex<api::BatchSubmitTagsRequest>) {
    // Mergeable: the whole group becomes ONE backend batch (see
    // Service::BatchSubmitTagsMulti for the bit-equality argument).
    groups.submits.push_back(std::move(work));
    return;
  }
  if (std::optional<core::ProjectId> project =
          PeekProjectId(work.frame.type, work.frame.payload)) {
    groups.by_shard[ShardOfId(*project, num_shards_)].push_back(
        std::move(work));
    return;
  }
  // Unroutable (registrations, Step, Checkpoint, MetricsQuery, malformed):
  // one pool task each, preserving worker parallelism for endpoints that
  // fan out internally or block.
  pool_->Submit([this, w = std::move(work)]() mutable { DispatchOne(w); });
}

void Server::FlushDispatchGroups(DispatchGroups& groups) {
  auto submit_chunks = [&](std::vector<Work>& vec, bool merged) {
    for (size_t start = 0; start < vec.size(); start += kMaxDispatchBatch) {
      const size_t end = std::min(vec.size(), start + kMaxDispatchBatch);
      metrics_->batch_size->Observe(end - start);
      if (end - start == 1) {
        // Low load: a singleton group dispatches exactly like the
        // unbatched server — no added latency.
        pool_->Submit([this, w = std::move(vec[start])]() mutable {
          DispatchOne(w);
        });
        continue;
      }
      std::vector<Work> chunk(std::make_move_iterator(vec.begin() + start),
                              std::make_move_iterator(vec.begin() + end));
      if (merged) {
        pool_->Submit([this, g = std::move(chunk)]() mutable {
          DispatchMergedSubmits(g);
        });
      } else {
        pool_->Submit([this, g = std::move(chunk)]() mutable {
          for (Work& w : g) DispatchOne(w);
        });
      }
    }
    vec.clear();
  };
  for (auto& [shard, vec] : groups.by_shard) submit_chunks(vec, false);
  groups.by_shard.clear();
  submit_chunks(groups.submits, true);
}

void Server::DispatchOne(Work& work) {
  api::AnyRequest request;
  Status decoded =
      DecodeRequestPayload(work.frame.type, work.frame.payload, &request);
  if (!decoded.ok()) {
    errors_sent_.fetch_add(1, std::memory_order_relaxed);
    metrics_->errors->Inc();
    QueueWrite(work.conn,
               EncodeErrorFrame(work.frame.correlation, decoded,
                                work.frame.type));
  } else {
    // Make the request's trace current on this worker so the api/core/
    // storage spans opened inside Dispatch parent under the net root.
    obs::ScopedTraceContext trace_scope(
        work.trace, work.root ? work.root->span_id() : 0);
    if (options_.before_dispatch) options_.before_dispatch(request);
    FinishDispatch(work, service_->Dispatch(request));
  }
  CloseRootSpan(work);
  work.conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  metrics_->in_flight->Sub(1);
}

void Server::DispatchMergedSubmits(std::vector<Work>& group) {
  std::vector<api::BatchSubmitTagsRequest> reqs;
  std::vector<size_t> origin;  // group index of reqs[k]
  reqs.reserve(group.size());
  origin.reserve(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    Work& w = group[i];
    api::AnyRequest request;
    Status decoded =
        DecodeRequestPayload(w.frame.type, w.frame.payload, &request);
    if (!decoded.ok()) {
      errors_sent_.fetch_add(1, std::memory_order_relaxed);
      metrics_->errors->Inc();
      QueueWrite(w.conn, EncodeErrorFrame(w.frame.correlation, decoded,
                                          w.frame.type));
      CloseRootSpan(w);
      w.conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      metrics_->in_flight->Sub(1);
      continue;
    }
    if (options_.before_dispatch) options_.before_dispatch(request);
    reqs.push_back(std::get<api::BatchSubmitTagsRequest>(std::move(request)));
    origin.push_back(i);
  }
  if (reqs.empty()) return;
  // The merged backend call serves every request in the group at once, so
  // each traced request gets its own api.BatchSubmitTags span covering the
  // whole merged call (that IS the latency it experienced), annotated with
  // the merge width. The core/storage spans the call emits attach to the
  // FIRST traced request — one backend pass cannot belong to N traces.
  std::vector<obs::Span> api_spans;
  api_spans.reserve(origin.size());
  const obs::TraceContext* lead_ctx = nullptr;
  uint64_t lead_parent = 0;
  for (size_t k = 0; k < origin.size(); ++k) {
    Work& w = group[origin[k]];
    api_spans.emplace_back("api.BatchSubmitTags", w.trace,
                           w.root ? w.root->span_id() : 0);
    if (!api_spans.back().active()) continue;
    api_spans.back().Annotate("merged", static_cast<uint64_t>(reqs.size()));
    if (lead_ctx == nullptr) {
      lead_ctx = &w.trace;
      lead_parent = api_spans.back().span_id();
    }
  }
  std::vector<api::BatchSubmitTagsResponse> resps;
  {
    obs::ScopedTraceContext trace_scope(
        lead_ctx != nullptr ? *lead_ctx : obs::TraceContext{}, lead_parent);
    resps = service_->BatchSubmitTagsMulti(reqs);
  }
  for (obs::Span& s : api_spans) s.End();
  for (size_t k = 0; k < resps.size(); ++k) {
    Work& w = group[origin[k]];
    FinishDispatch(w, api::AnyResponse(std::move(resps[k])));
    CloseRootSpan(w);
    w.conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    metrics_->in_flight->Sub(1);
  }
}

void Server::FinishDispatch(const Work& work,
                            const api::AnyResponse& response) {
  std::string bytes = EncodeResponseFrame(work.frame.correlation, response);
  if (bytes.size() - kHeaderSize > kDefaultMaxFrameBytes) {
    // A legal request can amplify into a response the peer's decoder
    // would reject as unrecoverable (its frame cap mirrors ours).
    // Answer with a typed refusal instead of breaking the stream.
    errors_sent_.fetch_add(1, std::memory_order_relaxed);
    metrics_->errors->Inc();
    QueueWrite(work.conn,
               EncodeErrorFrame(
                   work.frame.correlation,
                   Status::ResourceExhausted(
                       "response of " +
                       std::to_string(bytes.size() - kHeaderSize) +
                       " bytes exceeds the frame cap; narrow the "
                       "request (fewer items / details)"),
                   work.frame.type));
    return;
  }
  // Count before queueing: once the client holds the reply, the stat must
  // already reflect it (tests assert equality right after).
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
  metrics_->responses->Inc();
  QueueWrite(work.conn, std::move(bytes));
}

void Server::CloseRootSpan(Work& work) {
  if (!work.root) return;
  size_t queued = 0;
  {
    // out_bytes is guarded by write_mu (it is not atomic); the response
    // queued by FinishDispatch is already counted, so this is the depth
    // the reply is waiting behind.
    std::lock_guard<std::mutex> lock(work.conn->write_mu);
    queued = work.conn->out_bytes;
  }
  work.root->Annotate("write_queue_bytes", static_cast<uint64_t>(queued));
  work.root.reset();  // ends the root span; the trace is retained or dropped
}

void Server::QueueWrite(const std::shared_ptr<Conn>& conn, std::string bytes) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  bool notify = false;
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->dead.load(std::memory_order_acquire)) return;
    if (conn->out_bytes + bytes.size() > kMaxPendingWriteBytes) {
      overflow = true;
    } else {
      conn->out_bytes += bytes.size();
      conn->outq.push_back(std::move(bytes));
      if (!conn->flush_queued) {
        conn->flush_queued = true;
        notify = true;
      }
    }
  }
  if (overflow) {
    // The peer pipelined far more than it is willing to read. Cutting the
    // connection is the only bounded-memory option left.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_->protocol_errors->Inc();
    AbandonConn(conn);
    return;
  }
  if (notify) {
    Reactor& r = *conn->owner;
    if (t_reactor == &r) {
      // The owner's own thread: its loop flushes at the end of this burst.
      r.local_flush.push_back(conn);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(r.mu);
      r.flush_ready.push_back(conn);
    }
    WakeReactor(r);
  }
}

void Server::FlushConn(Reactor& r, const std::shared_ptr<Conn>& conn) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(conn->write_mu);
  for (;;) {
    if (conn->outq.empty()) {
      conn->flush_queued = false;
      lock.unlock();
      // Fully drained: back to read-only interest, deadline disarmed.
      if (conn->want_epollout) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn->sock.fd();
        ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->sock.fd(), &ev);
        conn->want_epollout = false;
      }
      conn->has_deadline = false;
      return;
    }
    iovec iov[kMaxIov];
    size_t n = 0;
    size_t head = conn->out_head;
    for (const std::string& s : conn->outq) {
      if (n == kMaxIov) break;
      iov[n].iov_base = const_cast<char*>(s.data()) + head;
      iov[n].iov_len = s.size() - head;
      head = 0;
      ++n;
    }
    Result<size_t> sent = conn->sock.WritevSome(iov, n);
    if (!sent.ok()) {
      // Peer went away mid-write; drop the queue with the connection.
      lock.unlock();
      CloseConn(r, conn->sock.fd());
      return;
    }
    if (*sent == 0) {
      // Socket buffer full: hand the rest to EPOLLOUT, bounded by the
      // write deadline — the queue survives, this thread moves on.
      lock.unlock();
      if (!conn->want_epollout) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn->sock.fd();
        ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->sock.fd(), &ev);
        conn->want_epollout = true;
      }
      if (!conn->has_deadline) {
        conn->has_deadline = true;
        conn->deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.write_timeout_ms);
        r.deadlined.push_back(conn);
      }
      return;
    }
    bytes_sent_.fetch_add(*sent, std::memory_order_relaxed);
    metrics_->bytes_out->Inc(*sent);
    size_t remaining = *sent;
    uint64_t frames_done = 0;
    while (remaining > 0) {
      std::string& front = conn->outq.front();
      const size_t avail = front.size() - conn->out_head;
      if (remaining >= avail) {
        remaining -= avail;
        conn->out_bytes -= avail;
        conn->outq.pop_front();
        conn->out_head = 0;
        ++frames_done;
      } else {
        conn->out_head += remaining;
        conn->out_bytes -= remaining;
        remaining = 0;
      }
    }
    if (frames_done > 0) metrics_->coalesced_frames->Observe(frames_done);
  }
}

void Server::ExpireWriteDeadlines(Reactor& r,
                                  std::chrono::steady_clock::time_point now) {
  if (r.deadlined.empty()) return;
  std::vector<std::shared_ptr<Conn>> keep;
  for (const std::shared_ptr<Conn>& conn : r.deadlined) {
    if (conn->dead.load(std::memory_order_acquire) || !conn->has_deadline) {
      continue;  // resolved (drained, or closed by another path)
    }
    if (now >= conn->deadline) {
      // Stalled past write_timeout_ms with the peer not draining; queued
      // responses are dropped with the connection, like the blocking
      // write timeout before it.
      CloseConn(r, conn->sock.fd());
      continue;
    }
    keep.push_back(conn);
  }
  r.deadlined.swap(keep);
}

void Server::SendError(const std::shared_ptr<Conn>& conn,
                       uint64_t correlation, const Status& error,
                       uint16_t type) {
  // Error frames are tiny and encode in microseconds, so they are queued
  // straight from the reactor — refusing a frame must not consume the
  // worker capacity the refusal is protecting. The backlog check bounds a
  // peer that floods requests while never reading its refusals: past the
  // cap it is disconnected — never silently unanswered, which would
  // strand its Await forever (see docs/wire-protocol.md).
  size_t backlog;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    backlog = conn->out_bytes;
  }
  if (backlog > kErrorBacklogBytes) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_->protocol_errors->Inc();
    AbandonConn(conn);
    return;
  }
  errors_sent_.fetch_add(1, std::memory_order_relaxed);
  metrics_->errors->Inc();
  QueueWrite(conn, EncodeErrorFrame(correlation, error, type));
}

}  // namespace itag::net
