#ifndef ITAG_API_SERVICE_H_
#define ITAG_API_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/requests.h"
#include "itag/sharded_system.h"
#include "obs/metrics.h"

namespace itag::api {

/// Per-project token buckets for request admission. Each project may spend
/// `rps` request units per steady-clock second (bucket capacity == refill
/// rate, so a cold project can burst one second's worth). Denied units bump
/// `api.admission.rejected`. Thread-safe; one mutex — admission is two
/// arithmetic ops per request, far off any contention cliff.
class AdmissionController {
 public:
  explicit AdmissionController(uint64_t rps);

  /// Consumes up to `want` units, returning how many were granted — the
  /// prefix contract for per-item batch endpoints (items beyond the grant
  /// get ResourceExhausted without reaching the backend).
  uint64_t AdmitUpTo(uint64_t project, uint64_t want);

  /// All-or-nothing variant for whole-call endpoints: consumes `want` units
  /// iff all are available.
  bool AdmitExactly(uint64_t project, uint64_t want);

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last;
  };

  Bucket& BucketFor(uint64_t project);  // mu_ held
  void RefillLocked(Bucket* bucket);    // mu_ held

  const double rps_;
  obs::Counter* rejected_;  ///< api.admission.rejected
  std::mutex mu_;
  std::unordered_map<uint64_t, Bucket> buckets_;
};

/// The batch-first service surface: every call takes a typed request,
/// validates it, routes it to the sharded core, and returns a typed
/// response whose per-item Status vector isolates bad items instead of
/// aborting the whole ingest. This is the layer a network frontend would
/// serialize.
///
/// The core is a `core::ShardedSystem`, so every endpoint (and Dispatch)
/// may be called from any number of threads concurrently. Cross-shard
/// batches (BatchSubmitTags, BatchDecide) are grouped per shard and fanned
/// out on the core's worker pool, and Step() pumps all shards in parallel.
/// Ids in requests and responses are the core's global ids; a one-shard
/// core (`num_shards = 1`) hands out the ids and RNG streams of a single
/// facade, since shard 0 keeps the template seed and global = local.
///
/// Construction: own a fresh core (`Service(ShardedSystemOptions)` +
/// Init()) or wrap an existing one non-owningly (`Service(&sharded)`),
/// e.g. in tests that also poke the core directly.
///
/// Observability: every endpoint bumps `api.<Endpoint>.requests` and
/// observes its wall time into `api.<Endpoint>.latency_us` in the process
/// metrics registry (obs::MetricsRegistry::Default()); MetricsQuery reads
/// the whole registry back. See docs/observability.md.
class Service {
 public:
  /// Owns a fresh sharded core (see ShardedSystemOptions for the
  /// shard-count and worker-pool knobs).
  explicit Service(core::ShardedSystemOptions options);
  /// Wraps an existing ShardedSystem non-owningly.
  explicit Service(core::ShardedSystem* sharded);

  /// Initializes an owned core; no-op (OK) when wrapping, so callers can
  /// Init() unconditionally.
  Status Init();

  /// Enables per-project admission control: each project may spend at most
  /// `rps` request units per second (0 disables — the default). Charged
  /// endpoints: BatchAcceptTasks (`count` units, all-or-nothing),
  /// BatchUploadResources and BatchControl (one unit per item; items past
  /// the grant fail with per-item ResourceExhausted), ProjectQuery (one
  /// unit). BatchSubmitTags and BatchDecide are exempt by design: they are
  /// handle-keyed — the work was admitted when the task was accepted, and
  /// throttling them would strand accepted tasks. Call before serving
  /// traffic; not synchronized against in-flight requests.
  void SetAdmissionLimit(uint64_t rps);

  /// The request/response schema version this binary serves.
  static constexpr uint32_t version() { return kApiVersion; }

  // ----------------------------------------------------------- replication
  /// Enters replica mode: every write endpoint answers a typed
  /// FailedPrecondition whose message carries "leader=<leader_addr>" so
  /// clients can redirect. Reads (ProjectQuery, MetricsQuery, TraceQuery)
  /// and Checkpoint (local durability) keep working. Call before serving
  /// traffic; `leader_addr` is immutable afterwards.
  void SetReplicaMode(const std::string& leader_addr);

  /// True while writes are rejected.
  bool replica_mode() const {
    return replica_.load(std::memory_order_acquire);
  }

  /// What Promote() runs to perform the actual flip — stop the follower
  /// stream, replay the tail, ShardedSystem::Promote(). Installed by the
  /// embedder (itag_server, tests) before serving.
  using PromoteHandler = std::function<Status()>;
  void SetPromoteHandler(PromoteHandler handler) {
    promote_handler_ = std::move(handler);
  }

  // -------------------------------------------------------------- endpoints
  // Each endpoint documents only what it adds on top of the backend call it
  // routes to; per-item semantics live on the request structs in requests.h.

  /// Validates the name (InvalidArgument when empty) and registers.
  RegisterProviderResponse RegisterProvider(
      const RegisterProviderRequest& req);
  RegisterTaggerResponse RegisterTagger(const RegisterTaggerRequest& req);
  /// Validates spec.name; the project lands on a round-robin-chosen shard
  /// and the returned id is global.
  CreateProjectResponse CreateProject(const CreateProjectRequest& req);
  /// Uploads item-by-item; an empty uri yields InvalidArgument for that
  /// item only. `resources[i]` is kInvalidResource where item i failed.
  BatchUploadResourcesResponse BatchUploadResources(
      const BatchUploadResourcesRequest& req);
  /// Applies lifecycle/budget/strategy verbs in order, one Status each:
  /// the admitted items, less zero top-ups, as one ControlBatch call on
  /// the core (one route, one WAL frame).
  BatchControlResponse BatchControl(const BatchControlRequest& req);
  /// Project info + optional feed, both from the project's published view
  /// (no shard mutex), + optional per-resource details (read under the
  /// shard mutex). InvalidArgument, before admission and before any
  /// detail is computed, when more than kMaxDetailResources are asked for.
  ProjectQueryResponse ProjectQuery(const ProjectQueryRequest& req);
  /// Draws up to `count` tasks in one allocation pass; InvalidArgument,
  /// before any budget or admission token is spent, unless
  /// 1 <= count <= kMaxAcceptTasks.
  BatchAcceptTasksResponse BatchAcceptTasks(
      const BatchAcceptTasksRequest& req);
  /// Validates items (non-zero handle, non-empty tags), then submits the
  /// rest as one backend batch — per-shard-parallel on the sharded core.
  BatchSubmitTagsResponse BatchSubmitTags(const BatchSubmitTagsRequest& req);
  /// Batch-dispatch entry point for a wire frontend: serves `reqs.size()`
  /// independent BatchSubmitTags requests through ONE backend batch (their
  /// valid items concatenated in request order), so one routed, locked
  /// per-shard pass amortizes over every request in the group. Responses
  /// are bit-identical to dispatching each request sequentially — item
  /// semantics depend only on per-handle state and in-order processing,
  /// both of which concatenation preserves. Each constituent request is
  /// still counted (and its wall time observed) in the api.BatchSubmitTags
  /// metrics, so client-vs-server reconciliation stays exact.
  std::vector<BatchSubmitTagsResponse> BatchSubmitTagsMulti(
      const std::vector<BatchSubmitTagsRequest>& reqs);
  /// Validates handles, then moderates as one backend batch (one quality
  /// pass per project; per-shard-parallel on the sharded core).
  BatchDecideResponse BatchDecide(const BatchDecideRequest& req);
  /// Advances simulated time (ticks must be >= 0); pumps every shard in
  /// parallel on the sharded core.
  StepResponse Step(const StepRequest& req);
  /// Durability checkpoint of every shard (snapshot + WAL truncate).
  /// durable=false when the core is in-memory.
  CheckpointResponse Checkpoint(const CheckpointRequest& req);
  /// Point-in-time snapshot of the process metrics registry, filtered by
  /// the request's name prefix. Read-only, always OK, lock-free against
  /// the backend (metrics are relaxed atomics; no shard mutex is taken).
  MetricsQueryResponse MetricsQuery(const MetricsQueryRequest& req);
  /// Retained request traces from the process trace ring
  /// (obs::Tracer::Default()), newest first, filtered by minimum root
  /// duration and endpoint name. Read-only, always OK; never touches a
  /// shard mutex. See docs/observability.md for sampling semantics.
  TraceQueryResponse TraceQuery(const TraceQueryRequest& req);
  /// Failover: runs the installed promote handler and, on success, leaves
  /// replica mode. FailedPrecondition when the server is already writable
  /// or no handler is installed; serialized so concurrent Promote calls
  /// cannot double-run the flip.
  PromoteResponse Promote(const PromoteRequest& req);

  /// Routes a type-erased request to its endpoint — the single entry point a
  /// wire frontend needs.
  AnyResponse Dispatch(const AnyRequest& req);

  /// The core every endpoint routes to (never null), for flows the typed
  /// surface does not cover yet (export, notifications, recommendations).
  core::ShardedSystem* sharded() { return sharded_; }

 private:
  /// The typed write rejection of replica mode; message carries the
  /// "leader=<addr>" token clients redirect on.
  Status ReplicaRejected() const;

  /// The body of both BatchSubmitTags endpoints (their metrics and spans
  /// stay with them): validates every item of reqs[0..n), submits the
  /// valid ones as ONE core batch in request order, and fills resps[0..n)
  /// (statuses and ok_count).
  void SubmitTagsInto(const BatchSubmitTagsRequest* reqs, size_t n,
                      BatchSubmitTagsResponse* resps);

  std::unique_ptr<core::ShardedSystem> owned_;
  core::ShardedSystem* sharded_;  ///< owned_.get(), or the wrapped core
  std::unique_ptr<AdmissionController> admission_;
  /// Replica mode (see SetReplicaMode). leader_addr_ is written once,
  /// before traffic; the flag alone flips at promote time.
  std::atomic<bool> replica_{false};
  std::string leader_addr_;
  PromoteHandler promote_handler_;
  std::mutex promote_mu_;  ///< serializes Promote()
};

}  // namespace itag::api

#endif  // ITAG_API_SERVICE_H_
