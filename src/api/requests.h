#ifndef ITAG_API_REQUESTS_H_
#define ITAG_API_REQUESTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "itag/ids.h"
#include "itag/itag_system.h"
#include "itag/project.h"
#include "itag/quality_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "strategy/strategy.h"
#include "tagging/resource.h"

namespace itag::api {

/// Version of the request/response surface in this header. Bumped on any
/// incompatible change to a request or response struct; Service::version()
/// reports it so callers built against older headers can bail out early.
///
/// History: v1 — the original ten-endpoint batch surface; v2 — added the
/// Checkpoint admin endpoint (new AnyRequest/AnyResponse alternative, which
/// shifts the wire's closed type-tag space and is therefore incompatible);
/// v3 — added the MetricsQuery observability endpoint (same reason);
/// v4 — added the TraceQuery tracing endpoint (same reason);
/// v5 — added the Promote admin endpoint and the replication frame kinds
/// (ReplSubscribe/ReplBatch/ReplAck — see docs/wire-protocol.md).
inline constexpr uint32_t kApiVersion = 5;

/// True iff a peer speaking `version` can be served by this binary. The rule
/// is exact match while the surface still evolves; when a compatibility
/// window opens (serving version N and N-1), only this predicate changes.
/// Wire frontends must answer a frame that fails this check with a *typed*
/// FailedPrecondition reply — never by dropping the connection — so old
/// clients learn why they were refused (see docs/wire-protocol.md).
inline constexpr bool IsCompatibleApiVersion(uint32_t version) {
  return version == kApiVersion;
}

/// Common header to every batch response: one Status per request item, in
/// request order, plus the count that succeeded. A bad item never aborts the
/// rest of the batch.
struct BatchOutcome {
  std::vector<Status> statuses;
  size_t ok_count = 0;

  /// True iff every item succeeded.
  bool all_ok() const { return ok_count == statuses.size(); }
};

// ----------------------------------------------------------------- users

/// Registers a content provider. `name` must be non-empty
/// (InvalidArgument) but need not be unique.
struct RegisterProviderRequest {
  std::string name;
};
struct RegisterProviderResponse {
  Status status;
  /// Valid only when status is OK. The id is broadcast to every shard and
  /// usable with any project.
  core::ProviderId provider = 0;
};

/// Registers a human tagger; same contract as RegisterProviderRequest.
struct RegisterTaggerRequest {
  std::string name;
};
struct RegisterTaggerResponse {
  Status status;
  core::UserTaggerId tagger = 0;
};

// -------------------------------------------------------------- projects

/// Creates a project in Draft state. `spec.name` must be non-empty
/// (InvalidArgument); unknown `provider` yields NotFound.
struct CreateProjectRequest {
  core::ProviderId provider = 0;
  core::ProjectSpec spec;
};
struct CreateProjectResponse {
  Status status;
  /// Valid only when status is OK. A global id encoding the owning shard;
  /// pass it back verbatim everywhere.
  core::ProjectId project = 0;
};

/// One resource of a batch upload, with whatever tags it already has (the
/// Fig. 4 upload joins both steps).
struct UploadResourceItem {
  tagging::ResourceKind kind = tagging::ResourceKind::kWebUrl;
  std::string uri;
  std::string description;
  /// Imported as a provider-era post when non-empty.
  std::vector<std::string> initial_tags;
};
/// Uploads resources into one project (all items share the project, so the
/// whole request routes to a single shard). Per-item failures: empty uri →
/// InvalidArgument; unknown project → NotFound; unusable initial_tags →
/// InvalidArgument (the resource itself is still created).
struct BatchUploadResourcesRequest {
  core::ProjectId project = 0;
  std::vector<UploadResourceItem> items;
};
struct BatchUploadResourcesResponse {
  BatchOutcome outcome;
  /// Aligned with the request items; kInvalidResource where the item failed.
  std::vector<tagging::ResourceId> resources;
};

/// Project lifecycle and provider controls, one verb per item so a whole
/// console session can ship as one request.
using ControlAction = core::ControlAction;
using ControlItem = core::ControlItem;
/// Applies the control verbs to one project, in order, one Status per
/// item, as one routed core call (ShardedSystem::ControlBatch) and so one
/// atomic WAL frame. Per-item status by action and project state:
///
///                               Draft*  Draft  Running  Paused  Stopped
///   Start                       FP      OK     FP       OK      FP
///   Pause                       FP      FP     OK       FP      FP
///   Stop                        OK      OK     OK       OK      OK
///   AddBudget, SwitchStrategy   OK      OK     OK       OK      OK
///   Promote/Stop/ResumeResource FP      FP     OK       OK      OK
///
/// (Draft* = Draft without resources; FP = FailedPrecondition.) Every
/// action answers NotFound on a project that was never issued. The
/// per-resource actions answer NotFound for an unknown resource, and
/// PromoteResource FailedPrecondition for a stopped one. A zero kAddBudget
/// top-up is InvalidArgument and never reaches the core. Items past the
/// admission grant fail ResourceExhausted.
struct BatchControlRequest {
  core::ProjectId project = 0;
  std::vector<ControlItem> items;
};
struct BatchControlResponse {
  BatchOutcome outcome;
};

/// Largest `detail_resources` one ProjectQuery may list. Each detail
/// carries up to 16 top tags, so this keeps a reply far below the wire's
/// net::kDefaultMaxFrameBytes and bounds the work one read can ask for.
inline constexpr size_t kMaxDetailResources = 256;

/// Reads one project's info, optionally with its live quality feed (both
/// from one published version) and per-resource details. NotFound
/// (top-level status) for unknown projects; InvalidArgument, with
/// nothing admitted or computed, when more than kMaxDetailResources
/// details are asked for; bad detail_resources fail item-wise in
/// detail_outcome.
struct ProjectQueryRequest {
  core::ProjectId project = 0;
  /// Appends the live quality feed (Fig. 5) to the response.
  bool include_feed = false;
  /// Appends per-resource details (Fig. 6) for these resources, at most
  /// kMaxDetailResources of them. Details read the live corpus, so they
  /// may be newer than the info and feed.
  std::vector<tagging::ResourceId> detail_resources;
};
struct ProjectQueryResponse {
  Status status;
  core::ProjectInfo info;
  std::vector<core::QualityPoint> feed;
  std::vector<core::QualityManager::ResourceDetail> details;
  /// Aligned with detail_resources.
  BatchOutcome detail_outcome;
};

// ---------------------------------------------------------- tagger traffic

/// Largest `count` one BatchAcceptTasks may ask for, so that a reply (one
/// handle, resource and uri per task) stays far below the wire's
/// net::kDefaultMaxFrameBytes and a saturated budget never makes the
/// allocator reserve billions of ids.
inline constexpr size_t kMaxAcceptTasks = 1024;

/// Draws up to `count` strategy-assigned tasks for one tagger in a single
/// allocation pass (AllocationEngine::ChooseBatch under the hood). `count`
/// must be in [1, kMaxAcceptTasks] (InvalidArgument otherwise, with nothing
/// debited). May return fewer than `count` tasks when the budget runs out
/// mid-batch; fails whole (NotFound / FailedPrecondition /
/// ResourceExhausted) only when nothing can be drawn at all.
struct BatchAcceptTasksRequest {
  core::UserTaggerId tagger = 0;
  core::ProjectId project = 0;
  size_t count = 1;
};
struct BatchAcceptTasksResponse {
  Status status;
  /// Task handles are opaque global ids that route the later
  /// submit/decide to the owning shard.
  std::vector<core::AcceptedTask> tasks;
};

/// One tag submission against an accepted task handle.
struct SubmitTagsItem {
  core::UserTaggerId tagger = 0;
  core::TaskHandle handle = 0;
  std::vector<std::string> tags;  ///< raw texts; normalized server-side
};
/// Items may target different projects (and shards); the core groups them
/// per shard and submits shard-parallel, merging statuses back in request
/// order. Per-item failures: zero handle / empty tags →
/// InvalidArgument; unknown or already-submitted handle → NotFound; a
/// handle accepted by a different tagger → FailedPrecondition.
struct BatchSubmitTagsRequest {
  std::vector<SubmitTagsItem> items;
};
struct BatchSubmitTagsResponse {
  BatchOutcome outcome;
};

// ------------------------------------------------------------- moderation

/// One Approve/Disapprove decision on a pending submission.
struct DecideItem {
  core::TaskHandle handle = 0;
  bool approve = true;
};
/// Batched moderation. Approvals of the same project are flushed through
/// one CompletePostBatch pass (one quality-feed point per project per
/// request); groups are fanned out per shard.
/// Per-item failures: zero/unknown handle → NotFound; a submission in a
/// project not owned by `provider` → FailedPrecondition. A rejection is a
/// *successful* decision (OK) that refunds the task.
struct BatchDecideRequest {
  core::ProviderId provider = 0;
  std::vector<DecideItem> items;
};
struct BatchDecideResponse {
  BatchOutcome outcome;
};

// ------------------------------------------------------------- simulation

/// Advances simulated time, pumping every running platform-backed project
/// (all shards in parallel). `ticks` must be >= 0 (InvalidArgument); 0 is
/// a no-op that just reads the clock.
struct StepRequest {
  Tick ticks = 1;
};
struct StepResponse {
  Status status;
  Tick now = 0;  ///< clock after the step (set even on error)
};

// ------------------------------------------------------------------ admin

/// Forces a durability checkpoint: every database of the core serializes
/// its tables to the snapshot file and truncates its WAL (pool-parallel).
/// Mutations are already written through as they happen, so a checkpoint
/// bounds *recovery time*, not durability; operators (and the daemon's
/// SIGTERM handler) call this before planned restarts. A no-op success
/// with durable=false on an in-memory core.
struct CheckpointRequest {};
struct CheckpointResponse {
  Status status;
  /// False when the core is in-memory (nothing was written).
  bool durable = false;
  /// Tables and total rows covered by the snapshot, summed across shards.
  uint64_t tables = 0;
  uint64_t rows = 0;
};

/// Promotes a read replica to writable primary (replication failover). The
/// follower finishes draining whatever stream tail it has, detaches from the
/// dead primary, resolves any in-flight migration intents, and starts
/// accepting writes. On an already-writable server the call fails with
/// FailedPrecondition and changes nothing, so firing it at the wrong address
/// is harmless. See docs/replication.md for the promote procedure.
struct PromoteRequest {};
struct PromoteResponse {
  Status status;
  /// True when this call performed the flip (false on the error paths).
  bool was_replica = false;
};

// ----------------------------------------------------------- observability

/// Reads a point-in-time snapshot of the process metrics registry
/// (obs::MetricsRegistry::Default()) — the uniform monitoring surface over
/// every layer: api.* per-request-type counts and latency histograms,
/// core.* shard/step/routing stats, net.* connection and byte counters,
/// storage.* WAL and checkpoint stats. See docs/observability.md for the
/// full catalogue. Read-only and always OK; never touches a shard mutex
/// (metrics are relaxed atomics).
struct MetricsQueryRequest {
  /// Only metrics whose dotted name starts with this prefix are returned
  /// (e.g. "api." or "storage.wal."); empty returns everything.
  std::string prefix;
};
struct MetricsQueryResponse {
  Status status;
  /// Samples sorted by name (a deterministic order, so two back-to-back
  /// queries of an idle server encode byte-identically).
  std::vector<obs::MetricSample> metrics;
};

/// Reads retained request traces out of the process trace ring
/// (obs::Tracer::Default()): per-request span trees from frame decode to
/// WAL append, captured by 1-in-N head sampling plus the unconditional
/// slow-trace net (see docs/observability.md). Read-only and always OK;
/// like MetricsQuery it never touches a shard mutex.
struct TraceQueryRequest {
  /// Only traces whose root span lasted at least this long are returned
  /// (0 = all).
  uint64_t min_duration_us = 0;
  /// Exact endpoint-name filter ("BatchSubmitTags", ...); empty = any.
  std::string endpoint;
  /// Cap on returned traces; 0 means the full ring (server-side clamped to
  /// the ring capacity either way).
  uint32_t max_traces = 32;
};
struct TraceQueryResponse {
  Status status;
  /// Newest first. Within each trace the root span comes first, the rest
  /// sorted by start time.
  std::vector<obs::TraceRecord> traces;
};

// ------------------------------------------------------------- dispatcher

/// The closed set of requests Service::Dispatch routes. Kept in lock-step
/// with kApiVersion: adding a request alternative is compatible, changing
/// one is not.
using AnyRequest =
    std::variant<RegisterProviderRequest, RegisterTaggerRequest,
                 CreateProjectRequest, BatchUploadResourcesRequest,
                 BatchControlRequest, ProjectQueryRequest,
                 BatchAcceptTasksRequest, BatchSubmitTagsRequest,
                 BatchDecideRequest, StepRequest, CheckpointRequest,
                 MetricsQueryRequest, TraceQueryRequest, PromoteRequest>;

using AnyResponse =
    std::variant<RegisterProviderResponse, RegisterTaggerResponse,
                 CreateProjectResponse, BatchUploadResourcesResponse,
                 BatchControlResponse, ProjectQueryResponse,
                 BatchAcceptTasksResponse, BatchSubmitTagsResponse,
                 BatchDecideResponse, StepResponse, CheckpointResponse,
                 MetricsQueryResponse, TraceQueryResponse, PromoteResponse>;

/// Number of request alternatives. The wire protocol uses the variant index
/// as its request/response type tag, so alternative order is part of the
/// compatibility contract guarded by kApiVersion.
inline constexpr size_t kRequestTypeCount = std::variant_size_v<AnyRequest>;

/// Stable endpoint name of the AnyRequest alternative at `index`
/// ("RegisterProvider", ...), for wire-level logs and error messages.
inline const char* RequestTypeName(size_t index) {
  static constexpr const char* kNames[] = {
      "RegisterProvider", "RegisterTagger",  "CreateProject",
      "BatchUploadResources", "BatchControl", "ProjectQuery",
      "BatchAcceptTasks", "BatchSubmitTags", "BatchDecide",
      "Step", "Checkpoint", "MetricsQuery", "TraceQuery", "Promote",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kRequestTypeCount,
                "RequestTypeName out of sync with AnyRequest");
  return index < kRequestTypeCount ? kNames[index] : "?";
}

namespace detail {
/// Index of alternative T inside a std::variant (compile-time).
template <typename T, typename Variant>
struct VariantIndexOf;
template <typename T, typename... Alts>
struct VariantIndexOf<T, std::variant<Alts...>> {
  static constexpr size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Alts>...};
    for (size_t i = 0; i < sizeof...(Alts); ++i) {
      if (matches[i]) return i;
    }
    return sizeof...(Alts);
  }();
};
}  // namespace detail

/// Compile-time variant index (== wire type tag) of a request struct, e.g.
/// `kRequestTypeIndex<StepRequest>`. Used by the service instrumentation
/// to key per-request-type metrics without hardcoding tag numbers.
template <typename T>
inline constexpr size_t kRequestTypeIndex =
    detail::VariantIndexOf<T, AnyRequest>::value;

static_assert(kRequestTypeIndex<PromoteRequest> == kRequestTypeCount - 1,
              "kRequestTypeIndex out of sync with AnyRequest");

}  // namespace itag::api

#endif  // ITAG_API_REQUESTS_H_
