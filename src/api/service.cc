#include "api/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace itag::api {

namespace {

/// Appends `status` to the outcome, counting successes.
void Record(BatchOutcome* outcome, Status status) {
  if (status.ok()) ++outcome->ok_count;
  outcome->statuses.push_back(std::move(status));
}

/// Per-request-type metric pointers, registered once per process under
/// `api.<Endpoint>.requests` / `api.<Endpoint>.latency_us` and cached so
/// the per-call cost is two relaxed atomic adds.
struct EndpointMetrics {
  obs::Counter* requests;
  obs::Histogram* latency;
};

const EndpointMetrics& MetricsForType(size_t type) {
  static const std::array<EndpointMetrics, kRequestTypeCount> kMetrics = [] {
    std::array<EndpointMetrics, kRequestTypeCount> a{};
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    for (size_t i = 0; i < kRequestTypeCount; ++i) {
      std::string base = std::string("api.") + RequestTypeName(i);
      a[i] = {reg.GetCounter(base + ".requests"),
              reg.GetHistogram(base + ".latency_us")};
    }
    return a;
  }();
  return kMetrics[type];
}

/// `api.<Endpoint>` span names by type index, interned once so the span
/// constructor never concatenates on the hot path.
const char* SpanNameForType(size_t type) {
  static const std::array<std::string, kRequestTypeCount> kNames = [] {
    std::array<std::string, kRequestTypeCount> a{};
    for (size_t i = 0; i < kRequestTypeCount; ++i) {
      a[i] = std::string("api.") + RequestTypeName(i);
    }
    return a;
  }();
  return kNames[type].c_str();
}

/// RAII per-endpoint probe: counts the call on entry, observes its wall
/// time on exit, and — when the calling thread carries a recorded
/// TraceContext — opens the endpoint child span of the request's trace.
/// Instantiated at the top of every endpoint with that endpoint's
/// compile-time type index.
class ApiCallScope {
 public:
  explicit ApiCallScope(size_t type)
      : span_(SpanNameForType(type)), timer_(MetricsForType(type).latency) {
    MetricsForType(type).requests->Inc();
  }

 private:
  obs::Span span_;
  obs::ScopedTimer timer_;
};

/// The typed per-item / whole-call admission failure.
Status AdmissionDenied(uint64_t project) {
  return Status::ResourceExhausted("project " + std::to_string(project) +
                                   " admission limit exceeded");
}

}  // namespace

AdmissionController::AdmissionController(uint64_t rps)
    : rps_(static_cast<double>(rps)),
      rejected_(obs::MetricsRegistry::Default().GetCounter(
          "api.admission.rejected")) {}

AdmissionController::Bucket& AdmissionController::BucketFor(
    uint64_t project) {
  auto [it, inserted] = buckets_.try_emplace(project);
  if (inserted) {
    it->second.tokens = rps_;
    it->second.last = std::chrono::steady_clock::now();
  }
  return it->second;
}

void AdmissionController::RefillLocked(Bucket* bucket) {
  auto now = std::chrono::steady_clock::now();
  double elapsed = std::chrono::duration<double>(now - bucket->last).count();
  bucket->last = now;
  bucket->tokens = std::min(rps_, bucket->tokens + elapsed * rps_);
}

uint64_t AdmissionController::AdmitUpTo(uint64_t project, uint64_t want) {
  if (want == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = BucketFor(project);
  RefillLocked(&bucket);
  uint64_t grant =
      std::min(want, static_cast<uint64_t>(bucket.tokens));
  bucket.tokens -= static_cast<double>(grant);
  if (grant < want) rejected_->Inc(want - grant);
  return grant;
}

bool AdmissionController::AdmitExactly(uint64_t project, uint64_t want) {
  if (want == 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = BucketFor(project);
  RefillLocked(&bucket);
  if (static_cast<uint64_t>(bucket.tokens) < want) {
    rejected_->Inc(want);
    return false;
  }
  bucket.tokens -= static_cast<double>(want);
  return true;
}

Service::Service(core::ShardedSystemOptions options)
    : owned_(std::make_unique<core::ShardedSystem>(std::move(options))),
      sharded_(owned_.get()) {}

Service::Service(core::ShardedSystem* sharded) : sharded_(sharded) {}

Status Service::Init() {
  if (owned_ != nullptr) return owned_->Init();
  return Status::OK();
}

void Service::SetAdmissionLimit(uint64_t rps) {
  admission_ =
      rps == 0 ? nullptr : std::make_unique<AdmissionController>(rps);
}

void Service::SetReplicaMode(const std::string& leader_addr) {
  leader_addr_ = leader_addr;
  replica_.store(true, std::memory_order_release);
}

Status Service::ReplicaRejected() const {
  return Status::FailedPrecondition(
      "read replica rejects writes; redirect to leader=" + leader_addr_);
}

RegisterProviderResponse Service::RegisterProvider(
    const RegisterProviderRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<RegisterProviderRequest>);
  RegisterProviderResponse resp;
  if (replica_mode()) {
    resp.status = ReplicaRejected();
    return resp;
  }
  if (req.name.empty()) {
    resp.status = Status::InvalidArgument("provider name must be non-empty");
    return resp;
  }
  Result<core::ProviderId> r = sharded_->RegisterProvider(req.name);
  resp.status = r.status();
  if (r.ok()) resp.provider = r.value();
  return resp;
}

RegisterTaggerResponse Service::RegisterTagger(
    const RegisterTaggerRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<RegisterTaggerRequest>);
  RegisterTaggerResponse resp;
  if (replica_mode()) {
    resp.status = ReplicaRejected();
    return resp;
  }
  if (req.name.empty()) {
    resp.status = Status::InvalidArgument("tagger name must be non-empty");
    return resp;
  }
  Result<core::UserTaggerId> r = sharded_->RegisterTagger(req.name);
  resp.status = r.status();
  if (r.ok()) resp.tagger = r.value();
  return resp;
}

CreateProjectResponse Service::CreateProject(const CreateProjectRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<CreateProjectRequest>);
  CreateProjectResponse resp;
  if (replica_mode()) {
    resp.status = ReplicaRejected();
    return resp;
  }
  if (req.spec.name.empty()) {
    resp.status = Status::InvalidArgument("project name must be non-empty");
    return resp;
  }
  Result<core::ProjectId> r = sharded_->CreateProject(req.provider, req.spec);
  resp.status = r.status();
  if (r.ok()) resp.project = r.value();
  return resp;
}

BatchUploadResourcesResponse Service::BatchUploadResources(
    const BatchUploadResourcesRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<BatchUploadResourcesRequest>);
  BatchUploadResourcesResponse resp;
  resp.outcome.statuses.resize(req.items.size());
  resp.resources.assign(req.items.size(), tagging::kInvalidResource);
  if (replica_mode()) {
    for (Status& s : resp.outcome.statuses) s = ReplicaRejected();
    return resp;
  }
  // Pre-validate, then upload the valid items as one backend batch — a
  // single routed, locked pass on the core. `routed` maps backend results
  // back to the request slots that passed validation.
  std::vector<core::ResourceUpload> uploads;
  std::vector<size_t> routed;
  for (size_t i = 0; i < req.items.size(); ++i) {
    const UploadResourceItem& item = req.items[i];
    if (item.uri.empty()) {
      resp.outcome.statuses[i] =
          Status::InvalidArgument("resource uri must be non-empty");
    } else {
      uploads.push_back(
          {item.kind, item.uri, item.description, item.initial_tags});
      routed.push_back(i);
    }
  }
  // Admission: the granted prefix proceeds; the rest fail typed without
  // touching the backend.
  if (admission_ != nullptr && !uploads.empty()) {
    size_t granted = static_cast<size_t>(
        admission_->AdmitUpTo(req.project, uploads.size()));
    for (size_t j = granted; j < routed.size(); ++j) {
      resp.outcome.statuses[routed[j]] = AdmissionDenied(req.project);
    }
    uploads.resize(granted);
    routed.resize(granted);
  }
  std::vector<tagging::ResourceId> ids;
  std::vector<Status> statuses =
      sharded_->UploadResourceBatch(req.project, uploads, &ids);
  for (size_t j = 0; j < statuses.size(); ++j) {
    resp.outcome.statuses[routed[j]] = std::move(statuses[j]);
    resp.resources[routed[j]] = ids[j];
  }
  for (const Status& s : resp.outcome.statuses) {
    if (s.ok()) ++resp.outcome.ok_count;
  }
  return resp;
}

BatchControlResponse Service::BatchControl(const BatchControlRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<BatchControlRequest>);
  BatchControlResponse resp;
  resp.outcome.statuses.resize(req.items.size());
  if (replica_mode()) {
    for (Status& s : resp.outcome.statuses) s = ReplicaRejected();
    return resp;
  }
  size_t granted = req.items.size();
  if (admission_ != nullptr) {
    granted = static_cast<size_t>(
        admission_->AdmitUpTo(req.project, req.items.size()));
  }
  // The granted prefix, less its zero top-ups, goes to the core as one
  // batch: one route, one shard-lock hold, one WAL frame. `routed` maps
  // backend results back to their request slots.
  std::vector<ControlItem> items;
  std::vector<size_t> routed;
  for (size_t i = 0; i < req.items.size(); ++i) {
    const ControlItem& item = req.items[i];
    if (i >= granted) {
      resp.outcome.statuses[i] = AdmissionDenied(req.project);
    } else if (item.action == ControlAction::kAddBudget &&
               item.budget_tasks == 0) {
      resp.outcome.statuses[i] =
          Status::InvalidArgument("budget_tasks must be positive");
    } else {
      items.push_back(item);
      routed.push_back(i);
    }
  }
  if (!items.empty()) {
    std::vector<Status> statuses = sharded_->ControlBatch(req.project, items);
    for (size_t j = 0; j < statuses.size(); ++j) {
      resp.outcome.statuses[routed[j]] = std::move(statuses[j]);
    }
  }
  for (const Status& s : resp.outcome.statuses) {
    if (s.ok()) ++resp.outcome.ok_count;
  }
  return resp;
}

ProjectQueryResponse Service::ProjectQuery(const ProjectQueryRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<ProjectQueryRequest>);
  ProjectQueryResponse resp;
  if (req.detail_resources.size() > kMaxDetailResources) {
    resp.status = Status::InvalidArgument(
        "detail_resources must list at most " +
        std::to_string(kMaxDetailResources) + " resources");
    return resp;
  }
  if (admission_ != nullptr && !admission_->AdmitExactly(req.project, 1)) {
    resp.status = AdmissionDenied(req.project);
    return resp;
  }
  // Info and feed come from one published version, without a shard lock.
  Result<std::shared_ptr<const core::ProjectView>> view =
      sharded_->GetProjectView(req.project);
  resp.status = view.status();
  if (!view.ok()) return resp;
  resp.info = view.value()->info();
  resp.info.id = req.project;  // the id the caller routed by
  if (req.include_feed) resp.feed = *view.value()->feed();
  resp.detail_outcome.statuses.reserve(req.detail_resources.size());
  for (tagging::ResourceId r : req.detail_resources) {
    Result<core::QualityManager::ResourceDetail> d =
        sharded_->GetResourceDetail(req.project, r);
    if (d.ok()) resp.details.push_back(d.value());
    Record(&resp.detail_outcome, d.status());
  }
  return resp;
}

BatchAcceptTasksResponse Service::BatchAcceptTasks(
    const BatchAcceptTasksRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<BatchAcceptTasksRequest>);
  BatchAcceptTasksResponse resp;
  if (replica_mode()) {
    resp.status = ReplicaRejected();
    return resp;
  }
  // Both bounds are checked before anything is debited or admitted.
  if (req.count == 0) {
    resp.status = Status::InvalidArgument("count must be positive");
    return resp;
  }
  if (req.count > kMaxAcceptTasks) {
    resp.status = Status::InvalidArgument(
        "count must be at most " + std::to_string(kMaxAcceptTasks));
    return resp;
  }
  // All-or-nothing: a partially admitted accept would hand out fewer tasks
  // than granted tokens paid for on retry, so charge the full count.
  if (admission_ != nullptr &&
      !admission_->AdmitExactly(req.project, req.count)) {
    resp.status = AdmissionDenied(req.project);
    return resp;
  }
  Result<std::vector<core::AcceptedTask>> r =
      sharded_->AcceptTasks(req.tagger, req.project, req.count);
  resp.status = r.status();
  if (r.ok()) resp.tasks = std::move(r).value();
  return resp;
}

void Service::SubmitTagsInto(const BatchSubmitTagsRequest* reqs, size_t n,
                             BatchSubmitTagsResponse* resps) {
  if (replica_mode()) {
    for (size_t r = 0; r < n; ++r) {
      resps[r].outcome.statuses.assign(reqs[r].items.size(),
                                       ReplicaRejected());
    }
    return;
  }
  // Pre-validate, then hand the valid items to the core as one batch — it
  // groups them per shard and fans out on its pool. `routed` points each
  // backend result at the response slot of the item that passed.
  std::vector<core::TagSubmission> submissions;
  std::vector<Status*> routed;
  for (size_t r = 0; r < n; ++r) {
    std::vector<Status>& statuses = resps[r].outcome.statuses;
    statuses.resize(reqs[r].items.size());
    for (size_t i = 0; i < statuses.size(); ++i) {
      const SubmitTagsItem& item = reqs[r].items[i];
      if (item.handle == 0) {
        statuses[i] = Status::InvalidArgument("handle must be non-zero");
      } else if (item.tags.empty()) {
        statuses[i] = Status::InvalidArgument("submission must carry tags");
      } else {
        submissions.push_back({item.tagger, item.handle, item.tags});
        routed.push_back(&statuses[i]);
      }
    }
  }
  std::vector<Status> statuses = sharded_->SubmitTagsBatch(submissions);
  for (size_t j = 0; j < statuses.size(); ++j) {
    *routed[j] = std::move(statuses[j]);
  }
  for (size_t r = 0; r < n; ++r) {
    for (const Status& s : resps[r].outcome.statuses) {
      if (s.ok()) ++resps[r].outcome.ok_count;
    }
  }
}

BatchSubmitTagsResponse Service::BatchSubmitTags(
    const BatchSubmitTagsRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<BatchSubmitTagsRequest>);
  BatchSubmitTagsResponse resp;
  SubmitTagsInto(&req, 1, &resp);
  return resp;
}

std::vector<BatchSubmitTagsResponse> Service::BatchSubmitTagsMulti(
    const std::vector<BatchSubmitTagsRequest>& reqs) {
  // Metrics parity with the one-request path: N requests served by this
  // merged call bump the requests counter N times, and each observes the
  // full merged wall time (that IS the latency each request experienced).
  const EndpointMetrics& em =
      MetricsForType(kRequestTypeIndex<BatchSubmitTagsRequest>);
  em.requests->Inc(reqs.size());
  auto t0 = std::chrono::steady_clock::now();
  std::vector<BatchSubmitTagsResponse> resps(reqs.size());
  SubmitTagsInto(reqs.data(), reqs.size(), resps.data());
  uint64_t elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  for (size_t r = 0; r < reqs.size(); ++r) em.latency->Observe(elapsed_us);
  return resps;
}

BatchDecideResponse Service::BatchDecide(const BatchDecideRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<BatchDecideRequest>);
  BatchDecideResponse resp;
  resp.outcome.statuses.resize(req.items.size());
  if (replica_mode()) {
    for (Status& s : resp.outcome.statuses) s = ReplicaRejected();
    return resp;
  }
  // Pre-validate, then let the core group all approvals of a project into
  // one CompletePostBatch pass (per-shard-parallel).
  std::vector<std::pair<core::TaskHandle, bool>> decisions;
  std::vector<size_t> routed;
  for (size_t i = 0; i < req.items.size(); ++i) {
    if (req.items[i].handle == 0) {
      resp.outcome.statuses[i] =
          Status::InvalidArgument("handle must be non-zero");
    } else {
      decisions.emplace_back(req.items[i].handle, req.items[i].approve);
      routed.push_back(i);
    }
  }
  std::vector<Status> statuses = sharded_->DecideBatch(req.provider, decisions);
  for (size_t j = 0; j < statuses.size(); ++j) {
    resp.outcome.statuses[routed[j]] = std::move(statuses[j]);
  }
  for (const Status& s : resp.outcome.statuses) {
    if (s.ok()) ++resp.outcome.ok_count;
  }
  return resp;
}

StepResponse Service::Step(const StepRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<StepRequest>);
  StepResponse resp;
  if (replica_mode()) {
    resp.status = ReplicaRejected();
  } else if (req.ticks < 0) {
    resp.status = Status::InvalidArgument("ticks must be non-negative");
  } else {
    resp.status = req.ticks == 0 ? Status::OK() : sharded_->Step(req.ticks);
  }
  resp.now = sharded_->Now();
  return resp;
}

CheckpointResponse Service::Checkpoint(const CheckpointRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<CheckpointRequest>);
  (void)req;
  CheckpointResponse resp;
  Result<core::CheckpointInfo> r = sharded_->Checkpoint();
  resp.status = r.status();
  if (r.ok()) {
    resp.durable = r.value().durable;
    resp.tables = r.value().tables;
    resp.rows = r.value().rows;
  }
  return resp;
}

MetricsQueryResponse Service::MetricsQuery(const MetricsQueryRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<MetricsQueryRequest>);
  MetricsQueryResponse resp;
  resp.status = Status::OK();
  resp.metrics = obs::MetricsRegistry::Default().Snapshot(req.prefix);
  return resp;
}

TraceQueryResponse Service::TraceQuery(const TraceQueryRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<TraceQueryRequest>);
  TraceQueryResponse resp;
  resp.status = Status::OK();
  resp.traces = obs::Tracer::Default().Query(req.min_duration_us, req.endpoint,
                                             req.max_traces);
  return resp;
}

PromoteResponse Service::Promote(const PromoteRequest& req) {
  ApiCallScope obs_scope(kRequestTypeIndex<PromoteRequest>);
  (void)req;
  PromoteResponse resp;
  std::lock_guard<std::mutex> lock(promote_mu_);
  if (!replica_mode()) {
    resp.status =
        Status::FailedPrecondition("already writable: not a replica");
    return resp;
  }
  if (!promote_handler_) {
    resp.status =
        Status::FailedPrecondition("replica has no promote handler installed");
    return resp;
  }
  resp.status = promote_handler_();
  if (resp.status.ok()) {
    resp.was_replica = true;
    replica_.store(false, std::memory_order_release);
  }
  return resp;
}

AnyResponse Service::Dispatch(const AnyRequest& req) {
  return std::visit(
      [this](const auto& r) -> AnyResponse {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RegisterProviderRequest>) {
          return RegisterProvider(r);
        } else if constexpr (std::is_same_v<T, RegisterTaggerRequest>) {
          return RegisterTagger(r);
        } else if constexpr (std::is_same_v<T, CreateProjectRequest>) {
          return CreateProject(r);
        } else if constexpr (std::is_same_v<T, BatchUploadResourcesRequest>) {
          return BatchUploadResources(r);
        } else if constexpr (std::is_same_v<T, BatchControlRequest>) {
          return BatchControl(r);
        } else if constexpr (std::is_same_v<T, ProjectQueryRequest>) {
          return ProjectQuery(r);
        } else if constexpr (std::is_same_v<T, BatchAcceptTasksRequest>) {
          return BatchAcceptTasks(r);
        } else if constexpr (std::is_same_v<T, BatchSubmitTagsRequest>) {
          return BatchSubmitTags(r);
        } else if constexpr (std::is_same_v<T, BatchDecideRequest>) {
          return BatchDecide(r);
        } else if constexpr (std::is_same_v<T, StepRequest>) {
          return Step(r);
        } else if constexpr (std::is_same_v<T, CheckpointRequest>) {
          return Checkpoint(r);
        } else if constexpr (std::is_same_v<T, MetricsQueryRequest>) {
          return MetricsQuery(r);
        } else if constexpr (std::is_same_v<T, TraceQueryRequest>) {
          return TraceQuery(r);
        } else {
          static_assert(std::is_same_v<T, PromoteRequest>);
          return Promote(r);
        }
      },
      req);
}

}  // namespace itag::api
