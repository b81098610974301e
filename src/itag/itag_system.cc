#include "itag/itag_system.h"

#include <algorithm>
#include <cassert>

#include "common/binio.h"
#include "common/string_util.h"
#include "itag/tables.h"

namespace itag::core {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using tagging::ResourceId;

ITagSystem::ITagSystem(ITagSystemOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

Status ITagSystem::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  ITAG_RETURN_IF_ERROR(db_.Open(options_.db));
  ITAG_RETURN_IF_ERROR(AttachManagers());
  initialized_ = true;
  return Status::OK();
}

Status ITagSystem::Reattach() {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  // Reset to the post-construction baseline; AttachManagers then restores
  // from the tables exactly as a fresh Init on this directory would. The
  // database itself stays open — its contents are the input here.
  clock_ = SimClock();
  rng_ = Rng(options_.seed);
  ledger_ = crowd::PaymentLedger();
  in_flight_mturk_.clear();
  in_flight_social_.clear();
  tasks_.clear();
  next_handle_ = 1;
  tasks_accepted_total_ = 0;
  in_flight_rows_.clear();
  return AttachManagers();
}

Status ITagSystem::AttachManagers() {
  users_ = std::make_unique<UserManager>(&db_);
  ITAG_RETURN_IF_ERROR(users_->Attach());
  resources_ = std::make_unique<ResourceManager>(&db_);
  ITAG_RETURN_IF_ERROR(resources_->Attach());
  tag_manager_ = std::make_unique<TagManager>(&db_);
  ITAG_RETURN_IF_ERROR(tag_manager_->Attach());
  quality_ = std::make_unique<QualityManager>(resources_.get(),
                                              tag_manager_.get(),
                                              users_.get(), &clock_, &db_);
  // Rebuilds corpora (dictionary + resources + post log), project records,
  // engines, feeds and inboxes from storage.
  ITAG_RETURN_IF_ERROR(quality_->Attach());

  // The worker pools are regenerated from the seed — identical to the ones
  // the original process held — and the simulators' runtime state (tasks,
  // stats, RNG streams, exposure) is then restored on top from storage.
  Rng pool_rng(options_.seed ^ 0xABCDEF);
  mturk_ = std::make_unique<crowd::MTurkSim>(
      crowd::GenerateWorkerPool(options_.mturk_pool, &pool_rng), &ledger_);
  crowd::WorkerPoolConfig social_pool = options_.mturk_pool;
  social_ = std::make_unique<crowd::SocialNetSim>(
      crowd::GenerateWorkerPool(social_pool, &pool_rng), &ledger_,
      options_.social);
  return AttachRuntimeState();
}

Result<CheckpointInfo> ITagSystem::Checkpoint() {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  ITAG_RETURN_IF_ERROR(db_.Checkpoint());
  CheckpointInfo info;
  info.durable = db_.durable();
  info.tables = db_.TableNames().size();
  info.rows = db_.TotalRows();
  return info;
}

// ------------------------------------------------------------- persistence

namespace {

/// sys-row keys of the facade scalars and platform blobs.
constexpr char kSysCore[] = "core";
constexpr char kSysLedger[] = "ledger";
constexpr char kSysMTurk[] = "mturk";
constexpr char kSysSocial[] = "social";

/// The two tables that held open tasks before the `tasks` table.
constexpr const char* kRetiredTaskTables[] = {"accepted", "pending"};

}  // namespace

Status ITagSystem::AttachRuntimeState() {
  for (const char* retired : kRetiredTaskTables) {
    if (db_.GetTable(retired) != nullptr) {
      return Status::FailedPrecondition(
          std::string("table '") + retired +
          "' holds open tasks of the layout before the tasks table, which "
          "this version does not read");
    }
  }
  ITAG_RETURN_IF_ERROR(db_.EnsureTable(tables::kTasks,
                                       SchemaBuilder()
                                           .Int("handle")
                                           .Int("project")
                                           .Int("resource")
                                           .Int("tagger")
                                           .Str("tags")
                                           .Build()));
  ITAG_RETURN_IF_ERROR(db_.AddUniqueIndex(tables::kTasks, "handle"));
  ITAG_RETURN_IF_ERROR(db_.EnsureTable(tables::kInFlight,
                                       SchemaBuilder()
                                           .Int("platform")
                                           .Int("task")
                                           .Int("project")
                                           .Int("resource")
                                           .Build()));
  ITAG_RETURN_IF_ERROR(
      db_.EnsureTable(tables::kSys, SchemaBuilder().Str("k").Str("v").Build()));
  ITAG_RETURN_IF_ERROR(db_.AddUniqueIndex(tables::kSys, "k"));

  // ---- restore: workflow maps.
  Status restored = Status::OK();
  ITAG_RETURN_IF_ERROR(db_.GetTable(tables::kTasks)
      ->Scan([&](storage::RowId, const Row& row) {
        PendingSubmission task;
        task.handle = static_cast<TaskHandle>(row[0].as_int());
        task.project = static_cast<ProjectId>(row[1].as_int());
        task.resource = static_cast<ResourceId>(row[2].as_int());
        task.tagger = static_cast<UserTaggerId>(row[3].as_int());
        ByteReader r(row[4].as_string());
        if (!r.StrVec(&task.tags) || !r.AtEnd()) {
          restored = Status::Corruption("malformed tags of task " +
                                        std::to_string(task.handle));
          return false;
        }
        tasks_.emplace(task.handle, std::move(task));
        return true;
      }));
  ITAG_RETURN_IF_ERROR(restored);
  ITAG_RETURN_IF_ERROR(db_.GetTable(tables::kInFlight)
      ->Scan([&](storage::RowId rid, const Row& row) {
        int platform = static_cast<int>(row[0].as_int());
        crowd::TaskId task = static_cast<crowd::TaskId>(row[1].as_int());
        InFlight flight;
        flight.project = static_cast<ProjectId>(row[2].as_int());
        flight.resource = static_cast<ResourceId>(row[3].as_int());
        (platform == 0 ? in_flight_mturk_ : in_flight_social_)
            .emplace(task, flight);
        in_flight_rows_[{platform, task}] = rid;
        return true;
      }));

  // ---- restore: sys rows (scalars, payment totals, platform blobs).
  std::map<std::string, std::string> sys;
  ITAG_RETURN_IF_ERROR(
      db_.GetTable(tables::kSys)->Scan([&](storage::RowId, const Row& row) {
        sys[row[0].as_string()] = row[1].as_string();
        return true;
      }));
  if (auto it = sys.find(kSysCore); it != sys.end()) {
    ByteReader r(it->second);
    uint64_t next_handle, accepted_total;
    int64_t now;
    RngState rng;
    if (!r.U64(&next_handle) || !r.U64(&accepted_total) || !r.I64(&now) ||
        !r.U64(&rng.state) || !r.U64(&rng.inc) || !r.AtEnd()) {
      return Status::Corruption("malformed sys core row");
    }
    next_handle_ = next_handle;
    tasks_accepted_total_ = accepted_total;
    clock_.AdvanceTo(now);
    rng_.RestoreState(rng);
  }
  if (auto it = sys.find(kSysLedger); it != sys.end()) {
    ByteReader r(it->second);
    uint64_t total, count;
    if (!r.U64(&total) || !r.U64(&count) || !r.AtEnd()) {
      return Status::Corruption("malformed sys ledger row");
    }
    ledger_.RestoreTotals(total, count);
  }
  persisted_payments_ = ledger_.PaymentCount();
  if (auto it = sys.find(kSysMTurk); it != sys.end()) {
    if (!mturk_->RestoreState(it->second)) {
      return Status::Corruption("malformed mturk platform state");
    }
  }
  if (auto it = sys.find(kSysSocial); it != sys.end()) {
    if (!social_->RestoreState(it->second)) {
      return Status::Corruption("malformed social platform state");
    }
  }
  // A blob is not rewritten for ticks that only move its clock, so the
  // clock it carries may trail the core clock, which every tick advances
  // and every Step writes.
  mturk_->SetClock(clock_.Now());
  social_->SetClock(clock_.Now());
  mturk_blob_ = mturk_->EncodeState();
  social_blob_ = social_->EncodeState();
  return Status::OK();
}

void ITagSystem::FlushDirtyRows() {
  (void)users_->FlushDirty();
  // Every payment is made inside a call (SettleApproval, directly or
  // through a platform's Approve), so the totals row is written at its end.
  if (ledger_.PaymentCount() != persisted_payments_) {
    persisted_payments_ = ledger_.PaymentCount();
    ByteWriter totals;
    totals.U64(ledger_.TotalPaid());
    totals.U64(ledger_.PaymentCount());
    PersistSys(kSysLedger, totals.Take());
  }
}

void ITagSystem::PersistSys(const std::string& key, std::string value) {
  (void)db_.Upsert(tables::kSys,
                   {Value::Str(key), Value::Str(std::move(value))});
}

void ITagSystem::PersistCore() {
  ByteWriter w;
  w.U64(next_handle_);
  w.U64(tasks_accepted_total_);
  w.I64(clock_.Now());
  RngState rng = rng_.SaveState();
  w.U64(rng.state);
  w.U64(rng.inc);
  PersistSys(kSysCore, w.Take());
}

void ITagSystem::PersistPlatforms() {
  PersistPlatform(kSysMTurk, *mturk_, &mturk_blob_);
  PersistPlatform(kSysSocial, *social_, &social_blob_);
}

void ITagSystem::PersistPlatform(const char* key,
                                 const crowd::SimPlatformBase& sim,
                                 std::string* written) {
  std::string blob = sim.EncodeState();
  // Every blob starts with its simulator's clock, one 8-byte tick.
  constexpr size_t kClockBytes = sizeof(int64_t);
  if (blob.compare(kClockBytes, std::string::npos, *written, kClockBytes,
                   std::string::npos) == 0) {
    return;
  }
  *written = blob;
  PersistSys(key, std::move(blob));
}

void ITagSystem::PersistTask(const PendingSubmission& task) {
  ByteWriter tags;
  tags.StrVec(task.tags);
  (void)db_.Upsert(tables::kTasks,
                   {Value::Int(static_cast<int64_t>(task.handle)),
                    Value::Int(static_cast<int64_t>(task.project)),
                    Value::Int(static_cast<int64_t>(task.resource)),
                    Value::Int(static_cast<int64_t>(task.tagger)),
                    Value::Str(tags.Take())});
}

void ITagSystem::DeleteTask(TaskHandle handle) {
  const storage::Table* t = db_.GetTable(tables::kTasks);
  Result<storage::RowId> rid =
      t->LookupUnique("handle", Value::Int(static_cast<int64_t>(handle)));
  if (rid.ok()) (void)db_.Delete(tables::kTasks, rid.value());
}

void ITagSystem::PersistInFlight(int platform, crowd::TaskId task,
                                 const InFlight& flight) {
  Result<storage::RowId> rid =
      db_.Insert(tables::kInFlight,
                 {Value::Int(platform), Value::Int(static_cast<int64_t>(task)),
                  Value::Int(static_cast<int64_t>(flight.project)),
                  Value::Int(static_cast<int64_t>(flight.resource))});
  if (rid.ok()) in_flight_rows_[{platform, task}] = rid.value();
}

void ITagSystem::DeleteInFlight(int platform, crowd::TaskId task) {
  auto it = in_flight_rows_.find({platform, task});
  if (it == in_flight_rows_.end()) return;
  (void)db_.Delete(tables::kInFlight, it->second);
  in_flight_rows_.erase(it);
}

// --------------------------------------------------------------- call scope

class ITagSystem::CallScope {
 public:
  explicit CallScope(ITagSystem* sys) : sys_(sys) {
    ++sys_->call_depth_;
    sys_->db_.BeginBatch();
  }
  // Runs on every return path. A commit failure is not lost: it poisons the
  // database (storage::Database::wal_error), so the next write reports it.
  ~CallScope() {
    const bool outermost = --sys_->call_depth_ == 0;
    if (outermost) sys_->FlushDirtyRows();
    (void)sys_->db_.CommitBatch();
    if (!outermost) return;
    for (ProjectId project : sys_->publish_queue_.Take()) {
      sys_->publish_hook_(project);
    }
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  ITagSystem* sys_;
};

void ITagSystem::MarkChanged(ProjectId project) {
  assert(call_depth_ > 0);
  if (publish_hook_) publish_queue_.Mark(project);
}

Status ITagSystem::MarkIfOk(ProjectId project, Status status) {
  if (status.ok()) MarkChanged(project);
  return status;
}

// ------------------------------------------------------------------- users

Result<ProviderId> ITagSystem::RegisterProvider(const std::string& name) {
  return users_->RegisterProvider(name);
}

Result<UserTaggerId> ITagSystem::RegisterTagger(const std::string& name) {
  return users_->RegisterTagger(name);
}

Result<ProviderProfile> ITagSystem::GetProvider(ProviderId id) const {
  return users_->GetProvider(id);
}

Result<TaggerProfile> ITagSystem::GetTagger(UserTaggerId id) const {
  return users_->GetTagger(id);
}

// ------------------------------------------------------------ provider API

Result<ProjectId> ITagSystem::CreateProject(ProviderId provider,
                                            const ProjectSpec& spec) {
  CallScope call(this);
  Result<ProjectId> id = quality_->CreateProject(provider, spec);
  if (id.ok()) MarkChanged(id.value());
  return id;
}

Status ITagSystem::ImportPost(ProjectId project, ResourceId resource,
                              const std::vector<std::string>& raw_tags) {
  CallScope call(this);
  return MarkIfOk(project,
                  resources_->ImportPost(project, resource, raw_tags));
}

std::vector<Status> ITagSystem::UploadResourceBatch(
    ProjectId project, const std::vector<ResourceUpload>& items,
    std::vector<ResourceId>* ids) {
  // One publication for the whole batch, not one per imported item.
  CallScope call(this);
  MarkChanged(project);
  std::vector<Status> out;
  out.reserve(items.size());
  ids->clear();
  ids->reserve(items.size());
  for (const ResourceUpload& item : items) {
    Result<ResourceId> r = resources_->UploadResource(
        project, item.kind, item.uri, item.description);
    Status s = r.status();
    ResourceId id = tagging::kInvalidResource;
    if (r.ok()) {
      id = r.value();
      if (!item.initial_tags.empty()) {
        s = ImportPost(project, id, item.initial_tags);
      }
    }
    ids->push_back(id);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Status> ITagSystem::ControlBatch(
    ProjectId project, const std::vector<ControlItem>& items) {
  // One publication and one atomic WAL record for the whole batch: a torn
  // tail keeps all of it or none.
  CallScope call(this);
  std::vector<Status> out;
  out.reserve(items.size());
  for (const ControlItem& item : items) {
    out.push_back(MarkIfOk(project, quality_->Control(project, item)));
  }
  return out;
}

Result<strategy::StrategyKind> ITagSystem::RecommendStrategy(
    ProjectId project) const {
  return quality_->RecommendStrategy(project);
}

Result<ProjectInfo> ITagSystem::GetProjectInfo(ProjectId project) const {
  return quality_->GetInfo(project);
}

std::vector<ProjectInfo> ITagSystem::ListProjects(ProviderId provider) const {
  return quality_->ListProjects(provider);
}

const std::vector<QualityPoint>& ITagSystem::QualityFeed(
    ProjectId project) const {
  return quality_->QualityFeed(project);
}

Result<QualityManager::ResourceDetail> ITagSystem::GetResourceDetail(
    ProjectId project, ResourceId resource) const {
  return quality_->GetResourceDetail(project, resource);
}

std::vector<Notification> ITagSystem::LatestNotifications(ProviderId provider,
                                                          size_t limit) {
  return quality_->Notifications(provider).Latest(limit);
}

std::vector<PendingSubmission> ITagSystem::PendingApprovals(
    ProjectId project) const {
  std::vector<PendingSubmission> out;
  for (const auto& [handle, task] : tasks_) {
    (void)handle;
    if (task.project == project && !task.tags.empty()) out.push_back(task);
  }
  return out;
}

Result<tagging::Post> ITagSystem::BuildPost(const PendingSubmission& sub,
                                            tagging::Corpus* corpus) {
  tagging::Post post;
  post.time = clock_.Now();
  post.tagger = static_cast<tagging::TaggerId>(
      sub.tagger == static_cast<UserTaggerId>(-1) ? 0xFFFFFFFEu
                                                  : sub.tagger);
  for (const std::string& raw : sub.tags) {
    tagging::TagId id = corpus->dict().Intern(raw);
    if (id == tagging::kInvalidTag) continue;
    if (std::find(post.tags.begin(), post.tags.end(), id) ==
        post.tags.end()) {
      post.tags.push_back(id);
    }
  }
  if (post.tags.empty()) {
    return Status::InvalidArgument("submission had no usable tags");
  }
  return post;
}

Status ITagSystem::SettleApproval(const PendingSubmission& sub,
                                  const QualityManager::ProjectRec* rec,
                                  crowd::CrowdPlatform* platform) {
  if (platform != nullptr) {
    ITAG_RETURN_IF_ERROR(platform->Approve(sub.platform_task));
  }
  if (sub.tagger != static_cast<UserTaggerId>(-1)) {
    ITAG_RETURN_IF_ERROR(users_->RecordDecision(
        rec->provider, sub.tagger, true, rec->spec.pay_cents));
    ledger_.Pay(rec->spec.pay_cents);
  } else {
    ITAG_RETURN_IF_ERROR(users_->RecordProviderDecision(rec->provider, true));
  }
  return Status::OK();
}

Status ITagSystem::ApplyRejection(const PendingSubmission& sub,
                                  const QualityManager::ProjectRec* rec,
                                  crowd::CrowdPlatform* platform) {
  if (platform != nullptr) {
    ITAG_RETURN_IF_ERROR(platform->Reject(sub.platform_task));
  }
  if (sub.tagger != static_cast<UserTaggerId>(-1)) {
    ITAG_RETURN_IF_ERROR(
        users_->RecordDecision(rec->provider, sub.tagger, false, 0));
  } else {
    ITAG_RETURN_IF_ERROR(
        users_->RecordProviderDecision(rec->provider, false));
  }
  // Refund the task and retry the resource.
  MarkChanged(sub.project);
  ITAG_RETURN_IF_ERROR(quality_->RefundTask(sub.project));
  (void)quality_->Control(sub.project,
                          {ControlAction::kPromoteResource, sub.resource});
  return Status::OK();
}

std::vector<Status> ITagSystem::DecideBatch(
    ProviderId provider,
    const std::vector<std::pair<TaskHandle, bool>>& decisions) {
  // Every project a decided submission belongs to publishes once, after
  // the whole batch, whatever the item's outcome.
  CallScope call(this);
  std::vector<Status> out;
  out.reserve(decisions.size());
  // Approved items queued for the per-project flush, each remembering the
  // `out` slot its final status lands in.
  struct QueuedApproval {
    ApprovedItem item;
    size_t out_index;
  };
  std::map<ProjectId, std::vector<QueuedApproval>> approved;

  for (const auto& [handle, approve] : decisions) {
    auto it = tasks_.find(handle);
    if (it == tasks_.end() || it->second.tags.empty()) {
      // Never issued, not yet submitted, or already decided.
      out.push_back(Status::NotFound("submission " + std::to_string(handle)));
      continue;
    }
    const PendingSubmission& sub = it->second;
    MarkChanged(sub.project);
    const QualityManager::ProjectRec* rec = quality_->GetRec(sub.project);
    if (rec == nullptr) {
      out.push_back(
          Status::NotFound("project " + std::to_string(sub.project)));
      continue;
    }
    if (rec->provider != provider) {
      out.push_back(Status::FailedPrecondition("not this provider's project"));
      continue;
    }
    // Only audience submissions wait here: Step decides platform work as
    // it arrives, so no decision reaches a platform.
    if (!approve) {
      out.push_back(ApplyRejection(sub, rec, nullptr));
      tasks_.erase(it);
      DeleteTask(handle);
      continue;
    }
    tagging::Corpus* corpus = resources_->GetCorpus(sub.project);
    if (corpus == nullptr) {
      out.push_back(Status::Internal("corpus missing"));
      tasks_.erase(it);
      DeleteTask(handle);
      continue;
    }
    Result<tagging::Post> post = BuildPost(sub, corpus);
    if (!post.ok()) {
      out.push_back(post.status());
      tasks_.erase(it);
      DeleteTask(handle);
      continue;
    }
    approved[sub.project].push_back(
        {{sub, std::move(post).value()}, out.size()});
    out.push_back(Status::OK());  // finalized by the flush below
    tasks_.erase(it);
    DeleteTask(handle);
  }

  // One corpus/quality pass per touched project; a submission is only
  // settled (worker paid, stats recorded) once its post is in the corpus.
  for (auto& [project, queued] : approved) {
    std::vector<std::pair<ResourceId, tagging::Post>> posts;
    posts.reserve(queued.size());
    for (QueuedApproval& q : queued) {
      posts.emplace_back(q.item.sub.resource, std::move(q.item.post));
    }
    std::vector<Status> statuses =
        quality_->CompletePostBatch(project, std::move(posts));
    const QualityManager::ProjectRec* rec = quality_->GetRec(project);
    for (size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) {
        out[queued[i].out_index] = std::move(statuses[i]);
        continue;
      }
      out[queued[i].out_index] =
          SettleApproval(queued[i].item.sub, rec, nullptr);
    }
  }
  return out;
}

Result<size_t> ITagSystem::ExportProject(ProjectId project,
                                         const std::string& path) const {
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  return tag_manager_->ExportCsv(*corpus, path);
}

// ---------------------------------------------------------- shard migration

Result<ITagSystem::ProjectBundle> ITagSystem::ExtractProject(
    ProjectId project) const {
  const QualityManager::ProjectRec* rec = quality_->GetRec(project);
  if (rec == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  // Posted platform tasks reference this shard's simulator (task ids,
  // worker state) and cannot be carried across; the rebalancer retries once
  // the in-flight window drains. Open audience tasks are plain data and
  // travel with the bundle.
  for (const auto* in_flight : {&in_flight_mturk_, &in_flight_social_}) {
    for (const auto& [task, flight] : *in_flight) {
      (void)task;
      if (flight.project == project) {
        return Status::FailedPrecondition(
            "project " + std::to_string(project) +
            " has in-flight platform tasks");
      }
    }
  }

  ProjectBundle bundle;
  bundle.provider = rec->provider;
  ITAG_ASSIGN_OR_RETURN(bundle.project_row,
                        quality_->EncodeProjectRow(project));
  bundle.feed = quality_->QualityFeed(project);
  ITAG_ASSIGN_OR_RETURN(bundle.corpus, resources_->ExtractCorpus(project));
  for (const auto& [handle, task] : tasks_) {
    (void)handle;
    if (task.project == project) bundle.tasks.push_back(task);
  }
  // Adoption renumbers in bundle order: the unsubmitted tasks first, then
  // the submitted ones, each oldest first.
  std::stable_partition(
      bundle.tasks.begin(), bundle.tasks.end(),
      [](const PendingSubmission& task) { return task.tags.empty(); });
  return bundle;
}

Result<ProjectId> ITagSystem::AdoptProject(
    const ProjectBundle& bundle,
    std::vector<std::pair<TaskHandle, TaskHandle>>* handle_map) {
  CallScope call(this);
  ProjectId id = quality_->next_project_id();
  ITAG_RETURN_IF_ERROR(resources_->AdoptCorpus(id, bundle.corpus));
  ITAG_RETURN_IF_ERROR(
      quality_->AdoptProject(id, bundle.project_row, bundle.feed));
  // Open tasks are renumbered onto this shard's handle counter (the source
  // handles may already be taken here); the caller records the mapping so
  // client-held handles keep resolving.
  for (PendingSubmission task : bundle.tasks) {
    handle_map->emplace_back(task.handle, next_handle_);
    task.handle = next_handle_++;
    task.project = id;
    PersistTask(task);
    tasks_.emplace(task.handle, std::move(task));
  }
  PersistCore();
  MarkChanged(id);
  return id;
}

Status ITagSystem::EraseProject(ProjectId project) {
  if (quality_->GetRec(project) == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  // Published on every return path: the observer drops a project that is
  // gone and keeps one a failed erase left behind.
  CallScope call(this);
  MarkChanged(project);
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->second.project != project) {
      ++it;
      continue;
    }
    TaskHandle handle = it->first;
    it = tasks_.erase(it);
    DeleteTask(handle);
  }
  ITAG_RETURN_IF_ERROR(quality_->DropProject(project));
  return resources_->DropCorpus(project);
}

// -------------------------------------------------------------- tagger API

std::vector<ProjectInfo> ITagSystem::ListOpenProjects() const {
  std::vector<ProjectInfo> out;
  for (const ProjectInfo& info :
       quality_->ListProjects(static_cast<ProviderId>(-1))) {
    if (info.state == ProjectState::kRunning && info.budget_remaining > 0) {
      out.push_back(info);
    }
  }
  return out;
}

Result<std::vector<AcceptedTask>> ITagSystem::AcceptTasks(UserTaggerId tagger,
                                                          ProjectId project,
                                                          size_t count) {
  ITAG_RETURN_IF_ERROR(users_->GetTagger(tagger).status());
  CallScope call(this);
  ITAG_ASSIGN_OR_RETURN(std::vector<ResourceId> resources,
                        quality_->ChooseTaskBatch(project, count));
  const QualityManager::ProjectRec* rec = quality_->GetRec(project);
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  std::vector<AcceptedTask> tasks;
  tasks.reserve(resources.size());
  for (ResourceId resource : resources) {
    PendingSubmission open;
    open.handle = next_handle_++;
    open.project = project;
    open.resource = resource;
    open.tagger = tagger;
    PersistTask(open);
    tasks_.emplace(open.handle, open);
    tasks.push_back({open.handle, project, resource,
                     corpus->resource(resource).uri, rec->spec.pay_cents});
  }
  tasks_accepted_total_ += tasks.size();
  PersistCore();
  MarkChanged(project);
  return tasks;
}

Status ITagSystem::SubmitTags(UserTaggerId tagger, TaskHandle handle,
                              const std::vector<std::string>& raw_tags) {
  auto it = tasks_.find(handle);
  if (it == tasks_.end() || !it->second.tags.empty()) {
    // NotFound for any handle without an open unsubmitted task — never-
    // issued handles and already-submitted ones look the same to the caller.
    return Status::NotFound("task " + std::to_string(handle));
  }
  if (it->second.tagger != tagger) {
    return Status::FailedPrecondition("task accepted by another tagger");
  }
  std::vector<std::string> normalized;
  for (const std::string& raw : raw_tags) {
    std::string n = NormalizeTag(raw);
    if (!n.empty()) normalized.push_back(std::move(n));
  }
  if (normalized.empty()) {
    return Status::InvalidArgument("no usable tags in submission");
  }
  it->second.tags = std::move(normalized);
  PersistTask(it->second);
  return users_->RecordSubmission(tagger);
}

std::vector<Status> ITagSystem::SubmitTagsBatch(
    const std::vector<TagSubmission>& items) {
  CallScope call(this);
  std::vector<Status> out;
  out.reserve(items.size());
  for (const TagSubmission& item : items) {
    out.push_back(SubmitTags(item.tagger, item.handle, item.tags));
  }
  return out;
}

// ------------------------------------------------------------- simulation

void ITagSystem::SetApprovalPolicy(ProviderId provider,
                                   ApprovalPolicy policy) {
  policies_[provider] = std::move(policy);
}

crowd::CrowdPlatform* ITagSystem::PlatformFor(ProjectId project) {
  const QualityManager::ProjectRec* rec = quality_->GetRec(project);
  if (rec == nullptr) return nullptr;
  switch (rec->spec.platform) {
    case PlatformChoice::kMTurk:
      return mturk_.get();
    case PlatformChoice::kSocialNetwork:
      return social_.get();
    case PlatformChoice::kAudience:
      return nullptr;
  }
  return nullptr;
}

sim::GeneratedPost ITagSystem::DefaultPostContent(ProjectId project,
                                                  ResourceId resource,
                                                  double reliability,
                                                  Tick now) {
  // Casual-tagger default: mostly echoes the resource's current popular
  // tags (rich-get-richer), occasionally invents a fresh tag. Unreliable
  // workers invent much more.
  sim::GeneratedPost out;
  out.conscientious = rng_.Bernoulli(reliability);
  tagging::Corpus* corpus = resources_->GetCorpus(project);
  out.post.time = now;
  out.post.tagger = 0xFFFFFFFEu;
  double invent_prob = out.conscientious ? 0.15 : 0.75;
  int s = 1 + rng_.Poisson(1.5);
  const SparseDist& rfd = corpus->stats(resource).Rfd();
  for (int i = 0; i < s; ++i) {
    tagging::TagId tag = tagging::kInvalidTag;
    if (!rfd.empty() && !rng_.Bernoulli(invent_prob)) {
      // Inverse-CDF over the current rfd.
      double u = rng_.NextDouble();
      double acc = 0.0;
      for (const auto& [id, p] : rfd.entries()) {
        acc += p;
        if (u <= acc) {
          tag = id;
          break;
        }
      }
    }
    if (tag == tagging::kInvalidTag) {
      tag = corpus->dict().Intern("ad-hoc-" +
                                  std::to_string(rng_.NextU32() % 10000));
    }
    if (std::find(out.post.tags.begin(), out.post.tags.end(), tag) ==
        out.post.tags.end()) {
      out.post.tags.push_back(tag);
    }
  }
  return out;
}

Status ITagSystem::HandleSubmission(crowd::CrowdPlatform* platform,
                                    const crowd::TaskEvent& ev,
                                    ApprovedPosts* approved) {
  std::map<crowd::TaskId, InFlight>& in_flight =
      platform == mturk_.get() ? in_flight_mturk_ : in_flight_social_;
  auto it = in_flight.find(ev.task);
  if (it == in_flight.end()) return Status::OK();  // not ours
  InFlight flight = it->second;
  in_flight.erase(it);
  DeleteInFlight(platform == mturk_.get() ? 0 : 1, ev.task);

  const auto& profiles = platform->worker_profiles();
  double reliability =
      ev.worker < profiles.size() ? profiles[ev.worker].reliability : 0.9;

  sim::GeneratedPost gp =
      post_source_ != nullptr
          ? post_source_(flight.project, flight.resource, reliability,
                         ev.time, &rng_)
          : DefaultPostContent(flight.project, flight.resource, reliability,
                               ev.time);

  tagging::Corpus* corpus = resources_->GetCorpus(flight.project);
  PendingSubmission sub;
  sub.handle = next_handle_++;
  sub.project = flight.project;
  sub.resource = flight.resource;
  sub.platform_task = ev.task;
  sub.conscientious_hint = gp.conscientious;
  for (tagging::TagId t : gp.post.tags) {
    sub.tags.push_back(corpus->dict().Text(t));
  }

  // Auto-moderate via the provider's policy (default approve-all).
  const QualityManager::ProjectRec* rec = quality_->GetRec(flight.project);
  if (rec == nullptr) return Status::OK();
  auto pit = policies_.find(rec->provider);
  bool approve =
      pit == policies_.end() ? true : pit->second(sub);
  if (!approve) return ApplyRejection(sub, rec, platform);
  // Approvals accumulate; the tick flushes them per project in one
  // CompletePostBatch pass and only settles once the posts are recorded.
  ITAG_ASSIGN_OR_RETURN(tagging::Post post, BuildPost(sub, corpus));
  (*approved)[sub.project].push_back({std::move(sub), std::move(post)});
  return Status::OK();
}

Status ITagSystem::PumpProject(ProjectId project,
                               QualityManager::ProjectRec* rec) {
  crowd::CrowdPlatform* platform = PlatformFor(project);
  if (platform == nullptr) return Status::OK();  // audience project
  std::map<crowd::TaskId, InFlight>& in_flight =
      platform == mturk_.get() ? in_flight_mturk_ : in_flight_social_;
  size_t ours = 0;
  for (const auto& [tid, flight] : in_flight) {
    (void)tid;
    if (flight.project == project) ++ours;
  }
  Result<ProviderProfile> provider = users_->GetProvider(rec->provider);
  double approval_rate =
      provider.ok() ? provider.value().ApprovalRate() : 1.0;
  if (ours >= kMaxOpenTasksPerProject) return Status::OK();
  // Refill the whole open-task window with one allocation pass instead of
  // one engine round-trip per task.
  Result<std::vector<ResourceId>> chosen =
      quality_->ChooseTaskBatch(project, kMaxOpenTasksPerProject - ours);
  if (!chosen.ok()) return Status::OK();  // paused / exhausted / no resource
  MarkChanged(project);  // the draw debited the budget
  const std::vector<ResourceId>& resources = chosen.value();
  for (size_t i = 0; i < resources.size(); ++i) {
    crowd::TaskSpec spec;
    spec.project = project;
    spec.resource = resources[i];
    spec.pay_cents = rec->spec.pay_cents;
    spec.requester_approval_rate = approval_rate;
    Result<crowd::TaskId> tid = platform->PostTask(spec);
    if (!tid.ok()) {
      // The batch debited every pick up front; give the unposted ones back.
      for (size_t j = i; j < resources.size(); ++j) {
        (void)quality_->RefundTask(project);
      }
      return tid.status();
    }
    InFlight flight{project, resources[i]};
    in_flight.emplace(tid.value(), flight);
    PersistInFlight(platform == mturk_.get() ? 0 : 1, tid.value(), flight);
  }
  return Status::OK();
}

Status ITagSystem::Step(Tick ticks) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  CallScope call(this);
  Tick start = clock_.Now();
  Status result = RunTicks(start + ticks);
  // Persist the non-relational runtime state whenever any tick ran — on
  // the error paths too, so the committed batch never pairs fresh
  // relational rows with a stale clock/RNG/simulator snapshot. A tick that
  // failed part way may have left a simulator's clock behind; it is set
  // to the core clock, as a restore sets it.
  if (clock_.Now() != start) {
    mturk_->SetClock(clock_.Now());
    social_->SetClock(clock_.Now());
    PersistCore();
    PersistPlatforms();
  }
  return result;
}

Status ITagSystem::RunTicks(Tick target) {
  while (clock_.Now() < target) {
    clock_.Advance(1);
    // Keep task queues full for every running platform project.
    for (ProjectId project : quality_->RunningByQuality()) {
      QualityManager::ProjectRec* rec = const_cast<QualityManager::ProjectRec*>(
          quality_->GetRec(project));
      ITAG_RETURN_IF_ERROR(PumpProject(project, rec));
    }
    // Advance both platforms one tick, route submissions, and flush the
    // tick's approvals per project in one batched corpus/quality pass.
    ApprovedPosts approved;
    for (crowd::CrowdPlatform* platform :
         {static_cast<crowd::CrowdPlatform*>(mturk_.get()),
          static_cast<crowd::CrowdPlatform*>(social_.get())}) {
      std::vector<crowd::TaskEvent> events = platform->AdvanceTo(clock_.Now());
      for (const crowd::TaskEvent& ev : events) {
        if (ev.kind == crowd::TaskEventKind::kSubmitted) {
          ITAG_RETURN_IF_ERROR(HandleSubmission(platform, ev, &approved));
        }
      }
    }
    for (auto& [project, items] : approved) {
      MarkChanged(project);
      std::vector<std::pair<ResourceId, tagging::Post>> posts;
      posts.reserve(items.size());
      for (ApprovedItem& item : items) {
        posts.emplace_back(item.sub.resource, std::move(item.post));
      }
      std::vector<Status> statuses =
          quality_->CompletePostBatch(project, std::move(posts));
      const QualityManager::ProjectRec* rec = quality_->GetRec(project);
      // Every approval of a tick is a platform worker's.
      crowd::CrowdPlatform* platform = PlatformFor(project);
      for (size_t i = 0; i < statuses.size(); ++i) {
        ITAG_RETURN_IF_ERROR(statuses[i]);
        ITAG_RETURN_IF_ERROR(SettleApproval(items[i].sub, rec, platform));
      }
    }
  }
  return Status::OK();
}

}  // namespace itag::core
