#include "itag/quality_manager.h"

#include <algorithm>
#include <cstdint>

#include "common/binio.h"
#include "itag/tables.h"
#include "obs/metrics.h"
#include "strategy/allocator.h"

namespace itag::core {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using strategy::AllocationEngine;
using strategy::EngineOptions;
using strategy::EngineState;
using tagging::ResourceId;

namespace {

/// Seed of a project's allocation engine; recovery reconstructs engines
/// with the same seed before rewinding their RNG to the saved position.
uint64_t EngineSeed(ProjectId project) { return 0x5151 + project; }

/// Serializes the engine run of a project record: counters, assignment
/// vector, pending promotions, the provider's per-resource Stop flags and
/// the RNG stream.
std::string EncodeEngine(const QualityManager::ProjectRec& rec) {
  ByteWriter w;
  if (rec.engine == nullptr) return w.Take();
  EngineState s = rec.engine->SaveState();
  w.U32(s.budget_remaining);
  w.U32(s.tasks_assigned);
  w.U64(s.rng.state);
  w.U64(s.rng.inc);
  w.U32Vec(s.assignment);
  w.U32Vec(s.promoted);
  w.U8Vec(s.stopped);
  return w.Take();
}

/// Reads an EncodeEngine blob. Blobs written while the project record kept
/// a copy of the Stop flags end in that second flag vector; it is read and
/// dropped, since the engine's own flags are the same.
bool DecodeEngine(const std::string& blob, EngineState* s) {
  ByteReader r(blob);
  std::vector<uint32_t> promoted;
  std::vector<uint8_t> record_copy;
  if (!r.U32(&s->budget_remaining) || !r.U32(&s->tasks_assigned) ||
      !r.U64(&s->rng.state) || !r.U64(&s->rng.inc) ||
      !r.U32Vec(&s->assignment) || !r.U32Vec(&promoted) ||
      !r.U8Vec(&s->stopped) || (!r.AtEnd() && !r.U8Vec(&record_copy)) ||
      !r.AtEnd()) {
    return false;
  }
  s->promoted.assign(promoted.begin(), promoted.end());
  return true;
}

/// q(R,k) from the memo's per-resource scores: the ordered sum over
/// r = 0..n-1 divided by n, the arithmetic of QualityModel::CorpusQuality,
/// so the two agree bit for bit.
double MeanQuality(const std::vector<double>& scores) {
  if (scores.empty()) return 0.0;
  double total = 0.0;
  for (double q : scores) total += q;
  return total / static_cast<double>(scores.size());
}

/// The kProjects row for one record — the single row shape PersistProject,
/// EncodeProjectRow and AdoptProject all share.
Row BuildProjectRow(ProjectId project, const QualityManager::ProjectRec& rec) {
  return {Value::Int(static_cast<int64_t>(project)),
          Value::Int(static_cast<int64_t>(rec.provider)),
          Value::Str(rec.spec.name),
          Value::Int(static_cast<int64_t>(rec.spec.kind)),
          Value::Str(rec.spec.description),
          Value::Int(rec.spec.budget),
          Value::Int(rec.spec.pay_cents),
          Value::Int(static_cast<int64_t>(rec.spec.platform)),
          Value::Int(static_cast<int64_t>(rec.spec.strategy)),
          Value::Int(static_cast<int64_t>(rec.state)),
          Value::Int(rec.tasks_completed),
          Value::Bool(rec.exhausted_notified),
          Value::Bool(rec.engine != nullptr),
          Value::Str(EncodeEngine(rec))};
}

}  // namespace

QualityManager::QualityManager(ResourceManager* resources, TagManager* tags,
                               UserManager* users, Clock* clock,
                               storage::Database* db)
    : resources_(resources),
      tags_(tags),
      users_(users),
      clock_(clock),
      db_(db) {}

Status QualityManager::Attach() {
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kProjects,
                                        SchemaBuilder()
                                            .Int("id")
                                            .Int("provider")
                                            .Str("name")
                                            .Int("kind")
                                            .Str("description")
                                            .Int("budget")
                                            .Int("pay_cents")
                                            .Int("platform")
                                            .Int("strategy")
                                            .Int("state")
                                            .Int("tasks_completed")
                                            .Bool("exhausted")
                                            .Bool("started")
                                            .Str("engine")
                                            .Build()));
  ITAG_RETURN_IF_ERROR(db_->AddUniqueIndex(tables::kProjects, "id"));
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kQualityFeed,
                                        SchemaBuilder()
                                            .Int("project")
                                            .Int("tasks")
                                            .Real("quality")
                                            .Int("time")
                                            .Build()));
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kNotifications,
                                        SchemaBuilder()
                                            .Int("provider")
                                            .Int("kind")
                                            .Int("time")
                                            .Int("project")
                                            .Str("message")
                                            .Build()));

  // ---- recovery: project rows drive everything else. Every corpus is
  // restored first, then each record and its engine over its corpus.
  projects_.clear();
  inboxes_.clear();
  inbox_rows_.clear();
  next_project_ = 1;
  std::vector<std::pair<ProjectId, Row>> rows;
  ITAG_RETURN_IF_ERROR(db_->GetTable(tables::kProjects)
                           ->Scan([&](storage::RowId, const Row& row) {
                             rows.emplace_back(
                                 static_cast<ProjectId>(row[0].as_int()), row);
                             return true;
                           }));
  std::vector<ProjectId> ids;
  for (const auto& [id, row] : rows) ids.push_back(id);
  ITAG_RETURN_IF_ERROR(resources_->RestoreCorpora(ids));
  for (const auto& [id, row] : rows) {
    ProjectRec rec;
    ITAG_RETURN_IF_ERROR(DecodeProjectRow(id, row, &rec));
    projects_.emplace(id, std::move(rec));
    next_project_ = std::max(next_project_, id + 1);
  }

  ITAG_RETURN_IF_ERROR(db_->GetTable(tables::kQualityFeed)
      ->Scan([&](storage::RowId rid, const Row& row) {
        (void)rid;
        ProjectRec* rec = Rec(static_cast<ProjectId>(row[0].as_int()));
        if (rec != nullptr) {
          rec->feed.push_back({static_cast<uint32_t>(row[1].as_int()),
                               row[2].as_double(), row[3].as_int()});
        }
        return true;
      }));

  ITAG_RETURN_IF_ERROR(db_->GetTable(tables::kNotifications)
      ->Scan([&](storage::RowId rid, const Row& row) {
        ProviderId provider = static_cast<ProviderId>(row[0].as_int());
        Notification n;
        n.kind = static_cast<NotificationKind>(row[1].as_int());
        n.time = row[2].as_int();
        n.project = static_cast<ProjectId>(row[3].as_int());
        n.message = row[4].as_string();
        Notifications(provider).Push(std::move(n));
        inbox_rows_[provider].push_back(rid);
        return true;
      }));
  return Status::OK();
}

Status QualityManager::DecodeProjectRow(ProjectId project, const Row& row,
                                        ProjectRec* rec) {
  rec->provider = static_cast<ProviderId>(row[1].as_int());
  rec->spec.name = row[2].as_string();
  rec->spec.kind = static_cast<tagging::ResourceKind>(row[3].as_int());
  rec->spec.description = row[4].as_string();
  rec->spec.budget = static_cast<uint32_t>(row[5].as_int());
  rec->spec.pay_cents = static_cast<uint32_t>(row[6].as_int());
  rec->spec.platform = static_cast<PlatformChoice>(row[7].as_int());
  rec->spec.strategy = static_cast<strategy::StrategyKind>(row[8].as_int());
  rec->state = static_cast<ProjectState>(row[9].as_int());
  rec->tasks_completed = static_cast<uint32_t>(row[10].as_int());
  rec->exhausted_notified = row[11].as_bool();
  if (row[12].as_bool()) {
    EngineState state;
    if (!DecodeEngine(row[13].as_string(), &state)) {
      return Status::Corruption("malformed engine state for project " +
                                std::to_string(project));
    }
    tagging::Corpus* corpus = resources_->GetCorpus(project);
    if (corpus == nullptr) return Status::Internal("corpus missing");
    EngineOptions opts;
    opts.budget = state.budget_remaining;
    opts.seed = EngineSeed(project);
    rec->engine = std::make_unique<AllocationEngine>(
        corpus, strategy::MakeStrategy(rec->spec.strategy), opts);
    rec->engine->RestoreState(state);
  }
  return Status::OK();
}

void QualityManager::PersistProject(ProjectId project,
                                    const ProjectRec& rec) {
  (void)db_->Upsert(tables::kProjects, BuildProjectRow(project, rec));
}

Result<Row> QualityManager::EncodeProjectRow(ProjectId project) const {
  const ProjectRec* rec = GetRec(project);
  if (rec == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  return BuildProjectRow(project, *rec);
}

Status QualityManager::AdoptProject(ProjectId project, const Row& row,
                                    std::vector<QualityPoint> feed) {
  if (projects_.count(project)) {
    return Status::AlreadyExists("project " + std::to_string(project));
  }
  if (resources_->GetCorpus(project) == nullptr) {
    return Status::FailedPrecondition("corpus for project " +
                                      std::to_string(project) +
                                      " not adopted yet");
  }
  ProjectRec rec;
  ITAG_RETURN_IF_ERROR(DecodeProjectRow(project, row, &rec));
  rec.feed = std::move(feed);
  auto [it, inserted] = projects_.emplace(project, std::move(rec));
  (void)inserted;
  next_project_ = std::max(next_project_, project + 1);
  // Re-key the row under the destination-local id; the engine blob is
  // regenerated from the restored engine, so the write-through matches
  // what PersistProject would produce after the same history.
  PersistProject(project, it->second);
  for (const QualityPoint& p : it->second.feed) {
    (void)db_->Insert(tables::kQualityFeed,
                      {Value::Int(static_cast<int64_t>(project)),
                       Value::Int(p.tasks), Value::Real(p.quality),
                       Value::Int(p.time)});
  }
  return Status::OK();
}

Status QualityManager::DropProject(ProjectId project) {
  auto it = projects_.find(project);
  if (it == projects_.end()) {
    return Status::NotFound("project " + std::to_string(project));
  }
  projects_.erase(it);
  Result<storage::RowId> rid = db_->GetTable(tables::kProjects)->LookupUnique(
      "id", Value::Int(static_cast<int64_t>(project)));
  if (rid.ok()) (void)db_->Delete(tables::kProjects, rid.value());
  return tables::DeleteProjectRows(db_, tables::kQualityFeed, project);
}

void QualityManager::PushNotification(ProviderId provider, Notification n) {
  NotificationQueue& inbox = Notifications(provider);
  Row row = {Value::Int(static_cast<int64_t>(provider)),
             Value::Int(static_cast<int64_t>(n.kind)), Value::Int(n.time),
             Value::Int(static_cast<int64_t>(n.project)),
             Value::Str(n.message)};
  inbox.Push(std::move(n));
  std::deque<storage::RowId>& rows = inbox_rows_[provider];
  Result<storage::RowId> rid = db_->Insert(tables::kNotifications, row);
  if (rid.ok()) rows.push_back(rid.value());
  // The queue evicts beyond capacity; mirror the eviction so the persisted
  // inbox stays bounded too.
  while (rows.size() > inbox.size()) {
    (void)db_->Delete(tables::kNotifications, rows.front());
    rows.pop_front();
  }
}

QualityManager::ProjectRec* QualityManager::Rec(ProjectId project) {
  auto it = projects_.find(project);
  return it == projects_.end() ? nullptr : &it->second;
}

const QualityManager::ProjectRec* QualityManager::GetRec(
    ProjectId project) const {
  auto it = projects_.find(project);
  return it == projects_.end() ? nullptr : &it->second;
}

Result<ProjectId> QualityManager::CreateProject(ProviderId provider,
                                                const ProjectSpec& spec) {
  if (!users_->GetProvider(provider).ok()) {
    return Status::NotFound("provider " + std::to_string(provider));
  }
  if (spec.budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  ProjectId id = next_project_++;
  ITAG_RETURN_IF_ERROR(resources_->CreateProjectCorpus(id));
  ProjectRec rec;
  rec.provider = provider;
  rec.spec = spec;
  auto [it, inserted] = projects_.emplace(id, std::move(rec));
  (void)inserted;
  PersistProject(id, it->second);
  return id;
}

std::vector<ProjectId> QualityManager::ProjectIds() const {
  std::vector<ProjectId> ids;
  ids.reserve(projects_.size());
  for (const auto& entry : projects_) ids.push_back(entry.first);
  return ids;
}

Result<ProjectInfo> QualityManager::GetInfo(ProjectId project) const {
  ProjectionInputs projection;
  ITAG_ASSIGN_OR_RETURN(ProjectInfo info,
                        GetUnplannedInfo(project, &projection));
  info.projected_gain = projection.PlanGain();
  return info;
}

Result<ProjectInfo> QualityManager::GetUnplannedInfo(
    ProjectId project, ProjectionInputs* projection) const {
  const ProjectRec* rec = GetRec(project);
  if (rec == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  ProjectInfo info;
  info.id = project;
  info.provider = rec->provider;
  info.spec = rec->spec;
  info.state = rec->state;
  info.tasks_completed = rec->tasks_completed;
  info.budget_remaining =
      rec->engine != nullptr ? rec->engine->budget_remaining()
                             : rec->spec.budget;
  projection->curves = nullptr;
  projection->budget = info.budget_remaining;
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (corpus != nullptr) {
    const ProjectRec::QualityMemo& memo = Memo(*rec, *corpus);
    info.num_resources = corpus->size();
    info.quality = MeanQuality(memo.scores);
    projection->curves = memo.curves;
  }
  return info;
}

std::vector<ProjectInfo> QualityManager::ListProjects(
    ProviderId provider) const {
  std::vector<ProjectInfo> out;
  for (const auto& [id, rec] : projects_) {
    if (provider != static_cast<ProviderId>(-1) && rec.provider != provider) {
      continue;
    }
    Result<ProjectInfo> info = GetInfo(id);
    if (info.ok()) out.push_back(info.value());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.quality != b.quality) return a.quality > b.quality;
    return a.id < b.id;
  });
  return out;
}

std::vector<ProjectId> QualityManager::RunningByQuality() const {
  std::vector<std::pair<double, ProjectId>> running;
  for (const auto& [id, rec] : projects_) {
    if (rec.state != ProjectState::kRunning) continue;
    // GetInfo's quality, without its plan.
    const tagging::Corpus* corpus = resources_->GetCorpus(id);
    running.emplace_back(
        corpus != nullptr ? MeanQuality(Memo(rec, *corpus).scores) : 0.0, id);
  }
  std::sort(running.begin(), running.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<ProjectId> ids;
  ids.reserve(running.size());
  for (const auto& entry : running) ids.push_back(entry.second);
  return ids;
}

Status QualityManager::Control(ProjectId project, const ControlItem& item) {
  ProjectRec* rec = Rec(project);
  if (rec == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  AllocationEngine* engine = rec->engine.get();
  switch (item.action) {
    case ControlAction::kStart: {
      tagging::Corpus* corpus = resources_->GetCorpus(project);
      if (corpus == nullptr || corpus->size() == 0) {
        return Status::FailedPrecondition("project has no resources");
      }
      if (rec->state == ProjectState::kRunning) {
        return Status::FailedPrecondition("already running");
      }
      if (rec->state == ProjectState::kStopped) {
        return Status::FailedPrecondition("project is stopped");
      }
      if (rec->state == ProjectState::kDraft) {  // Paused only resumes
        EngineOptions opts;
        opts.budget = rec->spec.budget;
        opts.seed = EngineSeed(project);
        rec->engine = std::make_unique<AllocationEngine>(
            corpus, strategy::MakeStrategy(rec->spec.strategy), opts);
        EmitQualityPoint(project, *rec);
      }
      rec->state = ProjectState::kRunning;
      break;
    }
    case ControlAction::kPause:
      if (rec->state != ProjectState::kRunning) {
        return Status::FailedPrecondition("not running");
      }
      rec->state = ProjectState::kPaused;
      break;
    case ControlAction::kStop:
      if (rec->state == ProjectState::kStopped) return Status::OK();
      rec->state = ProjectState::kStopped;
      PersistProject(project, *rec);
      PushNotification(rec->provider,
                       {NotificationKind::kProjectStopped, clock_->Now(),
                        project, "project '" + rec->spec.name + "' stopped"});
      return Status::OK();
    case ControlAction::kAddBudget:
      if (engine == nullptr) {
        // Saturate like AllocationEngine::AddBudget does once running.
        uint64_t total =
            static_cast<uint64_t>(rec->spec.budget) + item.budget_tasks;
        rec->spec.budget =
            total > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(total);
      } else {
        engine->AddBudget(item.budget_tasks);
      }
      if (item.budget_tasks > 0) rec->exhausted_notified = false;
      break;
    case ControlAction::kSwitchStrategy:
      rec->spec.strategy = item.strategy;
      if (engine != nullptr) {
        engine->SwitchStrategy(strategy::MakeStrategy(item.strategy));
      }
      break;
    case ControlAction::kPromoteResource:
    case ControlAction::kStopResource:
    case ControlAction::kResumeResource:
      if (engine == nullptr) {
        return Status::FailedPrecondition("project not started");
      }
      ITAG_RETURN_IF_ERROR(
          item.action == ControlAction::kPromoteResource
              ? engine->Promote(item.resource)
              : engine->SetStopped(
                    item.resource,
                    item.action == ControlAction::kStopResource));
      break;
  }
  PersistProject(project, *rec);
  return Status::OK();
}

Result<strategy::StrategyKind> QualityManager::RecommendStrategy(
    ProjectId project) const {
  const ProjectRec* rec = GetRec(project);
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (rec == nullptr || corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  if (corpus->size() == 0) return strategy::StrategyKind::kHybridFpMu;
  // Share of resources still below the FP-MU switch threshold.
  size_t under = 0;
  for (ResourceId r = 0; r < corpus->size(); ++r) {
    if (corpus->PostCount(r) < 5) ++under;
  }
  double frac = static_cast<double>(under) / corpus->size();
  if (frac > 0.25) return strategy::StrategyKind::kHybridFpMu;
  return strategy::StrategyKind::kMostUnstableFirst;
}

PlatformChoice QualityManager::RecommendPlatform(tagging::ResourceKind kind) {
  switch (kind) {
    case tagging::ResourceKind::kScientificPaper:
      return PlatformChoice::kSocialNetwork;
    case tagging::ResourceKind::kWebUrl:
    case tagging::ResourceKind::kImage:
    case tagging::ResourceKind::kVideo:
    case tagging::ResourceKind::kSoundClip:
      return PlatformChoice::kMTurk;
  }
  return PlatformChoice::kMTurk;
}

Result<std::vector<ResourceId>> QualityManager::ChooseTaskBatch(
    ProjectId project, size_t k) {
  ProjectRec* rec = Rec(project);
  if (rec == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  if (rec->state != ProjectState::kRunning || rec->engine == nullptr) {
    return Status::FailedPrecondition("project not running");
  }
  Result<std::vector<ResourceId>> chosen = rec->engine->ChooseBatch(k);
  if (chosen.status().IsResourceExhausted()) {
    // A spent budget stops the draw before it moves the engine, so only the
    // first such draw, which flags the notification, changes the row.
    if (rec->exhausted_notified) return chosen;
    rec->exhausted_notified = true;  // re-armed by a top-up or a refund
    PushNotification(
        rec->provider,
        {NotificationKind::kBudgetExhausted, clock_->Now(), project,
         "budget exhausted for '" + rec->spec.name + "'"});
  }
  // A success moved budget/assignment/RNG, and a draw that found no
  // eligible resource may have moved the engine's corpus view and strategy.
  PersistProject(project, *rec);
  return chosen;
}

Status QualityManager::RefundTask(ProjectId project) {
  ProjectRec* rec = Rec(project);
  if (rec == nullptr || rec->engine == nullptr) {
    return Status::FailedPrecondition("project not started");
  }
  rec->engine->AddBudget(1);
  rec->exhausted_notified = false;
  PersistProject(project, *rec);
  return Status::OK();
}

const QualityManager::ProjectRec::QualityMemo& QualityManager::Memo(
    const ProjectRec& rec, const tagging::Corpus& corpus) const {
  ProjectRec::QualityMemo& memo = rec.memo;
  const size_t known = memo.posts.size();
  const size_t n = corpus.size();
  memo.posts.resize(n);
  memo.scores.resize(n);
  // A published view may still plan from the current curves, so the first
  // change copies them and the rest of the refresh writes the copy.
  std::vector<quality::ProjectionCurve>* curves = nullptr;
  for (ResourceId r = 0; r < n; ++r) {
    const tagging::TagStats& stats = corpus.stats(r);
    if (r < known && memo.posts[r] == stats.post_count()) continue;
    if (curves == nullptr) {
      auto copy = std::make_shared<std::vector<quality::ProjectionCurve>>(n);
      if (memo.curves != nullptr) {
        std::copy_n(memo.curves->begin(), std::min(n, memo.curves->size()),
                    copy->begin());
      }
      curves = copy.get();
      memo.curves = std::move(copy);
    }
    memo.posts[r] = stats.post_count();
    memo.scores[r] = stability_.ResourceQuality(r, stats);
    (*curves)[r] = gain_.Curve(stats);
  }
  return memo;
}

void QualityManager::EmitQualityPoint(ProjectId project, ProjectRec& rec) {
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (corpus == nullptr) return;
  QualityPoint p;
  p.tasks = rec.tasks_completed;
  p.quality = MeanQuality(Memo(rec, *corpus).scores);
  p.time = clock_->Now();
  (void)db_->Insert(tables::kQualityFeed,
                    {Value::Int(static_cast<int64_t>(project)),
                     Value::Int(p.tasks), Value::Real(p.quality),
                     Value::Int(p.time)});
  rec.feed.push_back(p);
}

std::vector<Status> QualityManager::CompletePostBatch(
    ProjectId project,
    std::vector<std::pair<ResourceId, tagging::Post>> posts) {
  if (posts.empty()) return {};
  ProjectRec* rec = Rec(project);
  Status gate = rec == nullptr || rec->engine == nullptr
                    ? Status::FailedPrecondition("project not started")
                    : Status::OK();
  tagging::Corpus* corpus =
      gate.ok() ? resources_->GetCorpus(project) : nullptr;
  if (gate.ok() && corpus == nullptr) {
    gate = Status::Internal("corpus missing");
  }
  if (!gate.ok()) return std::vector<Status>(posts.size(), gate);

  // Pre-batch quality per touched resource, for the notify bar.
  const ProjectRec::QualityMemo& memo = Memo(*rec, *corpus);
  std::map<ResourceId, double> before;
  for (const auto& [resource, post] : posts) {
    (void)post;
    if (corpus->IsValid(resource)) {
      before.emplace(resource, memo.scores[resource]);
    }
  }

  std::vector<Status> statuses;
  statuses.reserve(posts.size());
  size_t applied = 0;
  for (auto& [resource, post] : posts) {
    Status s = tags_->LinkPost(project, corpus, resource, post);
    if (s.ok()) {
      rec->engine->NotifyPost(resource);
      ++rec->tasks_completed;
      ++applied;
    }
    statuses.push_back(std::move(s));
  }
  if (applied == 0) return statuses;

  // One O(corpus) feed point, one inbox entry and one project-row
  // write-through for the whole batch.
  EmitQualityPoint(project, *rec);
  PersistProject(project, *rec);
  PushNotification(rec->provider,
                   {NotificationKind::kNewTagging, clock_->Now(), project,
                    std::to_string(applied) + " new taggings"});

  // EmitQualityPoint rescored the batch's resources in the memo.
  for (const auto& [resource, q0] : before) {
    double after = memo.scores[resource];
    if (q0 < kNotifyQualityBar && after >= kNotifyQualityBar) {
      PushNotification(rec->provider,
                       {NotificationKind::kQualityImproved, clock_->Now(),
                        project,
                        "resource " + corpus->resource(resource).uri +
                            " reached quality " + std::to_string(after)});
    }
  }
  return statuses;
}

const std::vector<QualityPoint>& QualityManager::QualityFeed(
    ProjectId project) const {
  static const std::vector<QualityPoint> kEmpty;
  const ProjectRec* rec = GetRec(project);
  return rec == nullptr ? kEmpty : rec->feed;
}

ProjectionPlan PlanProjection(
    const std::vector<quality::ProjectionCurve>& curves, uint32_t budget) {
  static obs::Counter* const plans =
      obs::MetricsRegistry::Default().GetCounter("core.projection.plans");
  plans->Inc();
  const size_t n = curves.size();
  ProjectionPlan plan{std::vector<uint32_t>(n, 0), 0.0};
  budget = std::min(budget, kProjectionHorizon);
  if (n == 0 || budget == 0) return plan;
  plan.tasks = strategy::GreedyAllocate(
      n, budget,
      [&curves](uint32_t r, uint32_t extra) {
        return curves[r].Quality(extra);
      },
      quality::ThresholdPrefix(curves, budget));
  for (ResourceId r = 0; r < n; ++r) {
    plan.gain += curves[r].Quality(plan.tasks[r]) - curves[r].Quality(0);
  }
  plan.gain /= static_cast<double>(n);
  return plan;
}

Result<double> QualityManager::ProjectedGain(ProjectId project) const {
  const ProjectRec* rec = GetRec(project);
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (rec == nullptr || corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  uint32_t budget = rec->engine != nullptr ? rec->engine->budget_remaining()
                                           : rec->spec.budget;
  return ProjectionInputs{Memo(*rec, *corpus).curves, budget}.PlanGain();
}

Result<QualityManager::ResourceDetail> QualityManager::GetResourceDetail(
    ProjectId project, ResourceId resource) const {
  const ProjectRec* rec = GetRec(project);
  const tagging::Corpus* corpus = resources_->GetCorpus(project);
  if (rec == nullptr || corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  if (!corpus->IsValid(resource)) {
    return Status::NotFound("resource " + std::to_string(resource));
  }
  ResourceDetail d;
  d.resource = resource;
  d.posts = corpus->PostCount(resource);
  d.quality = stability_.ResourceQuality(resource, corpus->stats(resource));
  d.projected_gain_next_task = gain_.MarginalGain(corpus->stats(resource));
  d.stopped =
      rec->engine != nullptr && rec->engine->context().stopped(resource);
  d.top_tags = tags_->ResourceTags(*corpus, resource, 16);
  return d;
}

NotificationQueue& QualityManager::Notifications(ProviderId provider) {
  return inboxes_[provider];
}

}  // namespace itag::core
