#ifndef ITAG_ITAG_QUALITY_MANAGER_H_
#define ITAG_ITAG_QUALITY_MANAGER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "itag/ids.h"
#include "itag/notification.h"
#include "itag/project.h"
#include "itag/resource_manager.h"
#include "itag/tag_manager.h"
#include "itag/user_manager.h"
#include "quality/gain_estimator.h"
#include "quality/quality_model.h"
#include "storage/database.h"
#include "strategy/engine.h"

namespace itag::core {

/// One point in a project's live quality feed (the Fig. 5 chart).
struct QualityPoint {
  uint32_t tasks = 0;
  double quality = 0.0;
  Tick time = 0;
};

/// Planning horizon of the projected gain: the projection view only needs a
/// coarse number, so at most this many of the remaining tasks are planned.
inline constexpr uint32_t kProjectionHorizon = 5000;

/// The split behind QualityManager::ProjectedGain.
struct ProjectionPlan {
  std::vector<uint32_t> tasks;  ///< extra tasks planned per resource
  double gain = 0.0;            ///< mean projected quality gain per resource
};

/// Plans min(budget, kProjectionHorizon) more tasks over the resources
/// whose projection curves are `curves` (resource r's at index r), with the
/// greedy split of strategy::GreedyAllocate warm-started from their
/// quality::ThresholdPrefix: O(n log n) rather than the cold start's
/// O(B log n). Every call counts in `core.projection.plans`.
ProjectionPlan PlanProjection(
    const std::vector<quality::ProjectionCurve>& curves, uint32_t budget);

/// What one version of a project's projected gain is planned from: its
/// quality memo's curves, shared with the memo until the memo next changes,
/// and the budget left. A project without a corpus has no curves.
struct ProjectionInputs {
  std::shared_ptr<const std::vector<quality::ProjectionCurve>> curves;
  uint32_t budget = 0;

  /// PlanProjection's gain over these inputs; 0, with no plan, when there
  /// are no curves.
  double PlanGain() const {
    return curves == nullptr ? 0.0 : PlanProjection(*curves, budget).gain;
  }
};

/// The Quality Manager of Fig. 2: receives the provider's budget, creates a
/// Project, "executes the best strategy to allocate resources to taggers",
/// constantly feeds quality information back, and lets the provider change
/// strategy, promote/stop individual resources, and top budget up mid-run.
class QualityManager {
 public:
  /// Every project mutation — spec, lifecycle state, engine counters, RNG
  /// position, promotions, stop flags, the quality feed and the
  /// notification inboxes — is written through to `db`, and Attach()
  /// rebuilds it all (corpora included, via the ResourceManager) from
  /// there.
  QualityManager(ResourceManager* resources, TagManager* tags,
                 UserManager* users, Clock* clock, storage::Database* db);

  /// Creates the backing tables (idempotent) and recovers every persisted
  /// project: corpus replay, record + engine rebuild, feed and inbox
  /// reload, and the project-id counter. Call once before use.
  Status Attach();

  /// Number of projects (recovered ones included).
  size_t ProjectCount() const { return projects_.size(); }

  /// Ids of every project, ascending.
  std::vector<ProjectId> ProjectIds() const;

  /// Creates a project in Draft state (and its corpus).
  Result<ProjectId> CreateProject(ProviderId provider,
                                  const ProjectSpec& spec);

  /// Project info snapshot (Fig. 3 row). Its quality and projected gain
  /// come from the project's quality memo (ProjectRec::memo), so a call
  /// rescores only the resources that got a post since the last read:
  /// O(n) compares plus the plan's O(n log n).
  Result<ProjectInfo> GetInfo(ProjectId project) const;

  /// GetInfo without the plan: every field but projected_gain, which stays
  /// 0, and in `projection` what GetInfo would plan it from. O(n) compares;
  /// the sharded core publishes its views this way, so a write never plans.
  Result<ProjectInfo> GetUnplannedInfo(ProjectId project,
                                       ProjectionInputs* projection) const;

  /// All projects of one provider (or all when provider == SIZE_MAX),
  /// sorted by descending quality — the Fig. 3 listing order.
  std::vector<ProjectInfo> ListProjects(ProviderId provider) const;

  /// The running projects in ListProjects order (quality descending, then
  /// id), from the quality memo alone: nothing is planned. Step's tick loop
  /// pumps them in this order.
  std::vector<ProjectId> RunningByQuality() const;

  /// Applies one provider control (§III-A) to `project`:
  ///  - Start creates the allocation engine from Draft (at least one
  ///    resource needed) and resumes from Paused;
  ///  - Pause makes ChooseTaskBatch refuse, so no
  ///    AllocationEngine::ChooseBatch draw happens;
  ///  - Stop ends the project for good;
  ///  - AddBudget tops the budget up, saturating (Fig. 3's "add budget to
  ///    the project");
  ///  - SwitchStrategy replaces the allocation strategy mid-run (Fig. 5);
  ///  - the per-resource Promote / Stop / Resume buttons reach the engine.
  /// Statuses follow the table on ITagSystem::ControlBatch; an unknown
  /// project is NotFound whatever the action. A successful control writes
  /// the project row through, except a Stop of a stopped project, which
  /// changes nothing.
  Status Control(ProjectId project, const ControlItem& item);

  /// Recommends a strategy from the current statistics: the paper's
  /// "we will help providers choose the best strategy given the current
  /// resources and tags statistics" (§III-A). Heuristic: if a substantial
  /// share of resources is still under-posted, FP-MU; otherwise MU.
  Result<strategy::StrategyKind> RecommendStrategy(ProjectId project) const;

  /// Recommends a platform for a resource kind — the paper's "scientific
  /// papers resources will highly likely be getting better tags with
  /// taggers from scientific communities other than MTurk" (§I): papers go
  /// to the community/social channel, mainstream media to the open market.
  static PlatformChoice RecommendPlatform(tagging::ResourceKind kind);

  /// Draws the next resources to task (the platform pump and the tagger UI
  /// both call this): up to `k` of them in one AllocationEngine::ChooseBatch
  /// pass, which decrements the budget per pick and may return fewer than
  /// `k` when the budget runs out mid-batch. NotFound for unknown projects,
  /// FailedPrecondition while not Running, ResourceExhausted (with the
  /// one-shot budget-exhausted notification) when nothing can be drawn.
  Result<std::vector<tagging::ResourceId>> ChooseTaskBatch(ProjectId project,
                                                           size_t k);

  /// Refunds one task of budget (rejected submission).
  Status RefundTask(ProjectId project);

  /// UPDATE(): records a whole tick's (or request's) worth of approved
  /// posts in one pass. Every post is linked into corpus + storage and fed
  /// to the strategy individually (a failing post is skipped, not fatal to
  /// the rest — the returned statuses align with `posts`), but the
  /// quality-feed point and the new-tagging notification are emitted once
  /// per batch — the amortization that lets Step() pump heavy platform
  /// traffic. The feed point rescores only the batch's resources through
  /// the quality memo. Quality-improved notifications still fire per
  /// resource; their before and after values are the memo's, so each
  /// touched resource is scored once per batch. FailedPrecondition for
  /// every post when the project is not started.
  std::vector<Status> CompletePostBatch(
      ProjectId project,
      std::vector<std::pair<tagging::ResourceId, tagging::Post>> posts);

  /// Live quality feed (Fig. 5).
  const std::vector<QualityPoint>& QualityFeed(ProjectId project) const;

  /// Projected additional quality if the remaining budget is spent with the
  /// estimated-gain-optimal split (the "projected quality gains" shown
  /// while the provider picks a budget): PlanProjection's gain over the
  /// quality memo's curves, which are rebuilt only for resources that got
  /// a post since the last read.
  Result<double> ProjectedGain(ProjectId project) const;

  /// Per-resource detail for Fig. 6: current quality and the posts so far.
  struct ResourceDetail {
    tagging::ResourceId resource = 0;
    uint32_t posts = 0;
    double quality = 0.0;
    double projected_gain_next_task = 0.0;
    bool stopped = false;
    std::vector<TagFrequency> top_tags;
  };
  Result<ResourceDetail> GetResourceDetail(ProjectId project,
                                           tagging::ResourceId resource) const;

  /// The provider's notification inbox.
  NotificationQueue& Notifications(ProviderId provider);

  /// The id the next CreateProject (or AdoptProject at the migration
  /// destination) will use. Shard migration reads this to pre-claim the
  /// destination slot before the copy lands.
  ProjectId next_project_id() const { return next_project_; }

  /// Serializes a project record into its storage-row form — the row
  /// PersistProject writes. Shard migration carries this row (plus the
  /// corpus transfer and the quality feed) to the destination shard.
  Result<storage::Row> EncodeProjectRow(ProjectId project) const;

  /// Installs a transferred project under `project` (which must be free,
  /// with its corpus already adopted): decodes the row, rebuilds the
  /// engine at the saved RNG position (running projects continue
  /// bit-exactly), installs the feed, and writes the project + feed rows
  /// through.
  Status AdoptProject(ProjectId project, const storage::Row& row,
                      std::vector<QualityPoint> feed);

  /// Removes a project record and its persisted project/feed rows, the
  /// feed rows found with one scan (the migration source's cleanup half).
  /// The corpus is dropped separately via ResourceManager::DropCorpus;
  /// notifications stay with the provider's inbox (they are history, not
  /// project state).
  Status DropProject(ProjectId project);

  /// Internal per-project record (exposed read-only for the facade).
  struct ProjectRec {
    ProviderId provider = 0;
    ProjectSpec spec;
    ProjectState state = ProjectState::kDraft;
    std::unique_ptr<strategy::AllocationEngine> engine;
    std::vector<QualityPoint> feed;
    uint32_t tasks_completed = 0;
    bool exhausted_notified = false;  // de-dups budget-exhausted alerts

    /// Per-resource quality memo, one entry per corpus resource (index =
    /// resource id): the post count the entry was computed at, q_i from
    /// StabilityQuality::ResourceQuality, and the projection curve from
    /// EmpiricalGainEstimator::Curve. A resource's TagStats moves only when
    /// a post lands, which bumps its post count, and a corpus only grows,
    /// so an entry whose count still matches is current, whatever path the
    /// posts came in by. Const reads refresh it (QualityManager::Memo),
    /// like TagStats::Rfd's cache; it lives and dies with the record. The
    /// curves are shared with the unplanned views published from them
    /// (ProjectionInputs), so a refresh that changes one copies them first.
    struct QualityMemo {
      std::vector<uint32_t> posts;
      std::vector<double> scores;
      std::shared_ptr<const std::vector<quality::ProjectionCurve>> curves;
    };
    mutable QualityMemo memo;
  };
  const ProjectRec* GetRec(ProjectId project) const;

 private:
  ProjectRec* Rec(ProjectId project);
  /// Brings `rec`'s quality memo up to `corpus` (the record's own corpus):
  /// rescores the resources whose post count moved and the new ones.
  const ProjectRec::QualityMemo& Memo(const ProjectRec& rec,
                                      const tagging::Corpus& corpus) const;
  void EmitQualityPoint(ProjectId project, ProjectRec& rec);

  /// Writes the project row (spec, state, counters, serialized engine).
  void PersistProject(ProjectId project, const ProjectRec& rec);
  /// Appends to the provider's inbox, write-through + prune beyond the
  /// queue capacity (the persisted inbox mirrors the in-memory one).
  void PushNotification(ProviderId provider, Notification n);
  /// Decodes a project row into `rec` (engine rebuilt from the project's
  /// corpus, which must already exist). Shared by recovery and adoption.
  Status DecodeProjectRow(ProjectId project, const storage::Row& row,
                          ProjectRec* rec);

  ResourceManager* resources_;
  TagManager* tags_;
  UserManager* users_;
  Clock* clock_;
  storage::Database* db_;
  quality::StabilityQuality stability_;
  quality::EmpiricalGainEstimator gain_;
  std::map<ProjectId, ProjectRec> projects_;
  std::map<ProviderId, NotificationQueue> inboxes_;
  /// Row ids of each inbox's rows, oldest first: the eviction order, which
  /// no index of the notifications table holds.
  std::map<ProviderId, std::deque<storage::RowId>> inbox_rows_;
  ProjectId next_project_ = 1;

  /// Resources crossing this stability-quality bar trigger a
  /// kQualityImproved notification.
  static constexpr double kNotifyQualityBar = 0.8;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_QUALITY_MANAGER_H_
