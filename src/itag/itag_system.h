#ifndef ITAG_ITAG_ITAG_SYSTEM_H_
#define ITAG_ITAG_ITAG_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "crowd/ledger.h"
#include "crowd/mturk_sim.h"
#include "crowd/social_sim.h"
#include "itag/dirty_set.h"
#include "itag/ids.h"
#include "itag/project.h"
#include "itag/quality_manager.h"
#include "itag/resource_manager.h"
#include "itag/tag_manager.h"
#include "itag/user_manager.h"
#include "sim/tagger_model.h"
#include "storage/database.h"

namespace itag::core {

/// Construction options for the whole system.
struct ITagSystemOptions {
  /// Storage configuration; empty directory = in-memory.
  storage::DatabaseOptions db;

  /// Worker pools backing the simulated MTurk and social platforms.
  crowd::WorkerPoolConfig mturk_pool;
  crowd::SocialNetSimOptions social;

  uint64_t seed = 2014;
};

/// An open audience task, from AcceptTasks until its decision: accepted by
/// `tagger`, and once SubmitTagsBatch gives it tags, a pending submission
/// awaiting the provider's Approve/Disapprove decision (the Notification
/// section workflow of Fig. 6). Step also builds one for each platform
/// worker's submission, to moderate it as it arrives.
struct PendingSubmission {
  TaskHandle handle = 0;
  ProjectId project = 0;
  tagging::ResourceId resource = 0;
  /// Registered tagger for audience submissions; kInvalid for platform
  /// workers (those are paid through the platform instead).
  UserTaggerId tagger = static_cast<UserTaggerId>(-1);
  /// The platform task of a submission Step moderates; 0 for audience
  /// tasks, the only ones that are kept open.
  crowd::TaskId platform_task = 0;
  /// Normalized tag texts; empty until the task is submitted.
  std::vector<std::string> tags;
  /// Hidden simulation hint: whether the submitting worker was
  /// conscientious. Approval policies may use it to model the provider's
  /// quality judgement; it never reaches strategies.
  bool conscientious_hint = true;
};

/// A task accepted by a human tagger through the tagger UI (Fig. 7/8).
struct AcceptedTask {
  TaskHandle handle = 0;
  ProjectId project = 0;
  tagging::ResourceId resource = 0;
  std::string uri;
  uint32_t pay_cents = 0;
};

/// One item of a batched tag submission (SubmitTagsBatch): the tagger who
/// accepted `handle` plus the raw (un-normalized) tag texts they entered.
struct TagSubmission {
  UserTaggerId tagger = 0;
  TaskHandle handle = 0;
  std::vector<std::string> tags;
};

/// One resource of a batched upload (UploadResourceBatch): the Fig. 4
/// upload joins creating the resource and importing its existing tags.
struct ResourceUpload {
  tagging::ResourceKind kind = tagging::ResourceKind::kWebUrl;
  std::string uri;
  std::string description;
  /// Imported as a provider-era post when non-empty.
  std::vector<std::string> initial_tags;
};

/// Synthesizes the content of a platform worker's submission. The simulator
/// installs a TaggerModel-backed source; the default source imitates a
/// casual tagger (samples mostly from the resource's current rfd, sometimes
/// invents a new tag), so the system is runnable standalone.
using PostSource = std::function<sim::GeneratedPost(
    ProjectId, tagging::ResourceId, double reliability, Tick, Rng*)>;

/// Decides a pending submission; used by Step() to auto-moderate platform
/// traffic. Defaults to approve-everything.
///
/// Policies (like PostSource) are *code*, not data: they cannot be
/// persisted, so an embedder that installs them must re-install them after
/// recovery (see docs/persistence.md).
using ApprovalPolicy = std::function<bool(const PendingSubmission&)>;

/// Observer of project publications (see ITagSystem::SetPublishHook):
/// receives the local id of a project whose GetProjectInfo or QualityFeed
/// a mutating call may have changed. The project may be gone by then (an
/// EraseProject), which the observer sees as GetProjectInfo's NotFound.
using PublishHook = std::function<void(ProjectId project)>;

/// What a checkpoint covered; returned by ITagSystem::Checkpoint and
/// ShardedSystem::Checkpoint (aggregated across shards there).
struct CheckpointInfo {
  bool durable = false;  ///< false = in-memory backend, nothing to write
  uint64_t tables = 0;
  uint64_t rows = 0;
};

/// The iTag system facade (Fig. 2): wires the four managers, the storage
/// engine and the simulated crowdsourcing platforms behind the provider and
/// tagger APIs of §III. Single-threaded; time advances through Step().
///
/// State: each open audience task is one row of the `tasks` table, from
/// its acceptance until its decision, and the payment ledger keeps totals
/// only (one `sys` row).
///
/// Writes: each mutating call is one atomic WAL batch. The tagger,
/// provider and ledger-totals rows it changes are written once each, with
/// their final values, when the call ends, however many of its items
/// touched them.
///
/// Publication: once per outermost mutating call, after its batch commits,
/// the facade hands every project whose info or feed that call may have
/// changed to the installed PublishHook. These are create, upload and
/// import, ControlBatch and AcceptTasks (each on OK), the projects a
/// DecideBatch touched, the platform projects a Step drew tasks for or
/// decided submissions of, and adopt and erase. SubmitTagsBatch only
/// fills in open tasks, so it publishes nothing. Init and Reattach publish
/// nothing either: the embedder republishes everything once its own
/// routing state is loaded.
class ITagSystem {
 public:
  explicit ITagSystem(ITagSystemOptions options = {});

  /// Opens storage and attaches managers. On a durable database this is
  /// also the recovery path: every manager rehydrates from its tables, the
  /// workflow maps (open tasks, in-flight platform tasks), the payment
  /// totals, the platform simulators, the clock and the RNG stream are
  /// restored, so close-and-reopen (or crash-and-reopen; the WAL replays to
  /// the last complete record) resumes the system bit-equal to the
  /// uninterrupted run. FailedPrecondition, naming the table, for a
  /// database that still holds the `accepted` or `pending` table of the
  /// layout before the `tasks` table: its open tasks are not read. Must be
  /// called once before use.
  Status Init();

  /// Re-derives every piece of in-memory state from the (already open)
  /// database, exactly like a fresh Init would — managers, workflow maps,
  /// payment totals, clock, RNG stream, platform simulators. A replication
  /// follower calls this after applying a burst of shipped WAL records: the
  /// records update tables, Reattach rebuilds everything derived from them.
  /// Every database holds the same rows, so an in-memory system re-derives
  /// too. Installed code (post source, approval policies) survives; it is
  /// code, not data.
  Status Reattach();

  /// Compacts durability state: snapshots all tables and truncates the WAL
  /// (storage::Database::Checkpoint). Every mutation is already written
  /// through, so this bounds recovery time, not durability. OK with
  /// durable=false on an in-memory system.
  Result<CheckpointInfo> Checkpoint();

  // ------------------------------------------------------------ users
  /// Registers a provider. Names need not be unique; ids are dense and
  /// assigned in registration order (the sharded layer relies on this to
  /// broadcast registrations deterministically).
  Result<ProviderId> RegisterProvider(const std::string& name);
  /// Registers a tagger; same id contract as RegisterProvider.
  Result<UserTaggerId> RegisterTagger(const std::string& name);
  /// Profile + approval statistics; NotFound for unknown ids.
  Result<ProviderProfile> GetProvider(ProviderId id) const;
  Result<TaggerProfile> GetTagger(UserTaggerId id) const;

  // ------------------------------------------------------------ provider API
  /// Creates a project in Draft state for `provider` (NotFound for unknown
  /// providers); the spec's budget/pay/platform/strategy are fixed until
  /// ControlBatch's AddBudget/SwitchStrategy change them.
  Result<ProjectId> CreateProject(ProviderId provider,
                                  const ProjectSpec& spec);
  /// Imports the provider's historical tags for a resource (Fig. 4 upload).
  /// InvalidArgument when no tag survives normalization.
  Status ImportPost(ProjectId project, tagging::ResourceId resource,
                    const std::vector<std::string>& raw_tags);

  /// Uploads resources (Fig. 4): creates one resource per item, plus an
  /// ImportPost when its initial_tags are present, and returns one Status
  /// per item in request order — a bad item never aborts the rest. NotFound
  /// for unknown projects. `ids` (required) is filled aligned with `items`
  /// with the new project-local ids, kInvalidResource where an item failed;
  /// an item whose resource was created but whose tag import failed keeps
  /// its id alongside the import's error status.
  std::vector<Status> UploadResourceBatch(
      ProjectId project, const std::vector<ResourceUpload>& items,
      std::vector<tagging::ResourceId>* ids);

  /// The provider console (§III-A): applies `items` to `project` in order
  /// through QualityManager::Control, one Status per item — a failing item
  /// never aborts the rest. The whole call is one atomic WAL frame and one
  /// publication. Per-item status by action and project state:
  ///
  ///                               Draft*  Draft  Running  Paused  Stopped
  ///   Start                       FP      OK     FP       OK      FP
  ///   Pause                       FP      FP     OK       FP      FP
  ///   Stop                        OK      OK     OK       OK      OK
  ///   AddBudget, SwitchStrategy   OK      OK     OK       OK      OK
  ///   Promote/Stop/ResumeResource FP      FP     OK       OK      OK
  ///
  /// (Draft* = Draft without resources; FP = FailedPrecondition.) Every
  /// action answers NotFound on an unknown project. The per-resource actions
  /// answer NotFound for an unknown resource, and PromoteResource
  /// FailedPrecondition for a stopped one. AddBudget saturates at uint32
  /// max.
  std::vector<Status> ControlBatch(ProjectId project,
                                   const std::vector<ControlItem>& items);
  /// Statistics-driven strategy suggestion (§III-A).
  Result<strategy::StrategyKind> RecommendStrategy(ProjectId project) const;

  Result<ProjectInfo> GetProjectInfo(ProjectId project) const;
  std::vector<ProjectInfo> ListProjects(ProviderId provider) const;
  const std::vector<QualityPoint>& QualityFeed(ProjectId project) const;
  Result<QualityManager::ResourceDetail> GetResourceDetail(
      ProjectId project, tagging::ResourceId resource) const;
  std::vector<Notification> LatestNotifications(ProviderId provider,
                                                size_t limit);

  /// Submitted tasks of one project awaiting a decision, oldest first.
  std::vector<PendingSubmission> PendingApprovals(ProjectId project) const;

  /// Provider decisions on pending submissions (the Approve/Disapprove
  /// buttons): decides every (handle, approve) pair, returning one Status
  /// per item in request order — a bad handle never aborts the rest.
  /// NotFound for a handle with no pending submission (never issued, not
  /// yet submitted, or already decided); FailedPrecondition when the
  /// project is not `provider`'s; InvalidArgument when an approved
  /// submission has no usable tags. Approved posts of the same project are
  /// recorded through one CompletePostBatch pass (one quality-feed point
  /// per project per call) instead of one O(corpus) update per submission.
  std::vector<Status> DecideBatch(
      ProviderId provider,
      const std::vector<std::pair<TaskHandle, bool>>& decisions);

  /// Exports the project's resources with their top tags as CSV.
  Result<size_t> ExportProject(ProjectId project,
                               const std::string& path) const;

  // ------------------------------------------------------------ tagger API
  /// Projects a tagger can join, with pay and provider approval rate
  /// (Fig. 7). Only Running projects with budget are listed.
  std::vector<ProjectInfo> ListOpenProjects() const;

  /// Joins a project: the strategy picks the resources the tagger should
  /// tag (§III-B "they are assigned resources to tag, as decided by the
  /// strategy"), up to `count` of them in one allocation pass
  /// (AllocationEngine::ChooseBatch). May return fewer tasks when the
  /// budget runs out mid-batch. Fails whole only when nothing can be drawn
  /// at all: NotFound for unknown tagger/project; FailedPrecondition while
  /// the project is not Running; ResourceExhausted when the budget is
  /// spent.
  Result<std::vector<AcceptedTask>> AcceptTasks(UserTaggerId tagger,
                                                ProjectId project,
                                                size_t count);

  /// Submits tags for accepted tasks; they await provider approval. One
  /// Status per item in request order — a bad item never aborts the rest.
  /// Per item: the tagger must be the one that accepted the handle
  /// (FailedPrecondition otherwise); the handle must be an open accepted
  /// task (NotFound for never-issued or already-submitted handles); the
  /// raw tags are normalized and deduplicated here (InvalidArgument when
  /// nothing usable remains).
  std::vector<Status> SubmitTagsBatch(const std::vector<TagSubmission>& items);

  // ------------------------------------------------------------ simulation
  /// Installs the content source for platform-worker submissions.
  void SetPostSource(PostSource source) { post_source_ = std::move(source); }

  /// Installs a provider's auto-moderation policy.
  void SetApprovalPolicy(ProviderId provider, ApprovalPolicy policy);

  /// Advances simulated time by `ticks`, pumping every running
  /// platform-backed project: posting tasks, collecting submissions,
  /// auto-deciding them via the provider's policy.
  Status Step(Tick ticks);

  /// Installs the publication observer (see the class comment). The
  /// facade only calls it, on the thread making the mutating call; the
  /// sharded core installs one per shard to keep its lock-free per-project
  /// views current, whichever path the write came through.
  void SetPublishHook(PublishHook hook) { publish_hook_ = std::move(hook); }

  /// Direct manager access for tests/benchmarks.
  QualityManager& quality_manager() { return *quality_; }
  UserManager& user_manager() { return *users_; }
  TagManager& tag_manager() { return *tag_manager_; }
  ResourceManager& resource_manager() { return *resources_; }
  storage::Database& database() { return db_; }
  crowd::PaymentLedger& ledger() { return ledger_; }
  SimClock& clock() { return clock_; }

  /// Total audience tasks ever handed out through AcceptTasks
  /// (persisted; the sharded layer's per-shard stats read it).
  uint64_t tasks_accepted_total() const { return tasks_accepted_total_; }

  /// The platform used by a project (nullptr for audience projects).
  crowd::CrowdPlatform* PlatformFor(ProjectId project);

  // -------------------------------------------------------- shard migration
  /// Everything one project owns, lifted out of a shard: the project row
  /// (spec, state, serialized engine), the quality feed, the corpus and the
  /// open tasks. Self-contained — no storage or pointer state — so
  /// ShardedSystem can extract on one shard and adopt on another under a
  /// different local id. Past payments are not the project's: they stay in
  /// the totals of the shard that paid them.
  struct ProjectBundle {
    ProviderId provider = 0;
    storage::Row project_row;
    std::vector<QualityPoint> feed;
    ResourceManager::CorpusTransfer corpus;
    /// Open tasks under their source-shard handles (renumbered on adopt,
    /// in this order: unsubmitted ones first, then submitted ones).
    std::vector<PendingSubmission> tasks;
  };

  /// Serializes project `project` (shard-local id) for migration.
  /// FailedPrecondition only while the project has posted platform tasks in
  /// flight — those reference this shard's simulator state and cannot move.
  /// Step decides platform submissions as they arrive, so none waits in the
  /// pending set; audience projects are always migratable.
  Result<ProjectBundle> ExtractProject(ProjectId project) const;

  /// Installs a bundle under the next free local project id (returned).
  /// Open tasks are renumbered onto this shard's handle counter;
  /// `handle_map` (required) receives the (source handle, new handle)
  /// pairs so the caller can forward client-held handles.
  Result<ProjectId> AdoptProject(
      const ProjectBundle& bundle,
      std::vector<std::pair<TaskHandle, TaskHandle>>* handle_map);

  /// Removes a migrated-away project: record, corpus, open tasks, and all
  /// their persisted rows. The handle counter, tasks_accepted_total() and
  /// the payment totals stay — they are shard history, not project state.
  Status EraseProject(ProjectId project);

 private:
  struct InFlight {
    ProjectId project = 0;
    tagging::ResourceId resource = 0;
  };

  /// One approved-but-not-yet-recorded submission of a Step tick, kept with
  /// its built post until the per-project CompletePostBatch flush; settling
  /// (payment, records) only happens after its post lands in the corpus.
  struct ApprovedItem {
    PendingSubmission sub;
    tagging::Post post;
  };
  using ApprovedPosts = std::map<ProjectId, std::vector<ApprovedItem>>;

  // ------------------------------------------------------------ call scope
  /// One per mutating call, nested calls included: opens an atomic WAL
  /// batch, and when the outermost scope closes (on every return path) it
  /// writes the rows the call left dirty (FlushDirtyRows), commits the
  /// batch, and then hands the marked projects to the publish hook.
  class CallScope;
  /// Queues `project` for publication when the outermost CallScope closes.
  /// No-op without a hook.
  void MarkChanged(ProjectId project);
  /// MarkChanged(project) when `status` is OK; returns `status`.
  Status MarkIfOk(ProjectId project, Status status);

  // ----------------------------------------------------------- persistence
  /// Everything Init does after opening the database: construct the
  /// managers in dependency order, regenerate the worker pools from the
  /// seed, restore the runtime state. Shared with Reattach.
  Status AttachManagers();
  /// Creates the tasks/in_flight/sys tables and restores their contents.
  Status AttachRuntimeState();
  /// Upserts one sys key/value row.
  void PersistSys(const std::string& key, std::string value);
  /// Writes each row marked dirty since the last flush once, with its
  /// current value: the User Manager's profiles, each table in first-mark
  /// order, then the ledger totals (one sys row) if a payment was made.
  void FlushDirtyRows();
  /// Writes the facade scalars (next handle, accepted-task counter, clock,
  /// RNG stream) as one sys row.
  void PersistCore();
  /// Serializes each platform simulator into its sys row, unless only its
  /// clock moved since its blob was last written or restored.
  void PersistPlatforms();
  /// One simulator of PersistPlatforms: upserts `sim`'s blob under `key`
  /// unless it matches `*written` after the leading clock, and keeps what
  /// it wrote in `*written`.
  void PersistPlatform(const char* key, const crowd::SimPlatformBase& sim,
                       std::string* written);
  /// Write-through for the workflow maps. PersistTask inserts the row of a
  /// new task and rewrites the row of a known one.
  void PersistTask(const PendingSubmission& task);
  void DeleteTask(TaskHandle handle);
  void PersistInFlight(int platform, crowd::TaskId task,
                       const InFlight& flight);
  void DeleteInFlight(int platform, crowd::TaskId task);

  sim::GeneratedPost DefaultPostContent(ProjectId project,
                                        tagging::ResourceId resource,
                                        double reliability, Tick now);
  /// The tick loop of Step(); split out so Step can persist the runtime
  /// state after it regardless of how it returned.
  Status RunTicks(Tick target);
  Status PumpProject(ProjectId project, QualityManager::ProjectRec* rec);
  Status HandleSubmission(crowd::CrowdPlatform* platform,
                          const crowd::TaskEvent& ev, ApprovedPosts* approved);
  /// One item of SubmitTagsBatch; returns that item's status.
  Status SubmitTags(UserTaggerId tagger, TaskHandle handle,
                    const std::vector<std::string>& raw_tags);
  /// Interns the submission's tags into a corpus post; InvalidArgument when
  /// nothing usable remains.
  Result<tagging::Post> BuildPost(const PendingSubmission& sub,
                                  tagging::Corpus* corpus);
  /// The non-corpus side of an approval: platform payout and user records.
  Status SettleApproval(const PendingSubmission& sub,
                        const QualityManager::ProjectRec* rec,
                        crowd::CrowdPlatform* platform);
  /// A rejection end-to-end: platform reject, records, refund, re-promote.
  Status ApplyRejection(const PendingSubmission& sub,
                        const QualityManager::ProjectRec* rec,
                        crowd::CrowdPlatform* platform);

  ITagSystemOptions options_;
  storage::Database db_;
  SimClock clock_;
  Rng rng_;
  crowd::PaymentLedger ledger_;
  std::unique_ptr<UserManager> users_;
  std::unique_ptr<ResourceManager> resources_;
  std::unique_ptr<TagManager> tag_manager_;
  std::unique_ptr<QualityManager> quality_;
  std::unique_ptr<crowd::MTurkSim> mturk_;
  std::unique_ptr<crowd::SocialNetSim> social_;
  /// Each simulator's blob as last written or restored; PersistPlatform
  /// compares it past the clock.
  std::string mturk_blob_;
  std::string social_blob_;
  PostSource post_source_;
  PublishHook publish_hook_;
  int call_depth_ = 0;                ///< open CallScopes
  DirtySet<ProjectId> publish_queue_;  ///< marked inside them
  /// ledger_.PaymentCount() as of the last ledger-totals row written or
  /// restored; payments are only made inside calls.
  size_t persisted_payments_ = 0;
  std::map<ProviderId, ApprovalPolicy> policies_;
  std::map<crowd::TaskId, InFlight> in_flight_mturk_;
  std::map<crowd::TaskId, InFlight> in_flight_social_;
  /// The open audience tasks, mirroring the `tasks` table.
  std::map<TaskHandle, PendingSubmission> tasks_;
  TaskHandle next_handle_ = 1;
  uint64_t tasks_accepted_total_ = 0;
  bool initialized_ = false;

  /// Row ids of the in-flight rows, which have no unique key of their own
  /// to find them by.
  std::map<std::pair<int, crowd::TaskId>, storage::RowId> in_flight_rows_;

  /// Concurrency cap per platform-backed project.
  static constexpr size_t kMaxOpenTasksPerProject = 16;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_ITAG_SYSTEM_H_
