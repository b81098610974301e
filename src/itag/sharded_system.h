#ifndef ITAG_ITAG_SHARDED_SYSTEM_H_
#define ITAG_ITAG_SHARDED_SYSTEM_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/seqlock.h"
#include "common/sharding.h"
#include "common/thread_pool.h"
#include "itag/itag_system.h"
#include "obs/metrics.h"

namespace itag::core {

/// Construction knobs for the sharded engine.
struct ShardedSystemOptions {
  /// Number of shards. Each shard owns a private ITagSystem (its own
  /// storage, clock, platforms, ledger) guarded by one mutex; projects are
  /// partitioned across shards, so shards never contend with each other.
  size_t num_shards = 4;

  /// Worker threads of the fan-out pool used by Step() and the cross-shard
  /// batch entry points. 0 picks min(num_shards, hardware_concurrency).
  size_t pool_threads = 0;

  /// Template for every shard's ITagSystem. A non-empty `db.directory`
  /// becomes `<directory>/shard-<i>` per shard (the placement map database
  /// lives at `<directory>/placement`); `seed` is offset per shard so the
  /// simulated worker pools differ across shards.
  ITagSystemOptions shard;

  /// Sampling window of the background rebalancer, in milliseconds.
  /// 0 (the default) disables the thread entirely; placement can still be
  /// moved explicitly through MigrateProject(). The rebalancer migrates
  /// after two consecutive windows in which one shard carried at least
  /// 45% of at least 64 routed ops (docs/rebalancing.md).
  size_t rebalance_interval_ms = 0;

  /// Replication-follower mode: the system serves reads while a
  /// repl::Follower applies shipped WAL records underneath it. Init skips
  /// everything that *writes* (migration-intent resolution, the
  /// rebalancer) — those run when Promote() flips the system writable.
  /// Requires durable shards (the stream lands in real WALs).
  bool read_only = false;
};

/// One immutable published version of a project: everything a dashboard
/// read returns except per-resource details (the monitoring hot path:
/// dashboards poll far more often than projects change). Built once per
/// publication, read without any shard mutex, so one read sees one version.
///
/// A publication does not plan the projected gain: the view keeps what the
/// plan needs (ProjectionInputs) and the first reader of the version plans
/// it, once, whichever thread gets there first. Every reader goes through
/// info() or projected_gain(), so none sees an unplanned gain, and a
/// version nobody reads is never planned. The gain is QualityManager::
/// GetInfo's for the same version, bit for bit: both are PlanProjection
/// over the same curves and budget.
class ProjectView {
 public:
  ProjectView(ProjectInfo info, ProjectionInputs projection,
              std::shared_ptr<const std::vector<QualityPoint>> feed,
              uint64_t version)
      : info_(std::move(info)),
        projection_(std::move(projection)),
        feed_(std::move(feed)),
        version_(version) {}

  /// The project's info at this version, projected gain included. `id` is
  /// the global id (slot history).
  ProjectInfo info() const {
    ProjectInfo info = info_;
    info.projected_gain = projected_gain();
    return info;
  }
  /// This version's projected gain; the first call, from any thread, plans
  /// it and the others wait for that plan.
  double projected_gain() const {
    std::call_once(plan_once_, [this] {
      gain_ = projection_.PlanGain();
      planned_.store(true, std::memory_order_release);
    });
    return gain_;
  }
  /// True once some reader has planned this version, so reading it costs
  /// no plan.
  bool planned() const { return planned_.load(std::memory_order_acquire); }
  /// The quality feed. Shared between versions while it is unchanged; a
  /// publication that sees new points copies it.
  const std::shared_ptr<const std::vector<QualityPoint>>& feed() const {
    return feed_;
  }
  /// Publications of this project on its shard.
  uint64_t version() const { return version_; }

 private:
  friend class ShardedSystem;  // lists views by their unplanned fields

  ProjectInfo info_;  ///< projected_gain stays 0; see projected_gain()
  ProjectionInputs projection_;
  std::shared_ptr<const std::vector<QualityPoint>> feed_;
  uint64_t version_;
  mutable std::once_flag plan_once_;
  mutable double gain_ = 0.0;
  mutable std::atomic<bool> planned_{false};
};

/// The quality fields of a ProjectView (PeekQuality's answer).
struct QualitySnapshot {
  ProjectId project = 0;  ///< global id
  ProjectState state = ProjectState::kDraft;
  double quality = 0.0;
  double projected_gain = 0.0;
  uint32_t budget_remaining = 0;
  uint32_t tasks_completed = 0;
  uint32_t num_resources = 0;
  uint64_t version = 0;
};

/// Per-shard aggregate counters, published through a seqlock so monitors
/// can poll without touching any shard mutex.
struct ShardStats {
  uint64_t projects = 0;        ///< projects on this shard
  uint64_t tasks_accepted = 0;  ///< audience tasks handed out
  uint64_t payments = 0;        ///< ledger payment records
  uint64_t paid_cents = 0;      ///< ledger grand total
};

/// The sharded, thread-safe core: partitions projects (and their
/// resources, corpora, engines, ledgers and quality state) across
/// `num_shards` private ITagSystem instances, each guarded by its own
/// mutex. Any number of caller threads may invoke any method concurrently.
///
/// Identity model:
///  - Provider/tagger registration is *broadcast*: every shard applies the
///    registration in the same order (serialized by a global user mutex),
///    so user ids are identical on every shard and valid everywhere.
///  - Project ids and task handles are *global* ids that encode the owning
///    shard in the low bits (see common/sharding.h); routing a request is a
///    modulo, not a table lookup. All ids returned by this class are global
///    and must be passed back as such.
///  - Resource ids stay project-local, exactly as in ITagSystem.
///
/// Concurrency model (see docs/concurrency.md for the full invariants):
///  - One mutex per shard serializes everything inside that shard.
///  - Cross-shard batch calls (SubmitTagsBatch, DecideBatch, Step) group
///    items per shard and fan out on an internal worker pool, then merge
///    per-item statuses back into request order.
///  - Project reads (GetProjectView, GetProjectInfo, QualityFeed,
///    PeekQuality, ListProjects, ListOpenProjects) bypass shard mutexes
///    entirely: each project's ProjectView lives behind a
///    shared_mutex-guarded table that the shard's facade republishes on
///    every mutation (ITagSystem::SetPublishHook), and shard counters live
///    behind a seqlock. A publication does not plan the projected gain;
///    the first read of a version does, on the reader's thread.
///  - Lock ordering: users_mu_ before any shard mutex; a view table is
///    written only inside its shard lock (readers take it alone);
///    placement_mu_ is a leaf (taken after a shard
///    mutex, never around one). MigrateProject is the single path that
///    holds two shard mutexes at once (std::scoped_lock, deadlock-free),
///    serialized by migrate_mu_.
///
/// Placement model: routing starts from the static id codec but consults a
/// versioned PlacementMap overlay, so a project can *move* between shards.
/// The map is persisted in its own database (WAL'd + checkpointed) and an
/// intent row makes every migration crash-atomic — see docs/rebalancing.md.
class ShardedSystem {
 public:
  explicit ShardedSystem(ShardedSystemOptions options = {});
  ~ShardedSystem();

  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  /// Initializes every shard — in parallel on the worker pool, since a
  /// durable shard's Init is a full recovery (snapshot load + WAL replay +
  /// corpus rebuild). After recovery the cross-shard id counters
  /// (round-robin project placement, clock, per-shard stats) are re-derived
  /// from the shards' persisted state and every project view is
  /// published, so monitors work immediately. Must be called once before use.
  Status Init();

  /// Checkpoints every shard's database (snapshot + WAL truncate), each
  /// under its shard mutex, pool-parallel. Returns the aggregate info; the
  /// first shard error, if any, wins.
  Result<CheckpointInfo> Checkpoint();

  size_t num_shards() const { return shards_.size(); }

  /// The construction options (e.g. for the replication handshake: a
  /// follower must prove its shard count and seed match the primary's).
  const ShardedSystemOptions& options() const { return options_; }

  // ------------------------------------------------------------ users
  /// Registers a provider on every shard (identical id everywhere).
  Result<ProviderId> RegisterProvider(const std::string& name);
  /// Registers a tagger on every shard (identical id everywhere).
  Result<UserTaggerId> RegisterTagger(const std::string& name);
  /// Profile with approval/earning counters summed across shards (a user's
  /// activity is recorded on the shard owning each project they touch).
  Result<ProviderProfile> GetProvider(ProviderId id) const;
  Result<TaggerProfile> GetTagger(UserTaggerId id) const;

  // ------------------------------------------------------------ provider API
  /// Creates the project on a round-robin-chosen shard; returns its global
  /// id. Errors match ITagSystem::CreateProject.
  Result<ProjectId> CreateProject(ProviderId provider,
                                  const ProjectSpec& spec);
  Status ImportPost(ProjectId project, tagging::ResourceId resource,
                    const std::vector<std::string>& raw_tags);
  /// Whole batch in one routed pass: one shard-lock acquisition and one
  /// view publication regardless of item count. Unknown projects fail every
  /// item with NotFound.
  std::vector<Status> UploadResourceBatch(
      ProjectId project, const std::vector<ResourceUpload>& items,
      std::vector<tagging::ResourceId>* ids);
  /// ITagSystem::ControlBatch in one routed pass: one shard-lock hold, one
  /// WAL frame and one view publication regardless of item count. Unknown
  /// projects fail every item with NotFound.
  std::vector<Status> ControlBatch(ProjectId project,
                                   const std::vector<ControlItem>& items);
  Result<strategy::StrategyKind> RecommendStrategy(ProjectId project) const;

  /// The published view of `project` (see ProjectView). Takes no shard
  /// mutex; counts as one routed op of the owning shard, in
  /// core.shard.<i>.ops and in the rebalancer's attribution, like any
  /// routed call. NotFound for unknown projects.
  Result<std::shared_ptr<const ProjectView>> GetProjectView(
      ProjectId project) const;
  /// Whether reading `project`'s view now would plan its projected gain:
  /// the view exists and no reader has planned it yet. Takes no shard
  /// mutex and counts no routed op.
  bool ViewReadPlans(ProjectId project) const;
  /// The view's info, carrying the id the caller routed by.
  Result<ProjectInfo> GetProjectInfo(ProjectId project) const;
  /// All shards' projects of `provider`, from their views, with global
  /// ids: descending quality (the Fig. 3 listing order), then shard order,
  /// then local id.
  std::vector<ProjectInfo> ListProjects(ProviderId provider) const;
  /// The view's feed, by value (empty for unknown projects) — the one
  /// signature that differs from ITagSystem.
  std::vector<QualityPoint> QualityFeed(ProjectId project) const;
  Result<QualityManager::ResourceDetail> GetResourceDetail(
      ProjectId project, tagging::ResourceId resource) const;
  /// Inboxes merged across shards, newest first, project ids globalized.
  std::vector<Notification> LatestNotifications(ProviderId provider,
                                                size_t limit);
  std::vector<PendingSubmission> PendingApprovals(ProjectId project) const;

  /// Cross-shard batched moderation: items are grouped by the shard their
  /// handle encodes, decided shard-parallel on the worker pool, and the
  /// per-item statuses merged back in request order.
  std::vector<Status> DecideBatch(
      ProviderId provider,
      const std::vector<std::pair<TaskHandle, bool>>& decisions);

  Result<size_t> ExportProject(ProjectId project,
                               const std::string& path) const;

  // ------------------------------------------------------------ tagger API
  /// Running projects with budget left, from the views, in ListProjects
  /// order.
  std::vector<ProjectInfo> ListOpenProjects() const;
  /// Routes to the owning shard; returned handles/project ids are global.
  Result<std::vector<AcceptedTask>> AcceptTasks(UserTaggerId tagger,
                                                ProjectId project,
                                                size_t count);
  /// Cross-shard batched submission, same grouping/fan-out/merge contract
  /// as DecideBatch.
  std::vector<Status> SubmitTagsBatch(
      const std::vector<TagSubmission>& items);

  // ------------------------------------------------------------ simulation
  /// Broadcast to every shard; the source sees *global* project ids.
  void SetPostSource(PostSource source);
  /// Broadcast to every shard; the policy sees global project/handle ids.
  void SetApprovalPolicy(ProviderId provider, ApprovalPolicy policy);
  /// Advances all shards by `ticks` in parallel on the worker pool, then
  /// the sharded clock. Returns the first shard error, if any.
  Status Step(Tick ticks);
  /// Current simulated time (all shard clocks advance in lockstep).
  Tick Now() const { return now_.load(std::memory_order_acquire); }

  // ------------------------------------------------------------ observability
  /// The quality fields of the project's view; never contends with the
  /// owning shard's mutex and counts no routed op. NotFound for unknown
  /// projects.
  Result<QualitySnapshot> PeekQuality(ProjectId project) const;
  /// Seqlock read of one shard's aggregate counters.
  ShardStats StatsOf(size_t shard) const;
  /// Grand total paid across all shard ledgers (seqlock reads, no mutex).
  uint64_t TotalPaidCents() const;

  // ------------------------------------------------------------ placement
  /// Moves a project (record, corpus, posts, open tasks) to `to_shard`
  /// under a brief write stall of both shards; reads keep serving from the
  /// published views throughout. Its past payments stay in the totals of
  /// the shard that paid them, so TotalPaidCents() does not change. The project
  /// keeps its global id; task handles are re-minted on the destination
  /// and the old ones keep working through the placement map's handle
  /// translation. Crash-atomic: an intent row written before the copy is
  /// resolved on the next Init (pending → destination copy purged,
  /// committed → source copy purged). FailedPrecondition when the project
  /// has tasks in flight on an external platform; callers (the rebalancer)
  /// simply retry a later window. No-op OK when already on `to_shard`.
  /// `moved_ops_hint` only feeds the core.rebalance.moved_ops counter.
  Status MigrateProject(ProjectId project, size_t to_shard,
                        uint64_t moved_ops_hint = 0);

  /// Current placement-map version (bumped once per migration). Batch
  /// routers re-check this to re-route items that raced a migration.
  uint64_t placement_version() const {
    return placement_version_.load(std::memory_order_acquire);
  }

  /// Direct access to one shard's facade for tests — unsynchronized; the
  /// caller must guarantee no concurrent use of this ShardedSystem.
  ITagSystem& shard_system(size_t shard) { return *shards_[shard]->system; }

  // ----------------------------------------------------------- replication
  /// Databases a replication stream covers: one per shard, plus the
  /// placement database at stream index num_shards().
  size_t NumReplDbs() const { return shards_.size() + 1; }

  /// WAL file path of each replicated DB in stream-index order (placement
  /// last); empty strings when the system is in-memory. What a
  /// repl::Primary hands to its WalTailers.
  std::vector<std::string> ReplWalPaths() const;

  /// Last LSN appended to (primary) or applied into (follower) each
  /// replicated DB, stream-index order. A follower subscribes from these;
  /// each is read under the owning DB's lock.
  std::vector<uint64_t> ReplLsns() const;

  /// Applies one shipped WAL record into DB `db_index` under its lock
  /// (shard mutex, or migrate_mu_ for the placement DB). Errors as
  /// storage::Database::ApplyReplicated: OK on a duplicate, OutOfRange on
  /// a gap (the follower resubscribes).
  Status ApplyReplicated(size_t db_index, const storage::WalRecord& rec);

  /// Re-derives one shard's in-memory state from its database
  /// (ITagSystem::Reattach) and republishes its counters + views; a
  /// follower calls this for every shard a burst touched, once caught up.
  Status ReattachShard(size_t shard_index);

  /// Rebuilds the placement routing overlay from the placement database
  /// (follower, after placement-DB records were applied).
  Status ReloadPlacement();

  /// Follower → writable primary: resolves any replicated migration
  /// intents, re-derives the cross-shard counters, starts the rebalancer,
  /// and clears read_only(). FailedPrecondition when already writable.
  /// The caller must have stopped the replication stream first.
  Status Promote();

  /// True while this system is a replication follower (writes rejected at
  /// the service layer).
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

 private:
  /// One project's slot in a shard's view table.
  struct Published {
    std::shared_ptr<const ProjectView> view;
    /// View reads since the rebalancer last drained them: the read half
    /// of the per-project attribution, bumped under a shared snap_mu.
    mutable std::atomic<uint64_t> reads{0};
  };

  struct Shard {
    std::unique_ptr<ITagSystem> system;
    mutable std::mutex mu;  ///< serializes every access to `system`
    /// View table (keyed by *local* project id). Guarded by snap_mu,
    /// written only while `mu` is also held (or by a facade-direct caller,
    /// which owns the whole system; see shard_system()).
    mutable std::shared_mutex snap_mu;
    std::unordered_map<ProjectId, Published> views;
    SeqLock<ShardStats> stats;
    /// Per-project attribution of the locked routes for the rebalancer,
    /// keyed by *global* id (view reads count in Published::reads). Guarded
    /// by mu; drained once per window.
    std::unordered_map<uint64_t, uint64_t> project_ops;
    /// Registry mirror `core.shard.<i>.ops`: ops routed to this shard
    /// (single-project routes, batch-group runs, creates). Relaxed atomic,
    /// bumped outside mu by design.
    obs::Counter* ops = nullptr;
  };

  /// Registry metrics of the cross-shard layer (core.*), cached once.
  struct CoreMetrics {
    obs::Histogram* step_latency_us;   ///< wall time of one Step() fan-out
    obs::Counter* step_ticks;          ///< simulated ticks advanced
    obs::Counter* route_items;         ///< items through RouteByHandle
    obs::Counter* route_fanouts;       ///< RouteByHandle calls hitting >1 shard
    obs::Counter* route_bad_handle;    ///< items rejected before routing
    obs::Counter* rebalance_migrations;  ///< completed migrations
    obs::Counter* rebalance_moved_ops;   ///< window ops attributed to movers
    obs::Counter* rebalance_stall_us;    ///< summed write-stall wall time
    obs::Gauge* placement_version;       ///< mirrors placement_version_
  };

  size_t ShardOf(uint64_t global_id) const {
    return ShardOfId(global_id, shards_.size());
  }
  uint64_t ToLocal(uint64_t global_id) const {
    return LocalId(global_id, shards_.size());
  }
  uint64_t ToGlobal(uint64_t local_id, size_t shard) const {
    return EncodeShardedId(local_id, shard, shards_.size());
  }
  /// Global id of the project living at (shard, local) — the placement
  /// map's slot history, falling back to the codec for never-moved slots.
  uint64_t GlobalProjectOf(size_t shard, uint64_t local) const;

  /// Resolves `project` through the placement map and locks the owning
  /// shard, re-checking under the lock (a migration may land between the
  /// lookup and the lock) and retrying on a move. Invokes
  /// fn(shard_index, system, local_id); centralizes routing + the bad-id
  /// guard + per-project op attribution.
  template <typename Fn>
  auto WithProject(ProjectId project, Fn&& fn) const
      -> decltype(fn(size_t{0}, static_cast<ITagSystem*>(nullptr),
                     ProjectId{0}));

  /// The one handle-keyed router (SubmitTagsBatch, DecideBatch): groups
  /// `items` by the shard their global handle (`handle_of(item)`, translated
  /// through the placement map's handle table, since migrations re-mint
  /// handles) encodes — items with a bogus handle get
  /// NotFound("<noun> <handle>") in place — rewrites each grouped item's
  /// handle shard-local via `relabel`, then
  /// runs `run_shard(shard_index, system, local_items, slots, &out)` under
  /// each involved shard's mutex, pool-parallel when more than one shard is
  /// involved. `slots` maps group positions back to request positions;
  /// run_shard must write its statuses through them.
  template <typename Item, typename HandleOf, typename Relabel,
            typename RunShard>
  std::vector<Status> RouteByHandle(const std::vector<Item>& items,
                                    const char* noun, HandleOf handle_of,
                                    Relabel relabel, RunShard run_shard);

  /// The publish hook of shard `shard_index`'s facade: builds the
  /// unplanned view of one local project and swaps it in, or drops it when
  /// the project is gone. Runs with the shard mutex held, or on a
  /// facade-direct caller.
  void PublishView(size_t shard_index, ProjectId local) const;
  /// The published entry of `project`, resolved through placement, or
  /// null. Bumps the shard's routed-op counter and the project's read
  /// attribution when `attribute`. Takes no shard mutex.
  std::shared_ptr<const ProjectView> FindView(ProjectId project,
                                              bool attribute) const;
  /// The infos of every view matching `keep(info)`, with global ids, in
  /// listing order (see ListProjects).
  template <typename Keep>
  std::vector<ProjectInfo> ListViews(Keep keep) const;
  /// Republishes every project view of one shard, drops views of projects
  /// it no longer holds, and refreshes its stats (shard mutex held).
  void RefreshShard(size_t shard_index) const;
  /// Publishes current payment/project counters (shard mutex held).
  void RefreshStats(size_t shard_index) const;
  /// Refreshes every shard (taking each shard mutex, on the pool), then
  /// sets the round-robin cursor and the clock from them. Init and Promote.
  void RefreshAll();

  /// Publishes `core.placement.project.<global>` = shard (debug surface).
  void SetPlacementGauge(uint64_t global, size_t shard) const;
  /// Opens <dir>/placement (in-memory when the shards are), creates its
  /// tables, and loads the routing overlay.
  Status OpenPlacement();
  /// (Re)builds placement_ from the placement tables; shared by
  /// OpenPlacement and ReloadPlacement.
  Status LoadPlacementOverlay();
  /// Replays unresolved migration intents left by a crash: pending →
  /// purge the destination copy, committed → purge the source copy.
  Status ResolveIntents();
  /// Rebalancer thread body: sleeps rebalance_interval_ms between windows.
  void RebalanceLoop();
  /// One sampling window: reads per-shard op deltas, applies the
  /// hot-ratio + hysteresis rules, migrates at most one project.
  void RebalanceOnce();
  /// Moves one shard's per-project attribution (locked routes plus view
  /// reads) into `out`, or discards it when `out` is null, and resets it.
  void DrainAttribution(size_t shard_index,
                        std::unordered_map<uint64_t, uint64_t>* out);

  ShardedSystemOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  CoreMetrics metrics_{};
  std::mutex users_mu_;  ///< serializes broadcast registrations
  /// Serializes project placement: the round-robin cursor advances only on
  /// a *successful* create, so it stays re-derivable after recovery as the
  /// total number of persisted projects (failed creates burn nothing).
  std::mutex create_mu_;
  std::atomic<uint64_t> next_project_shard_{0};
  std::atomic<Tick> now_{0};
  bool initialized_ = false;
  /// Replication-follower flag; cleared by Promote().
  std::atomic<bool> read_only_{false};

  /// Movable routing overlay. placement_mu_ is a leaf lock: always
  /// acquired after any shard mutex, never around one.
  mutable std::shared_mutex placement_mu_;
  PlacementMap placement_{1};  // re-built with num_shards in the ctor
  /// Mirror of placement_.version(), readable without placement_mu_.
  std::atomic<uint64_t> placement_version_{0};
  /// Placement persistence. migrate_mu_ serializes migrations and every
  /// write to placement_db_ (Checkpoint takes it too).
  mutable std::mutex migrate_mu_;
  std::unique_ptr<storage::Database> placement_db_;

  // Rebalancer thread state (thread-owned except the stop flag).
  std::thread rebalance_thread_;
  std::mutex rebalance_mu_;
  std::condition_variable rebalance_cv_;
  bool rebalance_stop_ = false;
  std::vector<uint64_t> last_shard_ops_;
  int hot_streak_ = 0;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_SHARDED_SYSTEM_H_
