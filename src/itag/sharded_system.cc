#include "itag/sharded_system.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "obs/trace.h"
#include "storage/schema.h"

namespace itag::core {

using tagging::ResourceId;

namespace {

/// Smallest sensible fan-out pool: one thread per shard, capped by the
/// hardware (RunAll's caller also helps drain, so even 1 works).
size_t DefaultPoolThreads(size_t num_shards) {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::max<size_t>(1, std::min(num_shards, hw));
}

// Placement-database tables (see docs/rebalancing.md for the formats).
constexpr char kPlacementTable[] = "placement";  // project → (shard, local)
constexpr char kSlotsTable[] = "slots";          // slot codec-key → owner
constexpr char kHandlesTable[] = "handles";      // old handle → current
constexpr char kIntentTable[] = "intent";        // in-progress migrations

// Rebalancer thresholds. A shard is "hot" when its share of a window's
// routed ops reaches kRebalanceHotRatio; two consecutive hot windows
// (hysteresis) trigger one migration, and any migration resets the streak
// (cool-down). Windows with fewer than kRebalanceMinOps routed ops are
// ignored, so an idle system never migrates on noise.
constexpr double kRebalanceHotRatio = 0.45;
constexpr uint64_t kRebalanceMinOps = 64;

}  // namespace

ShardedSystem::ShardedSystem(ShardedSystemOptions options)
    : options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    ITagSystemOptions shard_options = options_.shard;
    if (!shard_options.db.directory.empty()) {
      shard_options.db.directory += "/shard-" + std::to_string(i);
    }
    // Distinct seeds so the simulated worker pools differ per shard; shard 0
    // keeps the template seed, matching a single-shard ITagSystem exactly.
    shard_options.seed = options_.shard.seed + i;
    auto shard = std::make_unique<Shard>();
    shard->system = std::make_unique<ITagSystem>(std::move(shard_options));
    // Every write, through this class or straight into the facade,
    // republishes the projects it changed.
    shard->system->SetPublishHook(
        [this, i](ProjectId local) { PublishView(i, local); });
    shard->ops = obs::MetricsRegistry::Default().GetCounter(
        "core.shard." + std::to_string(i) + ".ops");
    shards_.push_back(std::move(shard));
  }
  size_t threads = options_.pool_threads != 0
                       ? options_.pool_threads
                       : DefaultPoolThreads(options_.num_shards);
  pool_ = std::make_unique<ThreadPool>(threads);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metrics_.step_latency_us = reg.GetHistogram("core.step.latency_us");
  metrics_.step_ticks = reg.GetCounter("core.step.ticks");
  metrics_.route_items = reg.GetCounter("core.route.items");
  metrics_.route_fanouts = reg.GetCounter("core.route.fanouts");
  metrics_.route_bad_handle = reg.GetCounter("core.route.bad_handle");
  metrics_.rebalance_migrations = reg.GetCounter("core.rebalance.migrations");
  metrics_.rebalance_moved_ops = reg.GetCounter("core.rebalance.moved_ops");
  metrics_.rebalance_stall_us = reg.GetCounter("core.rebalance.stall_us");
  metrics_.placement_version = reg.GetGauge("core.placement.version");
  placement_ = PlacementMap(options_.num_shards);
  last_shard_ops_.assign(options_.num_shards, 0);
}

ShardedSystem::~ShardedSystem() {
  {
    std::lock_guard<std::mutex> lock(rebalance_mu_);
    rebalance_stop_ = true;
  }
  rebalance_cv_.notify_all();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
}

Status ShardedSystem::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  // Phase 1 — durable shards recover independently (own directory, own
  // WAL), so the whole reopen parallelizes across the pool. Counters and
  // views wait: globalizing a migrated project needs the placement map,
  // which loads after the shards.
  std::vector<Status> results(shards_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    tasks.push_back([this, s, &results] {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      results[s] = shard.system->Init();
    });
  }
  pool_->RunAll(std::move(tasks));
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!results[s].ok()) {
      return Status(results[s].code(), "shard " + std::to_string(s) +
                                           " failed to open: " +
                                           results[s].message());
    }
  }
  // Phase 2 — the placement overlay, then any migration the last process
  // did not finish. Intents must resolve before counters are derived:
  // resolving one can delete a half-copied project. A follower must NOT
  // resolve: its intent rows mirror the primary's, where the migration may
  // well complete — Promote() resolves whatever is left at failover.
  ITAG_RETURN_IF_ERROR(OpenPlacement());
  read_only_.store(options_.read_only, std::memory_order_release);
  if (!options_.read_only) {
    ITAG_RETURN_IF_ERROR(ResolveIntents());
  }
  // Phase 3 — publish every project view so the lock-free read path works
  // immediately, then derive the cross-shard counters.
  RefreshAll();
  // Debug surface: one placement gauge per live project, i.e. per view
  // the refresh above published.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.snap_mu);
    for (const auto& [local, entry] : shard.views) {
      SetPlacementGauge(entry.view->info_.id, s);
    }
  }
  metrics_.placement_version->Set(
      static_cast<int64_t>(placement_version_.load(std::memory_order_acquire)));
  initialized_ = true;
  if (options_.rebalance_interval_ms > 0 && !options_.read_only) {
    rebalance_thread_ = std::thread([this] { RebalanceLoop(); });
  }
  return Status::OK();
}

// ------------------------------------------------------------- replication

std::vector<std::string> ShardedSystem::ReplWalPaths() const {
  std::vector<std::string> paths;
  paths.reserve(shards_.size() + 1);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    paths.push_back(shard->system->database().wal_path());
  }
  paths.push_back(placement_db_ ? placement_db_->wal_path() : "");
  return paths;
}

std::vector<uint64_t> ShardedSystem::ReplLsns() const {
  std::vector<uint64_t> lsns;
  lsns.reserve(shards_.size() + 1);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    lsns.push_back(shard->system->database().last_lsn());
  }
  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    lsns.push_back(placement_db_ ? placement_db_->last_lsn() : 0);
  }
  return lsns;
}

Status ShardedSystem::ApplyReplicated(size_t db_index,
                                      const storage::WalRecord& rec) {
  if (db_index < shards_.size()) {
    Shard& shard = *shards_[db_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.system->database().ApplyReplicated(rec);
  }
  if (db_index == shards_.size() && placement_db_) {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    return placement_db_->ApplyReplicated(rec);
  }
  return Status::InvalidArgument("replicated db index " +
                                 std::to_string(db_index) + " out of range");
}

Status ShardedSystem::ReattachShard(size_t shard_index) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  ITAG_RETURN_IF_ERROR(shard.system->Reattach());
  RefreshShard(shard_index);
  // Shard clocks advance in lockstep on the primary, so the follower's
  // monotonic maximum converges to the primary's Now().
  Tick shard_now = shard.system->clock().Now();
  Tick seen = now_.load(std::memory_order_acquire);
  while (shard_now > seen &&
         !now_.compare_exchange_weak(seen, shard_now,
                                     std::memory_order_acq_rel)) {
  }
  return Status::OK();
}

Status ShardedSystem::ReloadPlacement() {
  if (!placement_db_) {
    return Status::FailedPrecondition("placement database not open");
  }
  ITAG_RETURN_IF_ERROR(LoadPlacementOverlay());
  metrics_.placement_version->Set(
      static_cast<int64_t>(placement_version_.load(std::memory_order_acquire)));
  return Status::OK();
}

Status ShardedSystem::Promote() {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  if (!read_only_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("not a replica: already writable");
  }
  // The stream is stopped (caller's contract), so the tables are frozen at
  // whatever the follower durably applied. This is exactly the post-crash
  // recovery picture — run the same deterministic steps a primary restart
  // would: re-derive in-memory state from the tables, then resolve
  // half-done migrations (which consults that state), then refresh the
  // cross-shard counters.
  std::vector<Status> results(shards_.size());
  std::vector<std::function<void()>> reattach;
  reattach.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    reattach.push_back([this, s, &results] {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      results[s] = shard.system->Reattach();
    });
  }
  pool_->RunAll(std::move(reattach));
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!results[s].ok()) {
      return Status(results[s].code(), "shard " + std::to_string(s) +
                                           " failed to promote: " +
                                           results[s].message());
    }
  }
  ITAG_RETURN_IF_ERROR(ReloadPlacement());
  ITAG_RETURN_IF_ERROR(ResolveIntents());
  RefreshAll();
  read_only_.store(false, std::memory_order_release);
  if (options_.rebalance_interval_ms > 0) {
    rebalance_thread_ = std::thread([this] { RebalanceLoop(); });
  }
  return Status::OK();
}

Result<CheckpointInfo> ShardedSystem::Checkpoint() {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  std::vector<Result<CheckpointInfo>> results(
      shards_.size(), Result<CheckpointInfo>(CheckpointInfo{}));
  const obs::TraceContext trace = obs::CurrentTrace();
  const uint64_t parent_span = obs::CurrentSpanId();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    tasks.push_back([this, s, &results, trace, parent_span] {
      obs::ScopedTraceContext trace_scope(trace, parent_span);
      obs::Span span("core.shard");
      span.Annotate("shard", static_cast<uint64_t>(s));
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      results[s] = shard.system->Checkpoint();
    });
  }
  pool_->RunAll(std::move(tasks));
  CheckpointInfo total;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!results[s].ok()) {
      return Status(results[s].status().code(),
                    "shard " + std::to_string(s) + " checkpoint failed: " +
                        results[s].status().message());
    }
    const CheckpointInfo& info = results[s].value();
    total.durable = total.durable || info.durable;
    total.tables += info.tables;
    total.rows += info.rows;
  }
  // migrate_mu_ keeps the snapshot from splitting a migration's batch.
  std::lock_guard<std::mutex> migration(migrate_mu_);
  ITAG_RETURN_IF_ERROR(placement_db_->Checkpoint());
  total.tables += placement_db_->TableNames().size();
  total.rows += placement_db_->TotalRows();
  return total;
}

// ------------------------------------------------------------- placement

Status ShardedSystem::OpenPlacement() {
  storage::DatabaseOptions popt = options_.shard.db;
  popt.paged = false;  // four tiny tables; snapshot mode restarts O(map)
  if (!popt.directory.empty()) popt.directory += "/placement";
  placement_db_ = std::make_unique<storage::Database>();
  ITAG_RETURN_IF_ERROR(placement_db_->Open(popt));
  storage::Database& db = *placement_db_;
  using storage::SchemaBuilder;
  ITAG_RETURN_IF_ERROR(db.EnsureTable(kPlacementTable,
                                      SchemaBuilder()
                                          .Int("project")
                                          .Int("shard")
                                          .Int("local")
                                          .Int("version")
                                          .Build()));
  ITAG_RETURN_IF_ERROR(db.AddUniqueIndex(kPlacementTable, "project"));
  ITAG_RETURN_IF_ERROR(db.EnsureTable(
      kSlotsTable, SchemaBuilder().Int("slot").Int("project").Build()));
  ITAG_RETURN_IF_ERROR(db.AddUniqueIndex(kSlotsTable, "slot"));
  ITAG_RETURN_IF_ERROR(db.EnsureTable(
      kHandlesTable, SchemaBuilder().Int("old").Int("new").Build()));
  ITAG_RETURN_IF_ERROR(db.AddUniqueIndex(kHandlesTable, "old"));
  ITAG_RETURN_IF_ERROR(db.EnsureTable(kIntentTable,
                                      SchemaBuilder()
                                          .Int("project")
                                          .Int("from_shard")
                                          .Int("from_local")
                                          .Int("to_shard")
                                          .Int("to_local")
                                          .Int("state")
                                          .Build()));
  return LoadPlacementOverlay();
}

Status ShardedSystem::LoadPlacementOverlay() {
  storage::Database& db = *placement_db_;
  std::unique_lock<std::shared_mutex> pl(placement_mu_);
  placement_ = PlacementMap(shards_.size());
  ITAG_RETURN_IF_ERROR(db.GetTable(kPlacementTable)
      ->Scan([&](storage::RowId, const storage::Row& row) {
        PlacementMap::Location at;
        at.shard = static_cast<size_t>(row[1].as_int());
        at.local = static_cast<uint64_t>(row[2].as_int());
        placement_.RestoreOverride(static_cast<uint64_t>(row[0].as_int()), at,
                                   static_cast<uint64_t>(row[3].as_int()));
        return true;
      }));
  ITAG_RETURN_IF_ERROR(db.GetTable(kSlotsTable)
      ->Scan([&](storage::RowId, const storage::Row& row) {
        placement_.RestoreSlot(static_cast<uint64_t>(row[0].as_int()),
                               static_cast<uint64_t>(row[1].as_int()));
        return true;
      }));
  ITAG_RETURN_IF_ERROR(db.GetTable(kHandlesTable)
      ->Scan([&](storage::RowId, const storage::Row& row) {
        placement_.RestoreHandle(static_cast<uint64_t>(row[0].as_int()),
                                 static_cast<uint64_t>(row[1].as_int()));
        return true;
      }));
  placement_version_.store(placement_.version(), std::memory_order_release);
  return Status::OK();
}

Status ShardedSystem::ResolveIntents() {
  struct Intent {
    storage::RowId rid = 0;
    uint64_t from_local = 0;
    uint64_t to_local = 0;
    size_t from_shard = 0;
    size_t to_shard = 0;
    int64_t state = 0;
  };
  std::vector<Intent> found;
  ITAG_RETURN_IF_ERROR(placement_db_->GetTable(kIntentTable)
      ->Scan([&](storage::RowId rid, const storage::Row& row) {
        Intent in;
        in.rid = rid;
        in.from_shard = static_cast<size_t>(row[1].as_int());
        in.from_local = static_cast<uint64_t>(row[2].as_int());
        in.to_shard = static_cast<size_t>(row[3].as_int());
        in.to_local = static_cast<uint64_t>(row[4].as_int());
        in.state = row[5].as_int();
        found.push_back(in);
        return true;
      }));
  for (const Intent& in : found) {
    if (in.state == 0) {
      // Crash before the commit: routing still points at the source, which
      // stayed authoritative — purge whatever partial copy reached the
      // destination.
      Shard& dst = *shards_[in.to_shard];
      std::lock_guard<std::mutex> lock(dst.mu);
      if (dst.system->quality_manager().GetRec(
              static_cast<ProjectId>(in.to_local)) != nullptr) {
        ITAG_RETURN_IF_ERROR(
            dst.system->EraseProject(static_cast<ProjectId>(in.to_local)));
      }
    } else {
      // Crash after the commit: the persisted placement already routes to
      // the destination — the source copy is the leftover.
      Shard& src = *shards_[in.from_shard];
      std::lock_guard<std::mutex> lock(src.mu);
      if (src.system->quality_manager().GetRec(
              static_cast<ProjectId>(in.from_local)) != nullptr) {
        ITAG_RETURN_IF_ERROR(
            src.system->EraseProject(static_cast<ProjectId>(in.from_local)));
      }
    }
    ITAG_RETURN_IF_ERROR(placement_db_->Delete(kIntentTable, in.rid));
  }
  return Status::OK();
}

uint64_t ShardedSystem::GlobalProjectOf(size_t shard, uint64_t local) const {
  std::shared_lock<std::shared_mutex> pl(placement_mu_);
  return placement_.GlobalOf(shard, local);
}

void ShardedSystem::SetPlacementGauge(uint64_t global, size_t shard) const {
  obs::MetricsRegistry::Default()
      .GetGauge("core.placement.project." + std::to_string(global))
      ->Set(static_cast<int64_t>(shard));
}

// --------------------------------------------------------------- routing

template <typename Fn>
auto ShardedSystem::WithProject(ProjectId project, Fn&& fn) const
    -> decltype(fn(size_t{0}, static_cast<ITagSystem*>(nullptr),
                   ProjectId{0})) {
  using R = decltype(fn(size_t{0}, static_cast<ITagSystem*>(nullptr),
                        ProjectId{0}));
  if (project == 0) {  // 0 is never issued — reject before resolving
    return R(Status::NotFound("project 0"));
  }
  for (int attempt = 0; attempt < 4; ++attempt) {
    PlacementMap::Location loc;
    {
      std::shared_lock<std::shared_mutex> pl(placement_mu_);
      if (!placement_.Resolve(project, &loc)) {
        return R(Status::NotFound("project " + std::to_string(project)));
      }
    }
    if (loc.local == 0) {  // no shard hands out local id 0 — global is bogus
      return R(Status::NotFound("project " + std::to_string(project)));
    }
    Shard& shard = *shards_[loc.shard];
    shard.ops->Inc();
    obs::Span span("core.shard");  // no-op unless this request is traced
    span.Annotate("shard", static_cast<uint64_t>(loc.shard));
    std::lock_guard<std::mutex> lock(shard.mu);
    {
      // A migration may have landed between the lookup and the lock;
      // re-resolve under the lock and re-route if the project moved.
      std::shared_lock<std::shared_mutex> pl(placement_mu_);
      PlacementMap::Location now;
      if (!placement_.Resolve(project, &now) || now.shard != loc.shard ||
          now.local != loc.local) {
        continue;
      }
    }
    shard.project_ops[project]++;  // rebalancer attribution (under mu)
    return fn(loc.shard, shard.system.get(),
              static_cast<ProjectId>(loc.local));
  }
  return R(Status::Aborted("placement moved repeatedly while routing project " +
                           std::to_string(project)));
}

template <typename Item, typename HandleOf, typename Relabel,
          typename RunShard>
std::vector<Status> ShardedSystem::RouteByHandle(
    const std::vector<Item>& items, const char* noun, HandleOf handle_of,
    Relabel relabel, RunShard run_shard) {
  std::vector<Status> out(items.size());
  metrics_.route_items->Inc(items.size());
  std::vector<size_t> todo(items.size());
  for (size_t i = 0; i < items.size(); ++i) todo[i] = i;
  // The batch races migrations without per-item locking: route against the
  // placement version captured up front, and when a migration lands while
  // the fan-out runs, re-route only the NotFound items (NotFound has no
  // side effects — the handle simply was not there — so a stale route that
  // missed is safe to retry at the project's new home).
  for (int round = 0; round < 3 && !todo.empty(); ++round) {
    const uint64_t v0 = placement_version_.load(std::memory_order_acquire);
    struct Group {
      std::vector<Item> items;    // handles rewritten shard-local
      std::vector<size_t> slots;  // request positions
    };
    std::vector<Group> groups(shards_.size());
    {
      std::shared_lock<std::shared_mutex> pl(placement_mu_);
      for (size_t i : todo) {
        uint64_t handle = handle_of(items[i]);
        uint64_t cur = placement_.TranslateHandle(handle);
        uint64_t local = ToLocal(cur);
        if (local == 0) {  // no shard hands out local id 0 — global is bogus
          out[i] = Status::NotFound(std::string(noun) + " " +
                                    std::to_string(handle));
          if (round == 0) metrics_.route_bad_handle->Inc();
          continue;
        }
        Group& g = groups[ShardOf(cur)];
        g.items.push_back(relabel(items[i], local));
        g.slots.push_back(i);
      }
    }
    // Fan-out tasks run on pool threads with no trace installed; carry the
    // caller's context in so each shard's work shows up as a core.shard
    // child span of the request (see obs/trace.h).
    const obs::TraceContext trace = obs::CurrentTrace();
    const uint64_t parent_span = obs::CurrentSpanId();
    std::vector<std::function<void()>> tasks;
    for (size_t s = 0; s < groups.size(); ++s) {
      if (groups[s].items.empty()) continue;
      shards_[s]->ops->Inc(groups[s].items.size());
      tasks.push_back(
          [this, s, &groups, &out, &run_shard, trace, parent_span] {
            obs::ScopedTraceContext trace_scope(trace, parent_span);
            const Group& g = groups[s];
            obs::Span span("core.shard");
            span.Annotate("shard", static_cast<uint64_t>(s));
            span.Annotate("items", static_cast<uint64_t>(g.items.size()));
            Shard& shard = *shards_[s];
            std::lock_guard<std::mutex> lock(shard.mu);
            run_shard(s, shard.system.get(), g.items, g.slots, &out);
          });
    }
    if (tasks.size() == 1) {
      tasks.front()();  // single shard involved — skip the pool round-trip
    } else if (!tasks.empty()) {
      metrics_.route_fanouts->Inc();
      pool_->RunAll(std::move(tasks));
    }
    if (placement_version_.load(std::memory_order_acquire) == v0) break;
    std::vector<size_t> retry;
    for (size_t i : todo) {
      if (out[i].IsNotFound()) retry.push_back(i);
    }
    todo = std::move(retry);
  }
  return out;
}

void ShardedSystem::PublishView(size_t shard_index, ProjectId local) const {
  Shard& shard = *shards_[shard_index];
  const ITagSystem& sys = *shard.system;
  ProjectionInputs projection;
  Result<ProjectInfo> info =
      shard.system->quality_manager().GetUnplannedInfo(local, &projection);
  if (!info.ok()) {
    std::unique_lock<std::shared_mutex> lock(shard.snap_mu);
    shard.views.erase(local);
    return;
  }
  // Writers are serialized (shard mutex, or a facade-direct caller that
  // owns the system), so the current entry can be read without snap_mu.
  auto it = shard.views.find(local);
  const ProjectView* prev = it == shard.views.end() ? nullptr
                                                    : it->second.view.get();
  // Slot history, not the codec: a migrated project's view must carry the
  // global id it was created under. Resolved before snap_mu (leaf order:
  // shard.mu → placement_mu_, snap_mu independent).
  info.value().id = GlobalProjectOf(shard_index, local);
  // A project's feed only ever grows (an adopted one arrives under a fresh
  // local id), so an unchanged length means the previous copy still holds.
  const std::vector<QualityPoint>& feed = sys.QualityFeed(local);
  auto view = std::make_shared<const ProjectView>(
      std::move(info).value(), std::move(projection),
      prev != nullptr && prev->feed()->size() == feed.size()
          ? prev->feed()
          : std::make_shared<const std::vector<QualityPoint>>(feed),
      prev != nullptr ? prev->version() + 1 : 1);
  std::unique_lock<std::shared_mutex> lock(shard.snap_mu);
  shard.views[local].view = std::move(view);
}

std::shared_ptr<const ProjectView> ShardedSystem::FindView(
    ProjectId project, bool attribute) const {
  // Lock-free with respect to shard mutexes even mid-migration: the
  // destination view is published (under the new slot) before routing
  // flips, so a reader either sees the source entry or the destination
  // one. A racing flip can make one probe miss both; one retry after a
  // version change covers it.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t v0 = placement_version_.load(std::memory_order_acquire);
    PlacementMap::Location loc;
    {
      std::shared_lock<std::shared_mutex> pl(placement_mu_);
      if (!placement_.Resolve(project, &loc) || loc.local == 0) {
        return nullptr;
      }
    }
    Shard& shard = *shards_[loc.shard];
    if (attribute) shard.ops->Inc();
    {
      std::shared_lock<std::shared_mutex> lock(shard.snap_mu);
      auto it = shard.views.find(static_cast<ProjectId>(loc.local));
      if (it != shard.views.end()) {
        if (attribute) it->second.reads.fetch_add(1, std::memory_order_relaxed);
        return it->second.view;
      }
    }
    if (placement_version_.load(std::memory_order_acquire) == v0) break;
  }
  return nullptr;
}

template <typename Keep>
std::vector<ProjectInfo> ShardedSystem::ListViews(Keep keep) const {
  // Views are picked and ordered by their unplanned fields; only the
  // listed ones are planned, after every view-table lock is released.
  struct Row {
    std::shared_ptr<const ProjectView> view;
    size_t shard;
    ProjectId local;
  };
  std::vector<Row> rows;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.snap_mu);
    for (const auto& [local, entry] : shard.views) {
      if (keep(entry.view->info_)) rows.push_back({entry.view, s, local});
    }
  }
  {
    // Mid-migration both copies have a view; list the one routing names.
    std::shared_lock<std::shared_mutex> pl(placement_mu_);
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [this](const Row& row) {
                                PlacementMap::Location at;
                                return !placement_.Resolve(
                                           row.view->info_.id, &at) ||
                                       at.shard != row.shard ||
                                       at.local != row.local;
                              }),
               rows.end());
  }
  // The Fig. 3 order: quality descending, then shard, then local id.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.view->info_.quality != b.view->info_.quality) {
      return a.view->info_.quality > b.view->info_.quality;
    }
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.local < b.local;
  });
  std::vector<ProjectInfo> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row.view->info());
  return out;
}

void ShardedSystem::RefreshStats(size_t shard_index) const {
  Shard& shard = *shards_[shard_index];
  ShardStats stats;
  stats.projects = shard.system->quality_manager().ProjectCount();
  stats.tasks_accepted = shard.system->tasks_accepted_total();
  stats.payments = shard.system->ledger().PaymentCount();
  stats.paid_cents = shard.system->ledger().TotalPaid();
  shard.stats.Write(stats);
}

void ShardedSystem::RefreshAll() {
  std::vector<std::function<void()>> refresh;
  refresh.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    refresh.push_back([this, s] {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      RefreshShard(s);
    });
  }
  pool_->RunAll(std::move(refresh));
  // The round-robin cursor equals the number of successful creates, which
  // is the number of projects the shards hold: a migration moves one from
  // source to destination and leaves the sum unchanged. All shard clocks
  // advance in lockstep.
  uint64_t projects = 0;
  for (size_t s = 0; s < shards_.size(); ++s) projects += StatsOf(s).projects;
  next_project_shard_.store(projects, std::memory_order_release);
  now_.store(shards_[0]->system->clock().Now(), std::memory_order_release);
}

void ShardedSystem::RefreshShard(size_t shard_index) const {
  Shard& shard = *shards_[shard_index];
  const std::vector<ProjectId> live =
      shard.system->quality_manager().ProjectIds();
  {
    // A follower's replayed migration can take a project off this shard
    // without any call here publishing the drop.
    std::unique_lock<std::shared_mutex> lock(shard.snap_mu);
    for (auto it = shard.views.begin(); it != shard.views.end();) {
      if (std::binary_search(live.begin(), live.end(), it->first)) {
        ++it;
      } else {
        it = shard.views.erase(it);
      }
    }
  }
  for (ProjectId local : live) PublishView(shard_index, local);
  RefreshStats(shard_index);
}

// ----------------------------------------------------------------- users

Result<ProviderId> ShardedSystem::RegisterProvider(const std::string& name) {
  std::lock_guard<std::mutex> users_lock(users_mu_);
  ProviderId id = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    Result<ProviderId> r = shard.system->RegisterProvider(name);
    if (!r.ok()) {
      // A mid-broadcast failure (only reachable with storage-backed shards
      // hitting I/O errors) leaves the user on shards 0..i-1; see the
      // broadcast invariant in docs/concurrency.md for the recovery story.
      if (i == 0) return r;
      return Status::Internal("provider registration diverged: shard " +
                              std::to_string(i) + " failed (" +
                              r.status().message() +
                              ") after earlier shards committed");
    }
    if (i == 0) {
      id = r.value();
    } else if (r.value() != id) {
      return Status::Internal(
          "provider id diverged across shards (was a shard mutated "
          "through shard_system()?)");
    }
  }
  return id;
}

Result<UserTaggerId> ShardedSystem::RegisterTagger(const std::string& name) {
  std::lock_guard<std::mutex> users_lock(users_mu_);
  UserTaggerId id = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    Result<UserTaggerId> r = shard.system->RegisterTagger(name);
    if (!r.ok()) {
      if (i == 0) return r;
      return Status::Internal("tagger registration diverged: shard " +
                              std::to_string(i) + " failed (" +
                              r.status().message() +
                              ") after earlier shards committed");
    }
    if (i == 0) {
      id = r.value();
    } else if (r.value() != id) {
      return Status::Internal("tagger id diverged across shards");
    }
  }
  return id;
}

Result<ProviderProfile> ShardedSystem::GetProvider(ProviderId id) const {
  ProviderProfile total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    Result<ProviderProfile> r = shard.system->GetProvider(id);
    if (!r.ok()) return r;
    if (i == 0) {
      total = r.value();
    } else {
      total.approvals_given += r.value().approvals_given;
      total.rejections_given += r.value().rejections_given;
    }
  }
  return total;
}

Result<TaggerProfile> ShardedSystem::GetTagger(UserTaggerId id) const {
  TaggerProfile total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    Result<TaggerProfile> r = shard.system->GetTagger(id);
    if (!r.ok()) return r;
    if (i == 0) {
      total = r.value();
    } else {
      total.submitted += r.value().submitted;
      total.approved += r.value().approved;
      total.rejected += r.value().rejected;
      total.earned_cents += r.value().earned_cents;
    }
  }
  return total;
}

// ----------------------------------------------------------- provider API

Result<ProjectId> ShardedSystem::CreateProject(ProviderId provider,
                                               const ProjectSpec& spec) {
  // Serialized placement (creates are rare): the cursor only advances when
  // the create lands, so its value always equals the number of persisted
  // projects and recovery can re-derive it exactly.
  std::lock_guard<std::mutex> place(create_mu_);
  size_t s = static_cast<size_t>(
      next_project_shard_.load(std::memory_order_relaxed) % shards_.size());
  Shard& shard = *shards_[s];
  shard.ops->Inc();
  std::lock_guard<std::mutex> lock(shard.mu);
  Result<ProjectId> r = shard.system->CreateProject(provider, spec);
  if (!r.ok()) return r;
  next_project_shard_.fetch_add(1, std::memory_order_relaxed);
  RefreshStats(s);
  // Fresh projects own their codec slot — no placement entry needed, only
  // the debug gauge.
  uint64_t global = ToGlobal(r.value(), s);
  SetPlacementGauge(global, s);
  return global;
}

std::vector<Status> ShardedSystem::UploadResourceBatch(
    ProjectId project, const std::vector<ResourceUpload>& items,
    std::vector<ResourceId>* ids) {
  Result<std::vector<Status>> r = WithProject(
      project,
      [&](size_t, ITagSystem* sys,
          ProjectId local) -> Result<std::vector<Status>> {
        return sys->UploadResourceBatch(local, items, ids);
      });
  if (r.ok()) return std::move(r).value();
  ids->assign(items.size(), tagging::kInvalidResource);
  return std::vector<Status>(items.size(), r.status());
}

Status ShardedSystem::ImportPost(ProjectId project, ResourceId resource,
                                 const std::vector<std::string>& raw_tags) {
  return WithProject(project,
                     [&](size_t, ITagSystem* sys, ProjectId local) -> Status {
                       return sys->ImportPost(local, resource, raw_tags);
                     });
}

std::vector<Status> ShardedSystem::ControlBatch(
    ProjectId project, const std::vector<ControlItem>& items) {
  Result<std::vector<Status>> r = WithProject(
      project,
      [&](size_t, ITagSystem* sys,
          ProjectId local) -> Result<std::vector<Status>> {
        return sys->ControlBatch(local, items);
      });
  if (r.ok()) return std::move(r).value();
  return std::vector<Status>(items.size(), r.status());
}

Result<strategy::StrategyKind> ShardedSystem::RecommendStrategy(
    ProjectId project) const {
  return WithProject(project,
                     [&](size_t, ITagSystem* sys,
                         ProjectId local) -> Result<strategy::StrategyKind> {
                       return sys->RecommendStrategy(local);
                     });
}

Result<std::shared_ptr<const ProjectView>> ShardedSystem::GetProjectView(
    ProjectId project) const {
  std::shared_ptr<const ProjectView> view = FindView(project, true);
  if (view == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  return view;
}

bool ShardedSystem::ViewReadPlans(ProjectId project) const {
  std::shared_ptr<const ProjectView> view = FindView(project, false);
  return view != nullptr && !view->planned();
}

Result<ProjectInfo> ShardedSystem::GetProjectInfo(ProjectId project) const {
  ITAG_ASSIGN_OR_RETURN(std::shared_ptr<const ProjectView> view,
                        GetProjectView(project));
  ProjectInfo info = view->info();
  info.id = project;  // the id the caller routed by — codec or moved
  return info;
}

std::vector<ProjectInfo> ShardedSystem::ListProjects(
    ProviderId provider) const {
  return ListViews([provider](const ProjectInfo& info) {
    return provider == static_cast<ProviderId>(-1) ||
           info.provider == provider;
  });
}

std::vector<QualityPoint> ShardedSystem::QualityFeed(
    ProjectId project) const {
  std::shared_ptr<const ProjectView> view = FindView(project, true);
  return view != nullptr ? *view->feed() : std::vector<QualityPoint>{};
}

Result<QualityManager::ResourceDetail> ShardedSystem::GetResourceDetail(
    ProjectId project, ResourceId resource) const {
  return WithProject(
      project,
      [&](size_t, ITagSystem* sys,
          ProjectId local) -> Result<QualityManager::ResourceDetail> {
        return sys->GetResourceDetail(local, resource);
      });
}

std::vector<Notification> ShardedSystem::LatestNotifications(
    ProviderId provider, size_t limit) {
  std::vector<Notification> merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (Notification n : shard.system->LatestNotifications(provider, limit)) {
      if (n.project != 0) n.project = GlobalProjectOf(s, n.project);
      merged.push_back(std::move(n));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Notification& a, const Notification& b) {
                     return a.time > b.time;
                   });
  if (merged.size() > limit) merged.resize(limit);
  return merged;
}

std::vector<PendingSubmission> ShardedSystem::PendingApprovals(
    ProjectId project) const {
  Result<std::vector<PendingSubmission>> r = WithProject(
      project,
      [&](size_t s, ITagSystem* sys,
          ProjectId local) -> Result<std::vector<PendingSubmission>> {
        std::vector<PendingSubmission> out = sys->PendingApprovals(local);
        for (PendingSubmission& sub : out) {
          // Handles are re-minted on the owning shard, so the codec global
          // of a live pending handle is always current.
          sub.handle = ToGlobal(sub.handle, s);
          sub.project = project;
        }
        return out;
      });
  return r.ok() ? std::move(r).value() : std::vector<PendingSubmission>{};
}

std::vector<Status> ShardedSystem::DecideBatch(
    ProviderId provider,
    const std::vector<std::pair<TaskHandle, bool>>& decisions) {
  using Decision = std::pair<TaskHandle, bool>;
  return RouteByHandle(
      decisions, "submission",
      [](const Decision& d) { return d.first; },
      [](Decision d, TaskHandle local) {
        d.first = local;
        return d;
      },
      [this, provider](size_t s, ITagSystem* sys,
                       const std::vector<Decision>& items,
                       const std::vector<size_t>& slots,
                       std::vector<Status>* out) {
        std::vector<Status> statuses = sys->DecideBatch(provider, items);
        for (size_t j = 0; j < statuses.size(); ++j) {
          (*out)[slots[j]] = std::move(statuses[j]);
        }
        RefreshStats(s);
      });
}

Result<size_t> ShardedSystem::ExportProject(ProjectId project,
                                            const std::string& path) const {
  return WithProject(
      project,
      [&](size_t, ITagSystem* sys, ProjectId local) -> Result<size_t> {
        return sys->ExportProject(local, path);
      });
}

// ------------------------------------------------------------- tagger API

std::vector<ProjectInfo> ShardedSystem::ListOpenProjects() const {
  return ListViews([](const ProjectInfo& info) {
    return info.state == ProjectState::kRunning && info.budget_remaining > 0;
  });
}

Result<std::vector<AcceptedTask>> ShardedSystem::AcceptTasks(
    UserTaggerId tagger, ProjectId project, size_t count) {
  return WithProject(
      project,
      [&](size_t s, ITagSystem* sys,
          ProjectId local) -> Result<std::vector<AcceptedTask>> {
        Result<std::vector<AcceptedTask>> r =
            sys->AcceptTasks(tagger, local, count);
        if (!r.ok()) return r;
        std::vector<AcceptedTask> tasks = std::move(r).value();
        for (AcceptedTask& task : tasks) {
          task.handle = ToGlobal(task.handle, s);  // fresh handles: codec
          task.project = project;
        }
        RefreshStats(s);
        return tasks;
      });
}

std::vector<Status> ShardedSystem::SubmitTagsBatch(
    const std::vector<TagSubmission>& items) {
  return RouteByHandle(
      items, "task",
      [](const TagSubmission& t) { return t.handle; },
      [](TagSubmission t, TaskHandle local) {
        t.handle = local;
        return t;
      },
      [](size_t, ITagSystem* sys, const std::vector<TagSubmission>& group,
         const std::vector<size_t>& slots, std::vector<Status>* out) {
        // Submissions only fill in open tasks, which no view tracks.
        std::vector<Status> statuses = sys->SubmitTagsBatch(group);
        for (size_t j = 0; j < statuses.size(); ++j) {
          (*out)[slots[j]] = std::move(statuses[j]);
        }
      });
}

// ------------------------------------------------------------- simulation

void ShardedSystem::SetPostSource(PostSource source) {
  const size_t n = shards_.size();
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (source == nullptr) {
      shard.system->SetPostSource(nullptr);
      continue;
    }
    // The source sees global project ids, whatever shard it runs on —
    // including a migrated project's original id (slot history).
    shard.system->SetPostSource(
        [this, source, s](ProjectId project, ResourceId resource,
                          double reliability, Tick now, Rng* rng) {
          return source(GlobalProjectOf(s, project), resource, reliability,
                        now, rng);
        });
  }
}

void ShardedSystem::SetApprovalPolicy(ProviderId provider,
                                      ApprovalPolicy policy) {
  const size_t n = shards_.size();
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (policy == nullptr) {
      shard.system->SetApprovalPolicy(provider, nullptr);
      continue;
    }
    // The policy sees global handle/project ids, whatever shard decides.
    // Handles are codec (live handles always belong to the deciding
    // shard); project ids go through slot history for migrated projects.
    shard.system->SetApprovalPolicy(
        provider, [this, policy, s, n](const PendingSubmission& sub) {
          PendingSubmission global = sub;
          global.handle = EncodeShardedId(sub.handle, s, n);
          global.project = GlobalProjectOf(s, sub.project);
          return policy(global);
        });
  }
}

Status ShardedSystem::Step(Tick ticks) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  obs::ScopedTimer step_timer(metrics_.step_latency_us);
  if (ticks > 0) metrics_.step_ticks->Inc(static_cast<uint64_t>(ticks));
  std::vector<Status> results(shards_.size());
  const obs::TraceContext trace = obs::CurrentTrace();
  const uint64_t parent_span = obs::CurrentSpanId();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    tasks.push_back([this, s, ticks, &results, trace, parent_span] {
      obs::ScopedTraceContext trace_scope(trace, parent_span);
      obs::Span span("core.shard");
      span.Annotate("shard", static_cast<uint64_t>(s));
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      Tick target = shard.system->clock().Now() + (ticks > 0 ? ticks : 0);
      results[s] = shard.system->Step(ticks);
      // A failing Step returns mid-tick; time still passed. Re-align the
      // shard clock so all shards stay in lockstep with Now().
      shard.system->clock().AdvanceTo(target);
      RefreshStats(s);
    });
  }
  pool_->RunAll(std::move(tasks));
  if (ticks > 0) now_.fetch_add(ticks, std::memory_order_acq_rel);
  for (const Status& st : results) {
    ITAG_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

// ---------------------------------------------------------- observability

Result<QualitySnapshot> ShardedSystem::PeekQuality(ProjectId project) const {
  std::shared_ptr<const ProjectView> view = FindView(project, false);
  if (view == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  const ProjectInfo& info = view->info_;
  QualitySnapshot snap;
  snap.project = info.id;
  snap.state = info.state;
  snap.quality = info.quality;
  snap.projected_gain = view->projected_gain();
  snap.budget_remaining = info.budget_remaining;
  snap.tasks_completed = info.tasks_completed;
  snap.num_resources = static_cast<uint32_t>(info.num_resources);
  snap.version = view->version();
  return snap;
}

ShardStats ShardedSystem::StatsOf(size_t shard) const {
  return shards_[shard]->stats.Read();
}

uint64_t ShardedSystem::TotalPaidCents() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->stats.Read().paid_cents;
  }
  return total;
}

// ------------------------------------------------------------ rebalancing

Status ShardedSystem::MigrateProject(ProjectId project, size_t to_shard,
                                     uint64_t moved_ops_hint) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  if (to_shard >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(to_shard));
  }
  // One migration at a time; this also serializes every placement_db_
  // write, so the routing overlay and its persisted mirror stay in step.
  std::lock_guard<std::mutex> migration(migrate_mu_);
  PlacementMap::Location loc;
  {
    std::shared_lock<std::shared_mutex> pl(placement_mu_);
    if (!placement_.Resolve(project, &loc) || loc.local == 0) {
      return Status::NotFound("project " + std::to_string(project));
    }
  }
  if (loc.shard == to_shard) return Status::OK();
  const size_t from = loc.shard;
  const ProjectId local = static_cast<ProjectId>(loc.local);
  obs::Span span("core.rebalance.migrate");
  span.Annotate("project", static_cast<uint64_t>(project));
  span.Annotate("from", static_cast<uint64_t>(from));
  span.Annotate("to", static_cast<uint64_t>(to_shard));
  const auto t0 = std::chrono::steady_clock::now();
  Shard& src = *shards_[from];
  Shard& dst = *shards_[to_shard];
  // The one place two shard mutexes are held at once: scoped_lock orders
  // them deadlock-free and migrate_mu_ keeps migrations single-file, so no
  // cycle can form. Writes to the project stall here; reads keep serving
  // from the published views.
  std::scoped_lock locks(src.mu, dst.mu);
  Result<ITagSystem::ProjectBundle> bundle = src.system->ExtractProject(local);
  ITAG_RETURN_IF_ERROR(bundle.status());
  const ProjectId to_local = dst.system->quality_manager().next_project_id();
  // Crash protocol: the intent row lands (WAL'd) before any copy. A crash
  // between here and the commit below leaves state 0 → recovery purges the
  // destination copy; the commit flips it to 1 → recovery purges the
  // source copy. Either way exactly one copy survives.
  Result<storage::RowId> intent = placement_db_->Insert(
      kIntentTable, {storage::Value::Int(static_cast<int64_t>(project)),
                     storage::Value::Int(static_cast<int64_t>(from)),
                     storage::Value::Int(static_cast<int64_t>(local)),
                     storage::Value::Int(static_cast<int64_t>(to_shard)),
                     storage::Value::Int(static_cast<int64_t>(to_local)),
                     storage::Value::Int(0)});
  ITAG_RETURN_IF_ERROR(intent.status());
  {
    // Claim the destination slot before the copy lands: the view the
    // adoption publishes then carries `project` while routing still points
    // at the source.
    std::unique_lock<std::shared_mutex> pl(placement_mu_);
    placement_.RecordSlot(project, {to_shard, to_local});
  }
  std::vector<std::pair<TaskHandle, TaskHandle>> renumbered;
  Result<ProjectId> adopted =
      dst.system->AdoptProject(bundle.value(), &renumbered);
  if (!adopted.ok()) {
    // Nothing routes to the destination yet — hand the slot back to its
    // codec id, clean up best-effort, then surface the adopt failure. The
    // source stayed untouched.
    {
      std::unique_lock<std::shared_mutex> pl(placement_mu_);
      placement_.RecordSlot(ToGlobal(to_local, to_shard), {to_shard, to_local});
    }
    if (dst.system->quality_manager().GetRec(to_local) != nullptr) {
      (void)dst.system->EraseProject(to_local);
    }
    (void)placement_db_->Delete(kIntentTable, intent.value());
    return adopted.status();
  }
  if (adopted.value() != to_local) {  // read under dst.mu — cannot drift
    return Status::Internal("adopted project id drifted");
  }
  // Commit: flip routing + handle translations in memory, then persist the
  // whole mirror (placement row, slot row, handle rows, intent → committed)
  // as one WAL batch.
  std::vector<std::pair<uint64_t, uint64_t>> handle_updates;
  uint64_t version = 0;
  {
    std::unique_lock<std::shared_mutex> pl(placement_mu_);
    placement_.Move(project, {to_shard, to_local});
    version = placement_.version();
    const size_t n = shards_.size();
    for (const auto& [old_local, new_local] : renumbered) {
      uint64_t old_g = EncodeShardedId(old_local, from, n);
      uint64_t new_g = EncodeShardedId(new_local, to_shard, n);
      for (uint64_t changed : placement_.MapHandle(old_g, new_g)) {
        handle_updates.emplace_back(changed, new_g);
      }
    }
    placement_version_.store(version, std::memory_order_release);
  }
  {
    storage::BatchScope batch(placement_db_.get());
    ITAG_RETURN_IF_ERROR(
        placement_db_
            ->Upsert(kPlacementTable,
                     {storage::Value::Int(static_cast<int64_t>(project)),
                      storage::Value::Int(static_cast<int64_t>(to_shard)),
                      storage::Value::Int(static_cast<int64_t>(to_local)),
                      storage::Value::Int(static_cast<int64_t>(version))})
            .status());
    ITAG_RETURN_IF_ERROR(
        placement_db_
            ->Insert(kSlotsTable,
                     {storage::Value::Int(static_cast<int64_t>(EncodeShardedId(
                          to_local, to_shard, shards_.size()))),
                      storage::Value::Int(static_cast<int64_t>(project))})
            .status());
    for (const auto& [old_h, new_h] : handle_updates) {
      ITAG_RETURN_IF_ERROR(
          placement_db_
              ->Upsert(kHandlesTable,
                       {storage::Value::Int(static_cast<int64_t>(old_h)),
                        storage::Value::Int(static_cast<int64_t>(new_h))})
              .status());
    }
    ITAG_RETURN_IF_ERROR(placement_db_->Update(
        kIntentTable, intent.value(),
        {storage::Value::Int(static_cast<int64_t>(project)),
         storage::Value::Int(static_cast<int64_t>(from)),
         storage::Value::Int(static_cast<int64_t>(local)),
         storage::Value::Int(static_cast<int64_t>(to_shard)),
         storage::Value::Int(static_cast<int64_t>(to_local)),
         storage::Value::Int(1)}));
    ITAG_RETURN_IF_ERROR(batch.Commit());
  }
  SetPlacementGauge(project, to_shard);
  metrics_.placement_version->Set(static_cast<int64_t>(version));
  // The move is durable and routed; drop the source copy (its erase drops
  // its view) and the intent.
  Status erase = src.system->EraseProject(local);
  ITAG_RETURN_IF_ERROR(placement_db_->Delete(kIntentTable, intent.value()));
  src.project_ops.erase(project);
  RefreshStats(from);
  RefreshStats(to_shard);
  const uint64_t stall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  metrics_.rebalance_migrations->Inc();
  if (moved_ops_hint > 0) metrics_.rebalance_moved_ops->Inc(moved_ops_hint);
  metrics_.rebalance_stall_us->Inc(stall_us);
  span.Annotate("stall_us", stall_us);
  return erase;
}

void ShardedSystem::DrainAttribution(
    size_t shard_index, std::unordered_map<uint64_t, uint64_t>* out) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (out != nullptr) {
    for (const auto& [global, ops] : shard.project_ops) (*out)[global] += ops;
  }
  shard.project_ops.clear();
  std::shared_lock<std::shared_mutex> views(shard.snap_mu);
  for (const auto& [local, entry] : shard.views) {
    const uint64_t reads = entry.reads.exchange(0, std::memory_order_relaxed);
    if (out != nullptr && reads > 0) (*out)[entry.view->info_.id] += reads;
  }
}

void ShardedSystem::RebalanceLoop() {
  std::unique_lock<std::mutex> lk(rebalance_mu_);
  const auto interval =
      std::chrono::milliseconds(options_.rebalance_interval_ms);
  while (!rebalance_stop_) {
    rebalance_cv_.wait_for(lk, interval, [this] { return rebalance_stop_; });
    if (rebalance_stop_) break;
    lk.unlock();
    RebalanceOnce();
    lk.lock();
  }
}

void ShardedSystem::RebalanceOnce() {
  const size_t n = shards_.size();
  if (n < 2) return;
  std::vector<uint64_t> delta(n, 0);
  uint64_t total = 0;
  for (size_t s = 0; s < n; ++s) {
    uint64_t now = shards_[s]->ops->value();
    delta[s] = now - last_shard_ops_[s];
    last_shard_ops_[s] = now;
    total += delta[s];
  }
  auto clear_attribution = [&] {
    for (size_t s = 0; s < n; ++s) DrainAttribution(s, nullptr);
  };
  if (total < kRebalanceMinOps) {  // idle window — never on noise
    hot_streak_ = 0;
    clear_attribution();
    return;
  }
  size_t hot = 0;
  for (size_t s = 1; s < n; ++s) {
    if (delta[s] > delta[hot]) hot = s;
  }
  const double ratio = static_cast<double>(delta[hot]) / total;
  if (ratio < kRebalanceHotRatio) {
    hot_streak_ = 0;
    clear_attribution();
    return;
  }
  if (++hot_streak_ < 2) {
    // Hysteresis: one hot window can be a blip. Reset the attribution so a
    // second hot window is judged on fresh numbers.
    clear_attribution();
    return;
  }
  // Two consecutive hot windows — pick a victim from the hot shard's
  // per-project attribution.
  std::vector<std::pair<uint64_t, uint64_t>> attributed;  // (ops, global)
  {
    std::unordered_map<uint64_t, uint64_t> hot_ops;
    DrainAttribution(hot, &hot_ops);
    attributed.reserve(hot_ops.size());
    for (const auto& [global, ops] : hot_ops) {
      attributed.emplace_back(ops, global);
    }
  }
  for (size_t s = 0; s < n; ++s) {
    if (s != hot) DrainAttribution(s, nullptr);
  }
  hot_streak_ = 0;  // cool-down whether or not the migration lands
  if (attributed.empty()) return;
  std::sort(attributed.begin(), attributed.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  uint64_t attributed_total = 0;
  for (const auto& [ops, global] : attributed) attributed_total += ops;
  // Victim choice: when one project dominates the shard, moving *it* just
  // relocates the hotspot — evacuate the heaviest co-resident instead,
  // isolating the hot project. Otherwise move the heaviest project to the
  // coldest shard.
  size_t victim;
  if (attributed.size() >= 2 && attributed[0].first * 2 >= attributed_total) {
    victim = 1;
  } else {
    uint64_t hosted;
    {
      Shard& shard = *shards_[hot];
      std::lock_guard<std::mutex> lock(shard.mu);
      hosted = shard.system->quality_manager().ProjectCount();
    }
    if (hosted < 2) return;  // a lone project has nowhere better to be
    victim = 0;
  }
  size_t cold = hot == 0 ? 1 : 0;
  for (size_t s = 0; s < n; ++s) {
    if (s != hot && delta[s] < delta[cold]) cold = s;
  }
  // FailedPrecondition (platform tasks in flight) just means "not this
  // window" — the next hot streak retries.
  (void)MigrateProject(static_cast<ProjectId>(attributed[victim].second),
                       cold, attributed[victim].first);
}

}  // namespace itag::core
