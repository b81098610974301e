// Functional (single-threaded) coverage of the sharded core: id encoding,
// per-shard routing, broadcast user registration, cross-shard merges, the
// lock-free published project views and their projected gains, planned
// by the first read of each version, the Quality Manager's per-resource
// quality memo, and the api::Service sharded backend.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "common/random.h"
#include "common/sharding.h"
#include "itag/sharded_system.h"
#include "net_test_scenario.h"
#include "obs/metrics.h"
#include "quality/gain_estimator.h"
#include "quality/quality_model.h"

namespace itag {
namespace {

using core::AcceptedTask;
using core::ControlAction;
using core::PendingSubmission;
using core::ProjectId;
using core::ProjectInfo;
using core::ProjectSpec;
using core::ProviderId;
using core::QualitySnapshot;
using core::ShardedSystem;
using core::ShardedSystemOptions;
using core::TagSubmission;
using core::TaskHandle;
using core::UserTaggerId;

ShardedSystemOptions Opts(size_t shards) {
  ShardedSystemOptions opts;
  opts.num_shards = shards;
  opts.pool_threads = 2;
  return opts;
}

ProjectSpec AudienceSpec(const std::string& name, uint32_t budget) {
  ProjectSpec spec;
  spec.name = name;
  spec.budget = budget;
  spec.platform = core::PlatformChoice::kAudience;
  spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  return spec;
}

/// {prefix0, prefix1, ..., prefix<n-1>}.
std::vector<std::string> Numbered(const std::string& prefix, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

/// Uploads one web resource per uri as one batch; every item must succeed.
void UploadAll(ShardedSystem& sys, ProjectId p,
               const std::vector<std::string>& uris) {
  std::vector<core::ResourceUpload> items;
  for (const std::string& uri : uris) {
    items.push_back({tagging::ResourceKind::kWebUrl, uri, "", {}});
  }
  std::vector<tagging::ResourceId> ids;
  for (const Status& s : sys.UploadResourceBatch(p, items, &ids)) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(ShardingCodecTest, RoundTripsAndNeverYieldsZero) {
  for (size_t n : {1u, 2u, 4u, 7u}) {
    for (uint64_t local = 1; local < 100; ++local) {
      for (size_t s = 0; s < n; ++s) {
        uint64_t global = EncodeShardedId(local, s, n);
        EXPECT_NE(global, 0u);
        EXPECT_EQ(ShardOfId(global, n), s);
        EXPECT_EQ(LocalId(global, n), local);
      }
    }
  }
}

TEST(ShardedSystemTest, BroadcastRegistrationGivesOneIdValidEverywhere) {
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  auto alice = sys.RegisterProvider("alice");
  auto bob = sys.RegisterProvider("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_NE(alice.value(), bob.value());
  auto tagger = sys.RegisterTagger("tom");
  ASSERT_TRUE(tagger.ok());
  // Projects land on different shards, yet every shard recognizes the users.
  for (int i = 0; i < 8; ++i) {
    auto project = sys.CreateProject(
        bob.value(), AudienceSpec("p" + std::to_string(i), 10));
    ASSERT_TRUE(project.ok()) << project.status().ToString();
  }
  EXPECT_TRUE(sys.GetProvider(bob.value()).ok());
  EXPECT_TRUE(sys.GetTagger(tagger.value()).ok());
  EXPECT_TRUE(sys.GetProvider(999).status().IsNotFound());
}

TEST(ShardedSystemTest, ProjectsSpreadAcrossAllShards) {
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  std::set<size_t> used;
  for (int i = 0; i < 8; ++i) {
    ProjectId id =
        sys.CreateProject(provider, AudienceSpec("p", 10)).value();
    used.insert(ShardOfId(id, 4));
  }
  EXPECT_EQ(used.size(), 4u);  // round-robin fills every shard
}

TEST(ShardedSystemTest, FullTaggingRoundTripThroughGlobalIds) {
  ShardedSystem sys(Opts(3));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  // Several projects so at least two live on non-zero shards.
  std::vector<ProjectId> projects;
  for (int i = 0; i < 5; ++i) {
    ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 20)).value();
    UploadAll(sys, p, Numbered("uri-", 3));
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    projects.push_back(p);
  }
  for (ProjectId p : projects) {
    auto tasks = sys.AcceptTasks(tagger, p, 4);
    ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
    ASSERT_EQ(tasks.value().size(), 4u);
    for (const AcceptedTask& task : tasks.value()) {
      EXPECT_EQ(task.project, p);  // global id round-trips
      ASSERT_TRUE(
          sys.SubmitTagsBatch({{tagger, task.handle, {"alpha", "beta"}}})[0]
              .ok());
    }
    // Pending approvals surface global ids.
    std::vector<PendingSubmission> pending = sys.PendingApprovals(p);
    ASSERT_EQ(pending.size(), 4u);
    std::vector<std::pair<TaskHandle, bool>> decisions;
    for (const PendingSubmission& sub : pending) {
      EXPECT_EQ(sub.project, p);
      decisions.emplace_back(sub.handle, true);
    }
    std::vector<Status> statuses = sys.DecideBatch(provider, decisions);
    for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
    auto info = sys.GetProjectInfo(p);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().id, p);
    EXPECT_EQ(info.value().tasks_completed, 4u);
    EXPECT_EQ(info.value().budget_remaining, 16u);
  }
  // Every payment was 5 cents (default pay) per approved task.
  EXPECT_EQ(sys.TotalPaidCents(), 5u * 4u * projects.size());
  auto profile = sys.GetTagger(tagger);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().approved, 4u * projects.size());
  EXPECT_EQ(profile.value().earned_cents, 5u * 4u * projects.size());
}

TEST(ShardedSystemTest, CrossShardBatchesMergeStatusesInInputOrder) {
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  // One accepted task on each of several shards.
  std::vector<AcceptedTask> tasks;
  for (int i = 0; i < 4; ++i) {
    ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 5)).value();
    UploadAll(sys, p, {"u"});
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    tasks.push_back(sys.AcceptTasks(tagger, p, 1).value()[0]);
  }
  // Interleave valid handles with bogus ones; statuses must line up.
  std::vector<TagSubmission> submissions;
  submissions.push_back({tagger, tasks[0].handle, {"a"}});
  submissions.push_back({tagger, 3u, {"a"}});  // local id 0 on shard 3
  submissions.push_back({tagger, tasks[1].handle, {"b"}});
  submissions.push_back({tagger, tasks[2].handle, {"c"}});
  submissions.push_back({tagger, 999999u, {"d"}});  // never issued
  submissions.push_back({tagger, tasks[3].handle, {"e"}});
  std::vector<Status> submitted = sys.SubmitTagsBatch(submissions);
  ASSERT_EQ(submitted.size(), 6u);
  EXPECT_TRUE(submitted[0].ok());
  EXPECT_TRUE(submitted[1].IsNotFound());
  EXPECT_TRUE(submitted[2].ok());
  EXPECT_TRUE(submitted[3].ok());
  EXPECT_TRUE(submitted[4].IsNotFound());
  EXPECT_TRUE(submitted[5].ok());

  std::vector<std::pair<TaskHandle, bool>> decisions = {
      {tasks[3].handle, true}, {123456789u, true},  {tasks[0].handle, false},
      {tasks[1].handle, true}, {tasks[2].handle, true},
  };
  std::vector<Status> decided = sys.DecideBatch(provider, decisions);
  ASSERT_EQ(decided.size(), 5u);
  EXPECT_TRUE(decided[0].ok());
  EXPECT_TRUE(decided[1].IsNotFound());
  EXPECT_TRUE(decided[2].ok());  // rejection is a successful decision
  EXPECT_TRUE(decided[3].ok());
  EXPECT_TRUE(decided[4].ok());
  // 3 approvals at 5 cents, 1 rejection unpaid.
  EXPECT_EQ(sys.TotalPaidCents(), 15u);
}

TEST(ShardedSystemTest, ListingsMergeAcrossShardsWithGlobalIds) {
  ShardedSystem sys(Opts(3));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId a = sys.RegisterProvider("a").value();
  ProviderId b = sys.RegisterProvider("b").value();
  std::set<ProjectId> a_projects;
  for (int i = 0; i < 6; ++i) {
    ProjectId p = sys.CreateProject(a, AudienceSpec("pa", 10)).value();
    UploadAll(sys, p, {"u"});
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    a_projects.insert(p);
  }
  (void)sys.CreateProject(b, AudienceSpec("pb", 10)).value();
  std::vector<ProjectInfo> mine = sys.ListProjects(a);
  ASSERT_EQ(mine.size(), 6u);
  for (const ProjectInfo& info : mine) {
    EXPECT_TRUE(a_projects.count(info.id)) << info.id;
  }
  // b's project is Draft (no resources, not started): not open.
  EXPECT_EQ(sys.ListOpenProjects().size(), 6u);
}

TEST(ShardedSystemTest, PeekQualityTracksProjectWithoutShardLock) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  UserTaggerId tagger = sys.RegisterTagger("t").value();
  ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 10)).value();
  EXPECT_TRUE(sys.PeekQuality(0).status().IsNotFound());
  auto snap0 = sys.PeekQuality(p);
  ASSERT_TRUE(snap0.ok());
  EXPECT_EQ(snap0.value().project, p);
  EXPECT_EQ(snap0.value().state, core::ProjectState::kDraft);
  EXPECT_EQ(snap0.value().budget_remaining, 10u);

  std::vector<tagging::ResourceId> ids;
  ASSERT_TRUE(
      sys.UploadResourceBatch(
             p, {{tagging::ResourceKind::kWebUrl, "u", "", {}}}, &ids)[0]
          .ok());
  // Imported provider tags move the corpus quality; the lock-free snapshot
  // must follow without any other mutation happening (regression: stale
  // PeekQuality after ImportPost).
  ASSERT_TRUE(sys.ImportPost(p, ids[0], {"seed", "tags"}).ok());
  EXPECT_DOUBLE_EQ(sys.PeekQuality(p).value().quality,
                   sys.GetProjectInfo(p).value().quality);
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  AcceptedTask task = sys.AcceptTasks(tagger, p, 1).value()[0];
  ASSERT_TRUE(sys.SubmitTagsBatch({{tagger, task.handle, {"x"}}})[0].ok());
  ASSERT_TRUE(sys.DecideBatch(provider, {{task.handle, true}})[0].ok());

  auto snap1 = sys.PeekQuality(p);
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ(snap1.value().state, core::ProjectState::kRunning);
  EXPECT_EQ(snap1.value().budget_remaining, 9u);
  EXPECT_EQ(snap1.value().tasks_completed, 1u);
  EXPECT_GT(snap1.value().version, snap0.value().version);
  // Snapshot agrees with the locked read path.
  auto info = sys.GetProjectInfo(p);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(snap1.value().tasks_completed, info.value().tasks_completed);
  EXPECT_DOUBLE_EQ(snap1.value().quality, info.value().quality);

  core::ShardStats stats = sys.StatsOf(ShardOfId(p, 2));
  EXPECT_EQ(stats.projects, 1u);
  EXPECT_EQ(stats.tasks_accepted, 1u);
  EXPECT_EQ(stats.payments, 1u);
  EXPECT_EQ(stats.paid_cents, 5u);
}

TEST(ShardedSystemTest, StepPumpsPlatformProjectsOnEveryShard) {
  ShardedSystemOptions opts = Opts(3);
  ShardedSystem sys(opts);
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  std::vector<ProjectId> projects;
  for (int i = 0; i < 3; ++i) {
    ProjectSpec spec;
    spec.name = "mturk-" + std::to_string(i);
    spec.budget = 40;
    spec.platform = core::PlatformChoice::kMTurk;
    ProjectId p = sys.CreateProject(provider, spec).value();
    UploadAll(sys, p, Numbered("u", 4));
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    projects.push_back(p);
  }
  ASSERT_TRUE(sys.Step(400).ok());
  EXPECT_EQ(sys.Now(), 400);
  for (ProjectId p : projects) {
    auto info = sys.GetProjectInfo(p);
    ASSERT_TRUE(info.ok());
    EXPECT_GT(info.value().tasks_completed, 0u)
        << "project " << p << " never pumped";
    // The snapshot path saw the Step too.
    EXPECT_EQ(sys.PeekQuality(p).value().tasks_completed,
              info.value().tasks_completed);
  }
  EXPECT_GT(sys.TotalPaidCents(), 0u);
}

TEST(ShardedSystemTest, ApprovalPolicySeesGlobalIds) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  ProjectSpec spec;
  spec.name = "m";
  spec.budget = 30;
  spec.platform = core::PlatformChoice::kMTurk;
  ProjectId p = sys.CreateProject(provider, spec).value();
  UploadAll(sys, p, {"u"});
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  std::vector<ProjectId> seen;
  sys.SetApprovalPolicy(provider, [&](const PendingSubmission& sub) {
    seen.push_back(sub.project);
    return true;
  });
  ASSERT_TRUE(sys.Step(200).ok());
  ASSERT_FALSE(seen.empty());
  for (ProjectId id : seen) EXPECT_EQ(id, p);
}

// ------------------------------------------------------------- migration

/// Everything a provider can observe about one project, plus the global
/// money/tagger totals — the yardstick for "migration changed nothing".
/// Doubles are compared bit-exactly: the engine RNG travels in the bundle,
/// so a migrated project must evolve identically to one that never moved.
struct ProjectFingerprint {
  ProjectInfo info;
  std::vector<core::QualityPoint> feed;
  std::vector<core::QualityManager::ResourceDetail> details;
  uint64_t paid_cents = 0;
  core::TaggerProfile tagger;
};

ProjectFingerprint FingerprintOf(ShardedSystem& sys, ProjectId project,
                                 UserTaggerId tagger) {
  ProjectFingerprint fp;
  auto info = sys.GetProjectInfo(project);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (info.ok()) fp.info = info.value();
  fp.feed = sys.QualityFeed(project);
  for (size_t r = 0; r < fp.info.num_resources; ++r) {
    auto detail = sys.GetResourceDetail(project, r);
    EXPECT_TRUE(detail.ok()) << detail.status().ToString();
    if (detail.ok()) fp.details.push_back(detail.value());
  }
  fp.paid_cents = sys.TotalPaidCents();
  auto profile = sys.GetTagger(tagger);
  EXPECT_TRUE(profile.ok());
  if (profile.ok()) fp.tagger = profile.value();
  return fp;
}

void ExpectSameFingerprint(const ProjectFingerprint& a,
                           const ProjectFingerprint& b) {
  EXPECT_EQ(a.info.id, b.info.id);
  EXPECT_EQ(static_cast<int>(a.info.state), static_cast<int>(b.info.state));
  EXPECT_EQ(a.info.budget_remaining, b.info.budget_remaining);
  EXPECT_EQ(a.info.tasks_completed, b.info.tasks_completed);
  EXPECT_EQ(a.info.num_resources, b.info.num_resources);
  EXPECT_EQ(a.info.quality, b.info.quality);
  EXPECT_EQ(a.info.projected_gain, b.info.projected_gain);
  ASSERT_EQ(a.feed.size(), b.feed.size());
  for (size_t i = 0; i < a.feed.size(); ++i) {
    EXPECT_EQ(a.feed[i].tasks, b.feed[i].tasks) << "feed point " << i;
    EXPECT_EQ(a.feed[i].quality, b.feed[i].quality) << "feed point " << i;
  }
  ASSERT_EQ(a.details.size(), b.details.size());
  for (size_t i = 0; i < a.details.size(); ++i) {
    EXPECT_EQ(a.details[i].posts, b.details[i].posts) << "resource " << i;
    EXPECT_EQ(a.details[i].quality, b.details[i].quality) << "resource " << i;
    EXPECT_EQ(a.details[i].stopped, b.details[i].stopped) << "resource " << i;
  }
  EXPECT_EQ(a.paid_cents, b.paid_cents);
  EXPECT_EQ(a.tagger.approved, b.tagger.approved);
  EXPECT_EQ(a.tagger.earned_cents, b.tagger.earned_cents);
}

TEST(ShardedMigrationTest, ValidatesArguments) {
  ShardedSystem sys(Opts(3));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 5)).value();
  EXPECT_TRUE(sys.MigrateProject(p, 7).IsInvalidArgument());
  EXPECT_TRUE(sys.MigrateProject(0, 1).IsNotFound());
  EXPECT_TRUE(sys.MigrateProject(999999, 1).IsNotFound());
  // Migrating to the current shard is a no-op, not an error.
  uint64_t v0 = sys.placement_version();
  EXPECT_TRUE(sys.MigrateProject(p, ShardOfId(p, 3)).ok());
  EXPECT_EQ(sys.placement_version(), v0);
}

TEST(ShardedMigrationTest, ProjectKeepsIdAndHandlesAcrossMoves) {
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  // Eight projects, two per shard; p = the first one (shard 0).
  std::vector<ProjectId> projects;
  for (int i = 0; i < 8; ++i) {
    projects.push_back(
        sys.CreateProject(provider, AudienceSpec("p" + std::to_string(i), 20))
            .value());
  }
  ProjectId p = projects[0];
  ASSERT_EQ(ShardOfId(p, 4), 0u);
  UploadAll(sys, p, Numbered("u", 3));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  auto tasks = sys.AcceptTasks(tagger, p, 4);
  ASSERT_TRUE(tasks.ok());
  // Two submitted (pending approval), two still only accepted.
  ASSERT_TRUE(
      sys.SubmitTagsBatch({{tagger, tasks.value()[0].handle, {"a"}}})[0].ok());
  ASSERT_TRUE(
      sys.SubmitTagsBatch({{tagger, tasks.value()[1].handle, {"b"}}})[0].ok());
  ProjectInfo before = sys.GetProjectInfo(p).value();

  uint64_t v0 = sys.placement_version();
  ASSERT_TRUE(sys.MigrateProject(p, 2).ok());
  EXPECT_EQ(sys.placement_version(), v0 + 1);

  // Same global id everywhere; state carried over verbatim.
  ProjectInfo after = sys.GetProjectInfo(p).value();
  EXPECT_EQ(after.id, p);
  EXPECT_EQ(after.budget_remaining, before.budget_remaining);
  EXPECT_EQ(after.tasks_completed, before.tasks_completed);
  EXPECT_EQ(after.num_resources, before.num_resources);
  EXPECT_EQ(after.quality, before.quality);
  EXPECT_EQ(sys.PeekQuality(p).value().project, p);
  // Shard accounting followed the project.
  EXPECT_EQ(sys.StatsOf(0).projects, 1u);
  EXPECT_EQ(sys.StatsOf(2).projects, 3u);
  // Listings still show the project exactly once, under its original id.
  size_t seen = 0;
  for (const ProjectInfo& info : sys.ListProjects(provider)) {
    if (info.id == p) ++seen;
  }
  EXPECT_EQ(seen, 1u);

  // Old handles keep working through the handle-translation table: the two
  // accepted-but-unsubmitted tasks submit, and all four decide, by the
  // handles issued before the move.
  ASSERT_TRUE(
      sys.SubmitTagsBatch({{tagger, tasks.value()[2].handle, {"c"}}})[0].ok());
  ASSERT_TRUE(
      sys.SubmitTagsBatch({{tagger, tasks.value()[3].handle, {"d"}}})[0].ok());
  std::vector<PendingSubmission> pending = sys.PendingApprovals(p);
  ASSERT_EQ(pending.size(), 4u);
  for (const PendingSubmission& sub : pending) EXPECT_EQ(sub.project, p);
  for (const AcceptedTask& task : tasks.value()) {
    EXPECT_TRUE(sys.DecideBatch(provider, {{task.handle, true}})[0].ok());
  }
  EXPECT_EQ(sys.GetProjectInfo(p).value().tasks_completed, 4u);
  EXPECT_EQ(sys.TotalPaidCents(), 4u * 5u);

  // Re-migration: a handle minted *between* the two moves still resolves
  // (chains collapse to one hop), and the codec alias of the slot the
  // project vacated doesn't leak a foreign project.
  AcceptedTask mid = sys.AcceptTasks(tagger, p, 1).value()[0];
  EXPECT_EQ(mid.project, p);
  ASSERT_TRUE(sys.MigrateProject(p, 1).ok());
  ASSERT_TRUE(sys.SubmitTagsBatch({{tagger, mid.handle, {"e"}}})[0].ok());
  EXPECT_TRUE(sys.DecideBatch(provider, {{mid.handle, false}})[0].ok());
  EXPECT_EQ(sys.GetProjectInfo(p).value().tasks_completed, 4u);
  // New work on the migrated project routes cleanly.
  AcceptedTask fresh = sys.AcceptTasks(tagger, p, 1).value()[0];
  EXPECT_EQ(fresh.project, p);
  ASSERT_TRUE(sys.SubmitTagsBatch({{tagger, fresh.handle, {"f"}}})[0].ok());
  EXPECT_TRUE(sys.DecideBatch(provider, {{fresh.handle, true}})[0].ok());
  EXPECT_EQ(sys.TotalPaidCents(), 5u * 5u);
}

// A project's past payments stay in the totals of the shard that paid
// them, like its payment count: a migration with two accepted and two
// submitted tasks moves no payment total, and the tasks decided after it
// are paid by the destination.
TEST(ShardedMigrationTest, PastPaymentsStayWithTheShardThatPaidThem) {
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 20)).value();
  ASSERT_EQ(ShardOfId(p, 4), 0u);
  UploadAll(sys, p, Numbered("u", 4));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  std::vector<AcceptedTask> paid = sys.AcceptTasks(tagger, p, 3).value();
  for (const AcceptedTask& task : paid) {
    ASSERT_TRUE(sys.SubmitTagsBatch({{tagger, task.handle, {"x"}}})[0].ok());
    ASSERT_TRUE(sys.DecideBatch(provider, {{task.handle, true}})[0].ok());
  }
  std::vector<AcceptedTask> open = sys.AcceptTasks(tagger, p, 4).value();
  ASSERT_EQ(open.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(sys.SubmitTagsBatch(
                       {{tagger, open[i].handle, {"s" + std::to_string(i)}}})[0]
                    .ok());
  }
  const core::ShardStats source = sys.StatsOf(0);
  EXPECT_EQ(source.payments, 3u);
  EXPECT_EQ(source.paid_cents, 15u);
  const uint64_t total = sys.TotalPaidCents();

  ASSERT_TRUE(sys.MigrateProject(p, 2).ok());
  EXPECT_EQ(sys.StatsOf(0).payments, source.payments);
  EXPECT_EQ(sys.StatsOf(0).paid_cents, source.paid_cents);
  EXPECT_EQ(sys.StatsOf(2).payments, 0u);
  EXPECT_EQ(sys.StatsOf(2).paid_cents, 0u);
  EXPECT_EQ(sys.TotalPaidCents(), total);
  std::vector<PendingSubmission> pending = sys.PendingApprovals(p);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].tags, std::vector<std::string>{"s0"});
  EXPECT_EQ(pending[1].tags, std::vector<std::string>{"s1"});

  // The open tasks finish on the destination, by their pre-move handles.
  for (size_t i = 2; i < 4; ++i) {
    ASSERT_TRUE(
        sys.SubmitTagsBatch({{tagger, open[i].handle, {"late"}}})[0].ok());
  }
  for (const AcceptedTask& task : open) {
    EXPECT_TRUE(sys.DecideBatch(provider, {{task.handle, true}})[0].ok());
  }
  EXPECT_EQ(sys.StatsOf(0).paid_cents, source.paid_cents);
  EXPECT_EQ(sys.StatsOf(2).payments, 4u);
  EXPECT_EQ(sys.StatsOf(2).paid_cents, 20u);
  EXPECT_EQ(sys.TotalPaidCents(), total + 20u);
  EXPECT_EQ(sys.GetTagger(tagger).value().earned_cents, 35u);
}

TEST(ShardedMigrationTest, MigrationIsEquivalentToNoMigrationReplay) {
  // The same deterministic script, with and without a mid-script migration
  // (injected while two submissions sit undecided); every observable must
  // be bit-identical — the engine RNG and all quality state travel in the
  // bundle.
  auto run = [](bool migrate_mid) {
    ShardedSystem sys(Opts(4));
    EXPECT_TRUE(sys.Init().ok());
    ProviderId provider = sys.RegisterProvider("prov").value();
    UserTaggerId tagger = sys.RegisterTagger("tag").value();
    ProjectId p = sys.CreateProject(provider, AudienceSpec("p", 30)).value();
    UploadAll(sys, p, Numbered("u", 4));
    EXPECT_TRUE(sys.ImportPost(p, 0, {"seed", "alpha"}).ok());
    EXPECT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    for (int round = 0; round < 3; ++round) {
      auto tasks = sys.AcceptTasks(tagger, p, 3);
      EXPECT_TRUE(tasks.ok());
      for (size_t i = 0; i < tasks.value().size(); ++i) {
        EXPECT_TRUE(sys.SubmitTagsBatch({{tagger,
                                          tasks.value()[i].handle,
                                          {"t" + std::to_string(round),
                                           "common"}}})[0]
                        .ok());
      }
      if (migrate_mid && round == 1) {
        EXPECT_TRUE(sys.MigrateProject(p, 3).ok());
      }
      // Decide via the pre-captured (possibly pre-migration) handles.
      for (size_t i = 0; i < tasks.value().size(); ++i) {
        EXPECT_TRUE(
            sys.DecideBatch(provider, {{tasks.value()[i].handle, i != 1}})[0]
                .ok());
      }
    }
    return FingerprintOf(sys, p, tagger);
  };
  ProjectFingerprint baseline = run(false);
  ProjectFingerprint migrated = run(true);
  ExpectSameFingerprint(baseline, migrated);
}

TEST(ShardedMigrationTest, ConcurrentTrafficDuringMigrationMatchesReplay) {
  // Hammer one-item accept/submit/decide batches + project queries while
  // the project bounces between shards; record which ops succeeded, then
  // replay exactly those ops on a migration-free system. Failed routes (NotFound/Aborted) are
  // side-effect-free by contract, so the two worlds must end bit-identical.
  constexpr int kOps = 48;
  ShardedSystem sys(Opts(4));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, AudienceSpec("hot", 100)).value();
  UploadAll(sys, p, Numbered("u", 3));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto info = sys.GetProjectInfo(p);
      EXPECT_TRUE(info.ok()) << info.status().ToString();
      if (info.ok()) {
        EXPECT_EQ(info.value().id, p);
      }
      auto snap = sys.PeekQuality(p);
      EXPECT_TRUE(snap.ok()) << snap.status().ToString();
      if (snap.ok()) {
        EXPECT_EQ(snap.value().project, p);
      }
    }
  });
  std::thread migrator([&] {
    size_t to = 1;
    while (!stop.load(std::memory_order_acquire)) {
      Status st = sys.MigrateProject(p, to % 4);
      EXPECT_TRUE(st.ok() || st.IsNotFound() || st.IsAborted())
          << st.ToString();
      ++to;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The writer records each op's outcome; handles are referenced by accept
  // index so the replay can use its own handle values.
  struct OpLog {
    bool accepted = false;
    bool submitted = false;
    bool decided = false;
    bool approve = false;
  };
  std::vector<OpLog> ops(kOps);
  {
    std::vector<TaskHandle> handles(kOps, 0);
    for (int i = 0; i < kOps; ++i) {
      auto task = sys.AcceptTasks(tagger, p, 1);
      EXPECT_TRUE(task.ok() || task.status().IsNotFound() ||
                  task.status().IsAborted())
          << task.status().ToString();
      if (!task.ok()) continue;
      ops[i].accepted = true;
      handles[i] = task.value()[0].handle;
      Status submitted = sys.SubmitTagsBatch(
          {{tagger, handles[i], {"w" + std::to_string(i % 5)}}})[0];
      EXPECT_TRUE(submitted.ok() || submitted.IsNotFound() ||
                  submitted.IsAborted())
          << submitted.ToString();
      if (!submitted.ok()) continue;
      ops[i].submitted = true;
      ops[i].approve = (i % 3) != 0;
      Status decided =
          sys.DecideBatch(provider, {{handles[i], ops[i].approve}})[0];
      EXPECT_TRUE(decided.ok() || decided.IsNotFound() || decided.IsAborted())
          << decided.ToString();
      ops[i].decided = decided.ok();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  migrator.join();

  // Park the project on its home shard so fingerprints come from a settled
  // system, then replay the successful ops on a migration-free twin.
  ASSERT_TRUE(sys.MigrateProject(p, ShardOfId(p, 4)).ok());
  ProjectFingerprint hammered = FingerprintOf(sys, p, tagger);

  ShardedSystem replay(Opts(4));
  ASSERT_TRUE(replay.Init().ok());
  ProviderId rprovider = replay.RegisterProvider("prov").value();
  UserTaggerId rtagger = replay.RegisterTagger("tag").value();
  ProjectId rp =
      replay.CreateProject(rprovider, AudienceSpec("hot", 100)).value();
  ASSERT_EQ(rp, p);
  UploadAll(replay, rp, Numbered("u", 3));
  ASSERT_TRUE(replay.ControlBatch(rp, {{ControlAction::kStart}})[0].ok());
  for (int i = 0; i < kOps; ++i) {
    if (!ops[i].accepted) continue;
    auto task = replay.AcceptTasks(rtagger, rp, 1);
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    TaskHandle handle = task.value()[0].handle;
    if (!ops[i].submitted) continue;
    ASSERT_TRUE(replay
                    .SubmitTagsBatch(
                        {{rtagger, handle, {"w" + std::to_string(i % 5)}}})[0]
                    .ok());
    if (!ops[i].decided) continue;
    ASSERT_TRUE(
        replay.DecideBatch(rprovider, {{handle, ops[i].approve}})[0].ok());
  }
  ProjectFingerprint replayed = FingerprintOf(replay, rp, rtagger);
  ExpectSameFingerprint(replayed, hammered);
}

TEST(ShardedMigrationTest, RebalancerMovesLoadOffTheHotShard) {
  ShardedSystemOptions opts = Opts(4);
  opts.rebalance_interval_ms = 20;
  ShardedSystem sys(opts);
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  std::vector<ProjectId> projects;
  for (int i = 0; i < 8; ++i) {
    projects.push_back(
        sys.CreateProject(provider, AudienceSpec("p" + std::to_string(i), 10))
            .value());
  }
  obs::Counter* migrations =
      obs::MetricsRegistry::Default().GetCounter("core.rebalance.migrations");
  uint64_t migrations0 = migrations->value();
  // Hammer shard 0's two residents (heavily skewed toward the first) until
  // the rebalancer reacts; every other shard stays near-idle.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (migrations->value() == migrations0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      (void)sys.GetProjectInfo(projects[0]);
      if (i % 8 == 0) (void)sys.GetProjectInfo(projects[4]);
    }
  }
  EXPECT_GT(migrations->value(), migrations0)
      << "rebalancer never reacted to a 4x-skewed shard";
  // The system stayed coherent through the autonomous move: both residents
  // still resolve under their original ids, exactly one copy each.
  for (ProjectId p : {projects[0], projects[4]}) {
    auto info = sys.GetProjectInfo(p);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().id, p);
  }
  size_t hosted = 0;
  for (size_t s = 0; s < 4; ++s) hosted += sys.StatsOf(s).projects;
  EXPECT_EQ(hosted, 8u);
}

TEST(ShardedServiceTest, EndpointsRouteThroughShardedBackend) {
  api::Service service(Opts(4));
  ASSERT_TRUE(service.Init().ok());
  ASSERT_NE(service.sharded(), nullptr);

  ProviderId provider = service.RegisterProvider({"alice"}).provider;
  UserTaggerId tagger = service.RegisterTagger({"tom"}).tagger;
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec = AudienceSpec("photos", 50);
  auto created = service.CreateProject(create);
  ASSERT_TRUE(created.status.ok());
  ProjectId project = created.project;

  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int i = 0; i < 4; ++i) {
    api::UploadResourceItem item;
    item.uri = "img-" + std::to_string(i);
    if (i == 0) item.initial_tags = {"seed", "tag"};
    upload.items.push_back(std::move(item));
  }
  upload.items.push_back({});  // empty uri → per-item failure
  auto uploaded = service.BatchUploadResources(upload);
  EXPECT_EQ(uploaded.outcome.ok_count, 4u);
  EXPECT_TRUE(uploaded.outcome.statuses.back().IsInvalidArgument());

  auto controlled = service.BatchControl(
      {project, {{api::ControlAction::kStart}}});
  EXPECT_TRUE(controlled.outcome.all_ok());

  auto accepted = service.BatchAcceptTasks({tagger, project, 8});
  ASSERT_TRUE(accepted.status.ok());
  ASSERT_EQ(accepted.tasks.size(), 8u);

  api::BatchSubmitTagsRequest submit;
  api::BatchDecideRequest decide;
  decide.provider = provider;
  for (const AcceptedTask& task : accepted.tasks) {
    submit.items.push_back({tagger, task.handle, {"sea", "sun"}});
    decide.items.push_back({task.handle, true});
  }
  EXPECT_TRUE(service.BatchSubmitTags(submit).outcome.all_ok());
  EXPECT_TRUE(service.BatchDecide(decide).outcome.all_ok());

  auto snap = service.ProjectQuery({project, true, {0}});
  ASSERT_TRUE(snap.status.ok());
  EXPECT_EQ(snap.info.id, project);
  EXPECT_EQ(snap.info.tasks_completed, 8u);
  EXPECT_FALSE(snap.feed.empty());
  ASSERT_EQ(snap.details.size(), 1u);

  // Dispatch routes the variant exactly like the typed endpoints.
  api::AnyResponse any = service.Dispatch(api::StepRequest{10});
  auto* step = std::get_if<api::StepResponse>(&any);
  ASSERT_NE(step, nullptr);
  EXPECT_TRUE(step->status.ok());
  EXPECT_EQ(step->now, 10);
}

TEST(ShardedServiceTest, AdmissionControlThrottlesPerProject) {
  api::Service service(Opts(2));
  ASSERT_TRUE(service.Init().ok());
  service.SetAdmissionLimit(8);

  core::ProviderId provider = service.RegisterProvider({"p"}).provider;
  UserTaggerId tagger = service.RegisterTagger({"t"}).tagger;
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec = AudienceSpec("limited", 50);
  ProjectId project = service.CreateProject(create).project;
  create.spec = AudienceSpec("bystander", 50);
  ProjectId other = service.CreateProject(create).project;

  // 3 uploads + 1 control verb + 4 accepted tasks exhaust the 8-unit
  // bucket exactly.
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int i = 0; i < 3; ++i) {
    upload.items.push_back(
        {tagging::ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
  }
  ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
  ASSERT_TRUE(
      service.BatchControl({project, {{api::ControlAction::kStart}}})
          .outcome.all_ok());
  auto accepted = service.BatchAcceptTasks({tagger, project, 4});
  ASSERT_TRUE(accepted.status.ok());
  ASSERT_EQ(accepted.tasks.size(), 4u);

  // The bucket is empty: whole-call endpoints fail typed...
  EXPECT_TRUE(service.BatchAcceptTasks({tagger, project, 1})
                  .status.IsResourceExhausted());
  EXPECT_TRUE(
      service.ProjectQuery({project, false, {}}).status.IsResourceExhausted());
  // ...and per-item endpoints fail exactly the items past the grant.
  api::BatchUploadResourcesResponse denied =
      service.BatchUploadResources(upload);
  EXPECT_EQ(denied.outcome.ok_count, 0u);
  for (const Status& s : denied.outcome.statuses) {
    EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  }

  // Handle-keyed traffic stays exempt: already-accepted work completes.
  api::BatchSubmitTagsRequest submit;
  api::BatchDecideRequest decide;
  decide.provider = provider;
  for (const AcceptedTask& task : accepted.tasks) {
    submit.items.push_back({tagger, task.handle, {"sea"}});
    decide.items.push_back({task.handle, true});
  }
  EXPECT_TRUE(service.BatchSubmitTags(submit).outcome.all_ok());
  EXPECT_TRUE(service.BatchDecide(decide).outcome.all_ok());

  // Other projects have their own bucket.
  EXPECT_TRUE(service.ProjectQuery({other, false, {}}).status.ok());
}

// ------------------------------------------------------- published views

/// Field-by-field ProjectInfo equality (doubles exactly: the view and the
/// oracle compute them from the same state).
void ExpectSameInfo(const ProjectInfo& got, const ProjectInfo& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.provider, want.provider);
  EXPECT_EQ(got.spec.name, want.spec.name);
  EXPECT_EQ(got.spec.kind, want.spec.kind);
  EXPECT_EQ(got.spec.description, want.spec.description);
  EXPECT_EQ(got.spec.budget, want.spec.budget);
  EXPECT_EQ(got.spec.pay_cents, want.spec.pay_cents);
  EXPECT_EQ(got.spec.platform, want.spec.platform);
  EXPECT_EQ(got.spec.strategy, want.spec.strategy);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.budget_remaining, want.budget_remaining);
  EXPECT_EQ(got.tasks_completed, want.tasks_completed);
  EXPECT_EQ(got.num_resources, want.num_resources);
  EXPECT_EQ(got.quality, want.quality);
  EXPECT_EQ(got.projected_gain, want.projected_gain);
}

class ProjectViewOracleTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, ProjectViewOracleTest,
                         ::testing::Values(size_t{1}, size_t{3}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shard" +
                                  (info.param == 1 ? "" : "s");
                         });

// After every request of the full-coverage script, every project's
// published view equals what its shard's facade computes on the spot (the
// locked path), with local ids translated to global ones, and the listings
// hold exactly the views.
TEST_P(ProjectViewOracleTest, ViewsMatchTheFacadeAfterEveryRequest) {
  const size_t n = GetParam();
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(n);
  api::Service service(Opts(n));
  ASSERT_TRUE(service.Init().ok());
  ShardedSystem& sys = *service.sharded();
  for (size_t step = 0; step < script.size(); ++step) {
    SCOPED_TRACE("after request " + std::to_string(step));
    service.Dispatch(script[step]);
    size_t projects = 0;
    size_t open = 0;
    for (size_t s = 0; s < n; ++s) {
      core::ITagSystem& facade = sys.shard_system(s);
      for (ProjectId local : facade.quality_manager().ProjectIds()) {
        ++projects;
        const ProjectId global = EncodeShardedId(local, s, n);
        ProjectInfo want = facade.GetProjectInfo(local).value();
        want.id = global;
        if (want.state == core::ProjectState::kRunning &&
            want.budget_remaining > 0) {
          ++open;
        }
        Result<std::shared_ptr<const core::ProjectView>> view =
            sys.GetProjectView(global);
        ASSERT_TRUE(view.ok()) << view.status().ToString();
        ExpectSameInfo(view.value()->info(), want);
        const std::vector<core::QualityPoint>& feed = facade.QualityFeed(local);
        const std::vector<core::QualityPoint>& got = *view.value()->feed();
        ASSERT_EQ(got.size(), feed.size());
        for (size_t i = 0; i < feed.size(); ++i) {
          EXPECT_EQ(got[i].tasks, feed[i].tasks);
          EXPECT_EQ(got[i].quality, feed[i].quality);
          EXPECT_EQ(got[i].time, feed[i].time);
        }
      }
    }
    EXPECT_EQ(sys.ListProjects(static_cast<ProviderId>(-1)).size(), projects);
    EXPECT_EQ(sys.ListOpenProjects().size(), open);
  }
}

// ------------------------------------------------------- quality memo

/// Checks the Quality Manager's per-resource quality memo against the
/// unmemoised oracle: QualityModel::CorpusQuality, and PlanProjection over
/// curves freshly built by EmpiricalGainEstimator::Curve. Equality is
/// exact, since the memo must not move a bit of any persisted or published
/// value. Feed points emitted since the previous Check are compared too;
/// the oracle can only be evaluated now, so each project may have emitted
/// at most one in between. Points a project held when first seen (a
/// recovered or adopted feed) are its baseline.
class MemoOracle {
 public:
  void Check(ShardedSystem& sys) {
    for (size_t s = 0; s < sys.num_shards(); ++s) {
      core::ITagSystem& facade = sys.shard_system(s);
      for (ProjectId local : facade.quality_manager().ProjectIds()) {
        SCOPED_TRACE("shard " + std::to_string(s) + " project " +
                     std::to_string(local));
        const tagging::Corpus& corpus =
            *facade.resource_manager().GetCorpus(local);
        std::vector<quality::ProjectionCurve> curves;
        for (tagging::ResourceId r = 0; r < corpus.size(); ++r) {
          curves.push_back(estimator_.Curve(corpus.stats(r)));
        }
        const double quality = model_.CorpusQuality(corpus);
        ProjectInfo info = facade.GetProjectInfo(local).value();
        EXPECT_EQ(info.quality, quality);
        EXPECT_EQ(info.projected_gain,
                  core::PlanProjection(curves, info.budget_remaining).gain);

        const std::vector<core::QualityPoint>& feed = facade.QualityFeed(local);
        auto [seen, first] = feed_sizes_.try_emplace({s, local}, feed.size());
        if (first) continue;
        ASSERT_LE(feed.size(), seen->second + 1);
        if (feed.size() > seen->second) {
          EXPECT_EQ(feed.back().quality, quality);
        }
        seen->second = feed.size();
      }
    }
  }

 private:
  quality::StabilityQuality model_;
  quality::EmpiricalGainEstimator estimator_;
  std::map<std::pair<size_t, ProjectId>, size_t> feed_sizes_;
};

class QualityMemoOracleTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, QualityMemoOracleTest,
                         ::testing::Values(size_t{1}, size_t{3}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shard" +
                                  (info.param == 1 ? "" : "s");
                         });

// After every request of the full-coverage script (uploads with imported
// posts, start, decides, queries, steps, checkpoints), every project's
// quality, projected gain and new feed point equal the oracle's.
TEST_P(QualityMemoOracleTest, MatchesTheUnmemoisedOracleAfterEveryRequest) {
  const size_t n = GetParam();
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(n);
  api::Service service(Opts(n));
  ASSERT_TRUE(service.Init().ok());
  MemoOracle oracle;
  for (size_t step = 0; step < script.size(); ++step) {
    SCOPED_TRACE("after request " + std::to_string(step));
    service.Dispatch(script[step]);
    oracle.Check(*service.sharded());
  }
}

/// A round-robin audience project, so one decide batch touches several
/// resources.
ProjectSpec MemoSpec() {
  ProjectSpec spec = AudienceSpec("memo", 60);
  spec.strategy = strategy::StrategyKind::kRoundRobin;
  return spec;
}

/// Accepts `k` tasks of `p`, submits two tags for each and approves them
/// all in one decide batch.
void ApproveRound(ShardedSystem& sys, ProviderId provider,
                  UserTaggerId tagger, ProjectId p, uint32_t k) {
  Result<std::vector<AcceptedTask>> tasks = sys.AcceptTasks(tagger, p, k);
  ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
  std::vector<TagSubmission> submit;
  std::vector<std::pair<TaskHandle, bool>> decide;
  for (size_t i = 0; i < tasks.value().size(); ++i) {
    const TaskHandle handle = tasks.value()[i].handle;
    submit.push_back({tagger, handle, {"t" + std::to_string(i % 3), "common"}});
    decide.push_back({handle, true});
  }
  for (const Status& s : sys.SubmitTagsBatch(submit)) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  for (const Status& s : sys.DecideBatch(provider, decide)) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// Resources uploaded after Start, with and without imported posts, grow
// the memo; the decide that follows rescores them.
TEST(QualityMemoTest, UploadAfterStartThenDecide) {
  ShardedSystem sys(Opts(1));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
  UploadAll(sys, p, Numbered("u", 3));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  MemoOracle oracle;
  oracle.Check(sys);
  ApproveRound(sys, provider, tagger, p, 6);
  oracle.Check(sys);

  std::vector<tagging::ResourceId> ids;
  for (const Status& s : sys.UploadResourceBatch(
           p,
           {{tagging::ResourceKind::kWebUrl, "late0", "", {}},
            {tagging::ResourceKind::kWebUrl, "late1", "", {"seed", "x"}}},
           &ids)) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  oracle.Check(sys);
  ApproveRound(sys, provider, tagger, p, 5);
  oracle.Check(sys);
  EXPECT_EQ(sys.GetProjectInfo(p).value().num_resources, 5u);
  EXPECT_GT(sys.shard_system(0).resource_manager().GetCorpus(p)->PostCount(
                ids[0]),
            0u);
}

// A migrated project's memo starts empty on the destination and is
// rebuilt from the adopted corpus.
TEST(QualityMemoTest, MigratedProjectAdoptsItsMemo) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
  UploadAll(sys, p, Numbered("u", 4));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ApproveRound(sys, provider, tagger, p, 8);
  MemoOracle oracle;
  oracle.Check(sys);
  ProjectInfo before = sys.GetProjectInfo(p).value();

  ASSERT_TRUE(sys.MigrateProject(p, 1 - ShardOfId(p, 2)).ok());
  oracle.Check(sys);
  ProjectInfo after = sys.GetProjectInfo(p).value();
  EXPECT_EQ(after.quality, before.quality);
  EXPECT_EQ(after.projected_gain, before.projected_gain);
  ApproveRound(sys, provider, tagger, p, 8);
  oracle.Check(sys);
}

// A durable restart recovers the corpus, not the memo; the rebuilt memo
// reports the values the first process did, and keeps tracking new posts.
TEST(QualityMemoTest, DurableRestartRecoversItsMemo) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("itag_memo_restart." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  ShardedSystemOptions opts = Opts(1);
  opts.shard.db.directory = dir;
  ProjectId p = 0;
  ProviderId provider = 0;
  UserTaggerId tagger = 0;
  ProjectInfo before;
  {
    ShardedSystem sys(opts);
    ASSERT_TRUE(sys.Init().ok());
    provider = sys.RegisterProvider("prov").value();
    tagger = sys.RegisterTagger("tag").value();
    p = sys.CreateProject(provider, MemoSpec()).value();
    UploadAll(sys, p, Numbered("u", 4));
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    ApproveRound(sys, provider, tagger, p, 8);
    MemoOracle oracle;
    oracle.Check(sys);
    before = sys.GetProjectInfo(p).value();
  }
  {
    ShardedSystem sys(opts);
    ASSERT_TRUE(sys.Init().ok());
    MemoOracle oracle;
    oracle.Check(sys);
    ProjectInfo after = sys.GetProjectInfo(p).value();
    EXPECT_EQ(after.quality, before.quality);
    EXPECT_EQ(after.projected_gain, before.projected_gain);
    ApproveRound(sys, provider, tagger, p, 8);
    oracle.Check(sys);
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- planning on read

/// Plans made so far in this process (core.projection.plans).
uint64_t Plans() {
  return obs::MetricsRegistry::Default()
      .GetCounter("core.projection.plans")
      ->value();
}

/// The facade's own, eagerly planned info of global project `p`.
ProjectInfo FacadeInfo(ShardedSystem& sys, ProjectId p) {
  const size_t n = sys.num_shards();
  return sys.shard_system(ShardOfId(p, n))
      .quality_manager()
      .GetInfo(static_cast<ProjectId>(LocalId(p, n)))
      .value();
}

// Writes publish unplanned views: uploads, starts and whole
// accept/submit/decide cycles on two shards plan nothing.
TEST(PlanOnReadTest, WriteOnlyScriptPlansNothing) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  const uint64_t plans0 = Plans();
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  std::vector<ProjectId> projects;
  for (int i = 0; i < 2; ++i) {
    ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
    UploadAll(sys, p, Numbered("u", 6));
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    projects.push_back(p);
  }
  for (int round = 0; round < 3; ++round) {
    for (ProjectId p : projects) {
      ApproveRound(sys, provider, tagger, p, 4);
      UploadAll(sys, p, Numbered("r" + std::to_string(round) + "-", 2));
    }
  }
  EXPECT_EQ(Plans() - plans0, 0u);
}

// The first read of a version plans it, through whichever reader comes
// first; later reads of that version, through any reader, plan nothing.
TEST(PlanOnReadTest, EachVersionIsPlannedOnceByItsFirstReader) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
  UploadAll(sys, p, Numbered("u", 5));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ApproveRound(sys, provider, tagger, p, 4);

  const uint64_t plans0 = Plans();
  EXPECT_TRUE(sys.ViewReadPlans(p));
  const double gain = sys.GetProjectInfo(p).value().projected_gain;
  EXPECT_EQ(Plans() - plans0, 1u);
  EXPECT_FALSE(sys.ViewReadPlans(p));
  EXPECT_EQ(sys.PeekQuality(p).value().projected_gain, gain);
  EXPECT_EQ(sys.ListProjects(provider).at(0).projected_gain, gain);
  EXPECT_EQ(sys.ListOpenProjects().at(0).projected_gain, gain);
  EXPECT_EQ(sys.GetProjectView(p).value()->info().projected_gain, gain);
  EXPECT_EQ(Plans() - plans0, 1u);
  EXPECT_EQ(FacadeInfo(sys, p).projected_gain, gain);

  // A new version is unplanned again until it is read.
  ApproveRound(sys, provider, tagger, p, 2);
  const uint64_t plans1 = Plans();
  EXPECT_TRUE(sys.ViewReadPlans(p));
  EXPECT_EQ(Plans() - plans1, 0u);
  const double next = sys.PeekQuality(p).value().projected_gain;
  EXPECT_EQ(Plans() - plans1, 1u);
  EXPECT_EQ(next, FacadeInfo(sys, p).projected_gain);
  EXPECT_FALSE(sys.ViewReadPlans(0));  // no view, nothing to plan
}

// Eight readers racing to the first read of one version make one plan
// between them and all see its gain (run under TSan in CI).
TEST(PlanOnReadTest, ConcurrentFirstReadsPlanOnce) {
  ShardedSystem sys(Opts(1));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
  UploadAll(sys, p, Numbered("u", 40));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ApproveRound(sys, provider, tagger, p, 20);
  ASSERT_TRUE(sys.ViewReadPlans(p));

  constexpr int kReaders = 8;
  const uint64_t plans0 = Plans();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> gains(kReaders, -1.0);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      ++ready;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      gains[static_cast<size_t>(i)] =
          i % 2 == 0 ? sys.PeekQuality(p).value().projected_gain
                     : sys.GetProjectInfo(p).value().projected_gain;
    });
  }
  while (ready.load() < kReaders) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(Plans() - plans0, 1u);
  const double want = FacadeInfo(sys, p).projected_gain;
  EXPECT_GT(want, 0.0);
  for (double g : gains) EXPECT_EQ(g, want);
}

// A seeded mix of writes and reads on two shards: every version read
// carries the facade's gain for that version, and the views plan each
// version at most once, on its first read.
TEST(PlanOnReadTest, EveryVersionReadHasTheFacadesGain) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  std::vector<ProjectId> projects;
  for (int i = 0; i < 3; ++i) {
    ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
    UploadAll(sys, p, Numbered("u", 4 + i));
    ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    projects.push_back(p);
  }
  Rng rng(27, 1);
  std::map<ProjectId, std::set<uint64_t>> read;  // versions read so far
  size_t reads = 0;
  for (int step = 0; step < 120; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const ProjectId p =
        projects[rng.Uniform(static_cast<uint32_t>(projects.size()))];
    switch (rng.Uniform(5)) {
      case 0:
        ApproveRound(sys, provider, tagger, p, 1 + rng.Uniform(4));
        break;
      case 1:
        UploadAll(sys, p, {"s" + std::to_string(step)});
        break;
      case 2: {
        core::ControlItem add{ControlAction::kAddBudget};
        add.budget_tasks = 3;
        ASSERT_TRUE(sys.ControlBatch(p, {add})[0].ok());
        break;
      }
      default: {
        const uint64_t plans0 = Plans();
        const QualitySnapshot snap = sys.PeekQuality(p).value();
        const bool first = read[p].insert(snap.version).second;
        EXPECT_EQ(Plans() - plans0, first ? 1u : 0u);
        EXPECT_EQ(snap.projected_gain, FacadeInfo(sys, p).projected_gain);
        EXPECT_EQ(sys.GetProjectInfo(p).value().projected_gain,
                  snap.projected_gain);
        ++reads;
        break;
      }
    }
  }
  EXPECT_GT(reads, 30u);
}

// Step's tick loop pumps the running projects in quality order without
// planning them, and the projects it changes are republished unplanned.
TEST(PlanOnReadTest, StepPlansNothing) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("p").value();
  ProjectSpec spec;
  spec.name = "mturk";
  spec.budget = 60;
  spec.platform = core::PlatformChoice::kMTurk;
  ProjectId p = sys.CreateProject(provider, spec).value();
  UploadAll(sys, p, Numbered("u", 5));
  ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  const uint64_t plans0 = Plans();
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(sys.Step(1).ok());
  EXPECT_EQ(Plans() - plans0, 0u);
  EXPECT_GT(sys.PeekQuality(p).value().tasks_completed, 0u);
  EXPECT_EQ(Plans() - plans0, 1u);
}

/// Six started audience projects on two shards, each with one decided
/// round, every view read once (so planned).
std::vector<ProjectId> SixReadProjects(ShardedSystem& sys) {
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  std::vector<ProjectId> projects;
  for (int i = 0; i < 6; ++i) {
    ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
    UploadAll(sys, p, Numbered("u", 5));
    EXPECT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    ApproveRound(sys, provider, tagger, p, 2);
    EXPECT_GT(sys.PeekQuality(p).value().projected_gain, 0.0);
    projects.push_back(p);
  }
  return projects;
}

// Step(0) changes no project, so it republishes none: reading six
// projects, Step(0), then reading them again makes no plan and moves no
// version.
TEST(PlanOnReadTest, StepZeroKeepsEveryPlannedView) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  std::vector<ProjectId> projects = SixReadProjects(sys);
  std::vector<uint64_t> versions;
  for (ProjectId p : projects) {
    versions.push_back(sys.PeekQuality(p).value().version);
  }
  const uint64_t plans0 = Plans();
  ASSERT_TRUE(sys.Step(0).ok());
  for (size_t i = 0; i < projects.size(); ++i) {
    EXPECT_EQ(sys.PeekQuality(projects[i]).value().version, versions[i]);
    EXPECT_FALSE(sys.ViewReadPlans(projects[i]));
  }
  EXPECT_EQ(Plans() - plans0, 0u);
}

// A Step that advances the clock with no platform project to pump moves
// no view version either.
TEST(PlanOnReadTest, AudienceOnlyStepMovesNoVersion) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  std::vector<ProjectId> projects = SixReadProjects(sys);
  std::vector<uint64_t> versions;
  for (ProjectId p : projects) {
    versions.push_back(sys.GetProjectView(p).value()->version());
  }
  const uint64_t plans0 = Plans();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(sys.Step(1).ok());
  EXPECT_EQ(sys.Now(), 5);
  for (size_t i = 0; i < projects.size(); ++i) {
    EXPECT_EQ(sys.GetProjectView(projects[i]).value()->version(), versions[i]);
  }
  EXPECT_EQ(Plans() - plans0, 0u);
}

// Reopening a checkpointed directory publishes every view unplanned:
// Init, a follower's Reattach of every shard and its Promote plan nothing.
TEST(PlanOnReadTest, RecoveryReattachAndPromotePlanNothing) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("itag_plan_on_read." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  ShardedSystemOptions opts = Opts(2);
  opts.shard.db.directory = dir;
  std::vector<ProjectId> projects;
  std::vector<double> gains;
  {
    ShardedSystem sys(opts);
    ASSERT_TRUE(sys.Init().ok());
    ProviderId provider = sys.RegisterProvider("prov").value();
    UserTaggerId tagger = sys.RegisterTagger("tag").value();
    for (int i = 0; i < 3; ++i) {
      ProjectId p = sys.CreateProject(provider, MemoSpec()).value();
      UploadAll(sys, p, Numbered("u", 5));
      ASSERT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
      ApproveRound(sys, provider, tagger, p, 3);
      projects.push_back(p);
      gains.push_back(sys.GetProjectInfo(p).value().projected_gain);
    }
    ASSERT_TRUE(sys.Checkpoint().ok());
  }
  {
    const uint64_t plans0 = Plans();
    ShardedSystem sys(opts);
    ASSERT_TRUE(sys.Init().ok());
    EXPECT_EQ(Plans() - plans0, 0u);
  }
  {
    ShardedSystemOptions follower = opts;
    follower.read_only = true;
    const uint64_t plans0 = Plans();
    ShardedSystem sys(follower);
    ASSERT_TRUE(sys.Init().ok());
    for (size_t s = 0; s < sys.num_shards(); ++s) {
      ASSERT_TRUE(sys.ReattachShard(s).ok());
    }
    ASSERT_TRUE(sys.Promote().ok());
    EXPECT_EQ(Plans() - plans0, 0u);
    for (size_t i = 0; i < projects.size(); ++i) {
      EXPECT_EQ(sys.PeekQuality(projects[i]).value().projected_gain,
                gains[i]);
    }
    EXPECT_EQ(Plans() - plans0, projects.size());
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- step publication

/// Every project's published view equals what its shard's facade computes
/// on the spot, feed included.
void ExpectViewsMatchFacades(ShardedSystem& sys) {
  const size_t n = sys.num_shards();
  for (size_t s = 0; s < n; ++s) {
    core::ITagSystem& facade = sys.shard_system(s);
    for (ProjectId local : facade.quality_manager().ProjectIds()) {
      const ProjectId global = EncodeShardedId(local, s, n);
      ProjectInfo want = facade.GetProjectInfo(local).value();
      want.id = global;
      Result<std::shared_ptr<const core::ProjectView>> view =
          sys.GetProjectView(global);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      ExpectSameInfo(view.value()->info(), want);
      const std::vector<core::QualityPoint>& feed = facade.QualityFeed(local);
      const std::vector<core::QualityPoint>& got = *view.value()->feed();
      ASSERT_EQ(got.size(), feed.size()) << "project " << global;
      for (size_t i = 0; i < feed.size(); ++i) {
        EXPECT_EQ(got[i].tasks, feed[i].tasks);
        EXPECT_EQ(got[i].quality, feed[i].quality);
        EXPECT_EQ(got[i].time, feed[i].time);
      }
    }
  }
}

// Step republishes only the projects it changed: platform projects that
// drew tasks, had approvals recorded or had a rejection refunded. After
// every Step of a platform script (MTurk, social and audience projects on
// two shards, a policy rejecting every fourth submission, a pause, and a
// 20-task budget that runs out; every seventh Step a Step(0)) each view
// still equals its facade.
TEST(ProjectViewStepOracleTest, ViewsMatchTheFacadeAfterEveryStep) {
  ShardedSystem sys(Opts(2));
  ASSERT_TRUE(sys.Init().ok());
  ProviderId provider = sys.RegisterProvider("prov").value();
  UserTaggerId tagger = sys.RegisterTagger("tag").value();
  auto platform_project = [&](const std::string& name, uint32_t budget,
                              core::PlatformChoice platform, int resources) {
    ProjectSpec spec = AudienceSpec(name, budget);
    spec.platform = platform;
    ProjectId p = sys.CreateProject(provider, spec).value();
    UploadAll(sys, p, Numbered(name, resources));
    EXPECT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    return p;
  };
  const ProjectId turk =
      platform_project("turk", 200, core::PlatformChoice::kMTurk, 5);
  const ProjectId social =
      platform_project("social", 120, core::PlatformChoice::kSocialNetwork, 4);
  const ProjectId small =
      platform_project("small", 20, core::PlatformChoice::kMTurk, 3);
  const ProjectId audience =
      platform_project("aud", 30, core::PlatformChoice::kAudience, 4);
  ApproveRound(sys, provider, tagger, audience, 3);
  ASSERT_TRUE(sys.AcceptTasks(tagger, audience, 2).ok());
  sys.SetApprovalPolicy(provider, [](const PendingSubmission& sub) {
    return sub.handle % 4 != 0;
  });

  bool ran_out = false;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("after step " + std::to_string(step));
    if (step == 100) {
      ASSERT_TRUE(sys.ControlBatch(turk, {{ControlAction::kPause}})[0].ok());
    }
    if (step == 150) {
      ASSERT_TRUE(sys.ControlBatch(turk, {{ControlAction::kStart}})[0].ok());
    }
    ASSERT_TRUE(sys.Step(step % 7 == 6 ? 0 : 1).ok());
    ExpectViewsMatchFacades(sys);
    if (HasFatalFailure()) return;
    ran_out |= sys.GetProjectInfo(small).value().budget_remaining == 0;
  }
  EXPECT_TRUE(ran_out);
  EXPECT_GT(sys.GetProjectInfo(turk).value().tasks_completed, 0u);
  EXPECT_GT(sys.GetProjectInfo(social).value().tasks_completed, 0u);
  EXPECT_GT(sys.GetProvider(provider).value().rejections_given, 0u);
}

}  // namespace
}  // namespace itag
