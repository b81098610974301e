// Durability and crash-recovery of the whole stack (PAPER Fig. 2's "every
// workflow backed by the database"):
//  - restart-equivalence: replaying the shared full-coverage Dispatch
//    script against a durable core with a close-and-reopen injected
//    between every request yields responses bit-identical to an
//    uninterrupted run — at one shard and at three (final inboxes,
//    ledgers, clocks and QualitySnapshots included);
//  - the same property over the wire, with the server torn down and
//    restarted (no checkpoint — WAL-only recovery) mid-script;
//  - torn-tail crash injection: truncating the WAL mid-record recovers to
//    exactly the state after the last complete record, conservation
//    invariants (budget spent + remaining, ledger totals) intact;
//  - a platform-simulator workload (MTurk marketplace driven by Step)
//    resumes bit-equal after restart: worker RNG streams, task records,
//    in-flight windows and the payment ledger all survive.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "itag/itag_system.h"
#include "itag/sharded_system.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "net_test_scenario.h"
#include "obs/metrics.h"

namespace itag {
namespace {

namespace fs = std::filesystem;

using core::ProjectId;
using core::ShardedSystemOptions;

/// Serialized response payload — the bit-equality yardstick (doubles travel
/// as IEEE-754 bit patterns, Status messages included).
std::string Bytes(const api::AnyResponse& resp) {
  return net::EncodeResponsePayload(resp);
}

ShardedSystemOptions DurableOpts(const std::string& dir, size_t shards = 1) {
  ShardedSystemOptions opts;
  opts.num_shards = shards;
  opts.pool_threads = 2;
  opts.shard.db.directory = dir;
  return opts;
}

/// Paged-engine variant: rows live in the page file (storage/pager), with
/// tiny pages and a one-frame cache so the scripts below exercise node
/// splits, overflow chains, and eviction — not just the happy path.
ShardedSystemOptions PagedOpts(const std::string& dir, size_t shards = 1) {
  ShardedSystemOptions opts = DurableOpts(dir, shards);
  opts.shard.db.paged = true;
  opts.shard.db.page_size = 512;
  opts.shard.db.page_cache_mb = 0;  // floored to one frame
  return opts;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test name + pid: gtest_discover_tests registers each TEST as its own
    // ctest entry, so under `ctest -j` several instances of this binary run
    // concurrently — the pid keeps their scratch directories disjoint.
    root_ = (fs::temp_directory_path() /
             ("itag_recovery_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& leaf) { return root_ + "/" + leaf; }

  void ExpectRestartEquivalence(size_t shards);
  void ExpectPagedRestartEquivalence(size_t shards);

  std::string root_;
};

// ---------------------------------------------------------------- helpers

/// Replays `script` on one long-lived service.
std::vector<std::string> ReplayUninterrupted(
    const ShardedSystemOptions& opts,
    const std::vector<api::AnyRequest>& script) {
  api::Service service(opts);
  EXPECT_TRUE(service.Init().ok());
  std::vector<std::string> out;
  out.reserve(script.size());
  for (const api::AnyRequest& req : script) {
    out.push_back(Bytes(service.Dispatch(req)));
  }
  return out;
}

/// Replays `script`, destroying and reopening the whole core (full
/// recovery from storage) before every single request.
std::vector<std::string> ReplayWithReopens(
    const ShardedSystemOptions& opts,
    const std::vector<api::AnyRequest>& script) {
  std::vector<std::string> out;
  out.reserve(script.size());
  for (const api::AnyRequest& req : script) {
    api::Service service(opts);
    EXPECT_TRUE(service.Init().ok());
    out.push_back(Bytes(service.Dispatch(req)));
  }
  return out;
}

void ExpectSameResponses(const std::vector<api::AnyRequest>& script,
                         const std::vector<std::string>& baseline,
                         const std::vector<std::string>& recovered) {
  ASSERT_EQ(baseline.size(), recovered.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i], recovered[i])
        << "request #" << i << " ("
        << api::RequestTypeName(script[i].index())
        << ") diverged after recovery";
  }
}

// ----------------------------------------------- restart equivalence

void RecoveryTest::ExpectRestartEquivalence(size_t shards) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(shards);
  std::vector<std::string> baseline =
      ReplayUninterrupted(DurableOpts(Dir("a"), shards), script);
  std::vector<std::string> recovered =
      ReplayWithReopens(DurableOpts(Dir("b"), shards), script);
  ExpectSameResponses(script, baseline, recovered);

  // Beyond the wire surface: final per-project QualitySnapshots,
  // bit-identical (monitoring works immediately after recovery; `version`
  // counts refreshes since open and is zeroed for the comparison).
  api::Service a(DurableOpts(Dir("a"), shards));
  api::Service b(DurableOpts(Dir("b"), shards));
  ASSERT_TRUE(a.Init().ok());
  std::vector<core::ProjectInfo> projects =
      a.sharded()->ListProjects(static_cast<core::ProviderId>(-1));
  ASSERT_FALSE(projects.empty());
  // Init publishes every project's placement gauge: b's Init sets back the
  // values a's Init published.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  auto gauge = [&registry](ProjectId project) {
    return registry.GetGauge("core.placement.project." +
                             std::to_string(project));
  };
  std::vector<int64_t> placed;
  for (const core::ProjectInfo& info : projects) {
    placed.push_back(gauge(info.id)->value());
    EXPECT_GE(placed.back(), 0);
    EXPECT_LT(placed.back(), static_cast<int64_t>(shards));
    gauge(info.id)->Set(-1);
  }
  ASSERT_TRUE(b.Init().ok());
  for (size_t i = 0; i < projects.size(); ++i) {
    EXPECT_EQ(gauge(projects[i].id)->value(), placed[i]);
  }
  for (const core::ProjectInfo& info : projects) {
    Result<core::QualitySnapshot> sa = a.sharded()->PeekQuality(info.id);
    Result<core::QualitySnapshot> sb = b.sharded()->PeekQuality(info.id);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    core::QualitySnapshot x = sa.value(), y = sb.value();
    x.version = y.version = 0;
    EXPECT_EQ(x.project, y.project);
    EXPECT_EQ(static_cast<int>(x.state), static_cast<int>(y.state));
    EXPECT_EQ(x.quality, y.quality);
    EXPECT_EQ(x.projected_gain, y.projected_gain);
    EXPECT_EQ(x.budget_remaining, y.budget_remaining);
    EXPECT_EQ(x.tasks_completed, y.tasks_completed);
    EXPECT_EQ(x.num_resources, y.num_resources);
  }

  // Notification inboxes, ledgers and clocks line up too: merged across
  // shards, and shard by shard.
  std::vector<core::Notification> na =
      a.sharded()->LatestNotifications(0, 64);
  std::vector<core::Notification> nb =
      b.sharded()->LatestNotifications(0, 64);
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    EXPECT_EQ(static_cast<int>(na[i].kind), static_cast<int>(nb[i].kind));
    EXPECT_EQ(na[i].time, nb[i].time);
    EXPECT_EQ(na[i].project, nb[i].project);
    EXPECT_EQ(na[i].message, nb[i].message);
  }
  EXPECT_EQ(a.sharded()->TotalPaidCents(), b.sharded()->TotalPaidCents());
  EXPECT_EQ(a.sharded()->Now(), b.sharded()->Now());
  for (size_t s = 0; s < shards; ++s) {
    core::ITagSystem& shard_a = a.sharded()->shard_system(s);
    core::ITagSystem& shard_b = b.sharded()->shard_system(s);
    EXPECT_EQ(shard_a.ledger().TotalPaid(), shard_b.ledger().TotalPaid());
    EXPECT_EQ(shard_a.ledger().PaymentCount(),
              shard_b.ledger().PaymentCount());
    EXPECT_EQ(shard_a.clock().Now(), shard_b.clock().Now());
  }

  // The round-robin placement cursor was re-derived: the next create on
  // both systems lands on the same shard (same global id).
  api::CreateProjectRequest create;
  create.provider = 0;
  create.spec.name = "post-recovery";
  create.spec.budget = 5;
  api::CreateProjectResponse ca = a.CreateProject(create);
  api::CreateProjectResponse cb = b.CreateProject(create);
  ASSERT_TRUE(ca.status.ok());
  ASSERT_TRUE(cb.status.ok());
  EXPECT_EQ(ca.project, cb.project);
}

TEST_F(RecoveryTest, RestartEquivalenceSingleSystem) {
  ExpectRestartEquivalence(1);
}

TEST_F(RecoveryTest, RestartEquivalenceShardedSystem) {
  ExpectRestartEquivalence(3);
}

// The full-coverage script through the paged storage path must be
// byte-equal to the in-memory-table path — replaying against the paged
// engine with a close-and-reopen before every request included. This is
// the reopen-equivalence gate for the pager subsystem: any divergence in
// B+tree ordering, row encoding, or recovery shows up as a response diff.
void RecoveryTest::ExpectPagedRestartEquivalence(size_t shards) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(shards);
  std::vector<std::string> baseline =
      ReplayUninterrupted(DurableOpts(Dir("mem"), shards), script);
  std::vector<std::string> paged =
      ReplayUninterrupted(PagedOpts(Dir("paged"), shards), script);
  ExpectSameResponses(script, baseline, paged);
  std::vector<std::string> paged_reopened =
      ReplayWithReopens(PagedOpts(Dir("paged_reopen"), shards), script);
  ExpectSameResponses(script, baseline, paged_reopened);
}

TEST_F(RecoveryTest, RestartEquivalencePagedSingleSystem) {
  ExpectPagedRestartEquivalence(1);
}

TEST_F(RecoveryTest, RestartEquivalencePagedShardedSystem) {
  ExpectPagedRestartEquivalence(3);
}

// A kill-9-shaped restart over the wire: the server process state is
// discarded mid-script with no checkpoint (WAL-only recovery) and a new
// server on the same directories must continue the conversation with
// responses bit-identical to an uninterrupted wire run.
TEST_F(RecoveryTest, RestartEquivalenceOverTheWire) {
  constexpr size_t kShards = 2;
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);

  std::vector<std::string> baseline =
      ReplayUninterrupted(DurableOpts(Dir("a"), kShards), script);

  std::vector<std::string> over_wire;
  size_t cut = script.size() / 2;
  for (size_t segment = 0; segment < 2; ++segment) {
    // Abrupt teardown after the first segment: the Service and backend are
    // destroyed without any checkpoint; only storage survives.
    api::Service served(DurableOpts(Dir("b"), kShards));
    ASSERT_TRUE(served.Init().ok());
    net::Server server(&served);
    ASSERT_TRUE(server.Start().ok());
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    size_t begin = segment == 0 ? 0 : cut;
    size_t end = segment == 0 ? cut : script.size();
    for (size_t i = begin; i < end; ++i) {
      Result<api::AnyResponse> resp = client.Dispatch(script[i]);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      over_wire.push_back(Bytes(resp.value()));
    }
    server.Stop();
  }
  ExpectSameResponses(script, baseline, over_wire);
}

// ------------------------------------------------------- torn WAL tail

/// Byte offsets of every frame boundary in a WAL file (frame = [u32 len]
/// [u32 crc][payload]), including 0 and the file size.
std::vector<uint64_t> WalFrameBoundaries(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<uint64_t> bounds = {0};
  uint64_t off = 0;
  for (;;) {
    uint32_t len = 0, crc = 0;
    in.read(reinterpret_cast<char*>(&len), 4);
    if (in.gcount() < 4) break;
    in.read(reinterpret_cast<char*>(&crc), 4);
    if (in.gcount() < 4) break;
    in.seekg(len, std::ios::cur);
    if (!in) break;
    off += 8 + len;
    bounds.push_back(off);
  }
  return bounds;
}

TEST_F(RecoveryTest, TornWalTailLandsOnLastCompleteRecord) {
  const std::string dir = Dir("db");
  constexpr uint32_t kBudget = 40;
  constexpr uint32_t kPay = 7;

  // Drive an audience workload, fingerprinting the externally visible
  // project state after every API call.
  std::vector<std::string> fingerprints;
  ProjectId project = 0;
  std::string wal;  // the one shard's WAL
  {
    api::Service service(DurableOpts(dir));
    ASSERT_TRUE(service.Init().ok());
    wal = service.sharded()->ReplWalPaths()[0];
    auto fingerprint = [&]() {
      api::ProjectQueryRequest q;
      q.project = project;
      q.include_feed = true;
      fingerprints.push_back(Bytes(service.Dispatch(api::AnyRequest{q})));
    };
    core::ProviderId provider =
        service.RegisterProvider({"prov"}).provider;
    core::UserTaggerId tagger = service.RegisterTagger({"tag"}).tagger;
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "torn";
    create.spec.budget = kBudget;
    create.spec.pay_cents = kPay;
    create.spec.platform = core::PlatformChoice::kAudience;
    project = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = project;
    for (int i = 0; i < 5; ++i) {
      upload.items.push_back(
          {tagging::ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
    }
    ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    ASSERT_TRUE(
        service.BatchControl({project, {{api::ControlAction::kStart, 0, 0, {}}}})
            .outcome.all_ok());
    fingerprint();
    for (int round = 0; round < 4; ++round) {
      api::BatchAcceptTasksResponse accepted =
          service.BatchAcceptTasks({tagger, project, 4});
      ASSERT_TRUE(accepted.status.ok());
      fingerprint();
      api::BatchSubmitTagsRequest submit;
      api::BatchDecideRequest decide;
      decide.provider = provider;
      for (size_t i = 0; i < accepted.tasks.size(); ++i) {
        submit.items.push_back({tagger, accepted.tasks[i].handle,
                                {"t" + std::to_string(i), "common"}});
        decide.items.push_back({accepted.tasks[i].handle, i != 3});
      }
      ASSERT_TRUE(service.BatchSubmitTags(submit).outcome.all_ok());
      fingerprint();
      ASSERT_TRUE(service.BatchDecide(decide).outcome.all_ok());
      fingerprint();
    }
  }

  // Crash injection: chop the WAL mid-way through its LAST record. The
  // last mutating call was a BatchDecide (one atomic batch record), so
  // recovery must land exactly on the state after the preceding
  // BatchSubmitTags — fingerprints[n-2].
  std::vector<uint64_t> bounds = WalFrameBoundaries(wal);
  ASSERT_GE(bounds.size(), 3u);
  uint64_t last_start = bounds[bounds.size() - 2];
  uint64_t size = bounds.back();
  ASSERT_GT(size - last_start, 2u);
  fs::resize_file(wal, last_start + (size - last_start) / 2);

  api::ProjectQueryRequest q;
  q.project = project;
  q.include_feed = true;
  std::string redone;
  {
    api::Service service(DurableOpts(dir));
    ASSERT_TRUE(service.Init().ok());
    EXPECT_EQ(Bytes(service.Dispatch(api::AnyRequest{q})),
              fingerprints[fingerprints.size() - 2])
        << "recovery did not land on the last complete record";

    // Conservation invariants on the recovered state. At the recovered point
    // all 4 tasks of the last round are submitted-but-undecided.
    core::ITagSystem& sys = service.sharded()->shard_system(0);
    Result<core::ProjectInfo> info = sys.GetProjectInfo(project);
    ASSERT_TRUE(info.ok());
    size_t pending = sys.PendingApprovals(project).size();
    EXPECT_EQ(pending, 4u);
    // Budget: every unit is exactly one of {remaining, completed post,
    // awaiting decision} — rejections refunded their unit, so the identity
    // is exact, not an inequality.
    EXPECT_EQ(info.value().budget_remaining + info.value().tasks_completed +
                  pending,
              kBudget);
    // Ledger: internally consistent and exactly one payment per approval.
    EXPECT_EQ(sys.ledger().TotalPaid(),
              static_cast<uint64_t>(info.value().tasks_completed) * kPay);
    EXPECT_EQ(sys.ledger().PaymentCount(), info.value().tasks_completed);
    Result<core::TaggerProfile> tagger_profile = sys.GetTagger(0);
    ASSERT_TRUE(tagger_profile.ok());
    EXPECT_EQ(tagger_profile.value().earned_cents, sys.ledger().TotalPaid());
    EXPECT_EQ(tagger_profile.value().approved, info.value().tasks_completed);
    // Profile rows are written once per call, when it ends; they must sit
    // inside that call's frame. Three rounds were decided (3 approvals and
    // 1 rejection each) and four were submitted.
    EXPECT_EQ(tagger_profile.value().submitted, 16u);
    EXPECT_EQ(tagger_profile.value().rejected, 3u);
    Result<core::ProviderProfile> provider_profile = sys.GetProvider(0);
    ASSERT_TRUE(provider_profile.ok());
    EXPECT_EQ(provider_profile.value().approvals_given, 9u);
    EXPECT_EQ(provider_profile.value().rejections_given, 3u);

    // The torn system keeps serving: the pending batch can be re-decided.
    std::vector<core::PendingSubmission> subs = sys.PendingApprovals(project);
    api::BatchDecideRequest redo;
    redo.provider = 0;
    for (const core::PendingSubmission& sub : subs) {
      redo.items.push_back({sub.handle, true});
    }
    EXPECT_TRUE(service.BatchDecide(redo).outcome.all_ok());
    redone = Bytes(service.Dispatch(api::AnyRequest{q}));
  }

  // The redo was acknowledged after the torn restart, so the next restart
  // must keep it: recovery cut the torn bytes off before appending.
  api::Service restarted(DurableOpts(dir));
  ASSERT_TRUE(restarted.Init().ok());
  EXPECT_EQ(Bytes(restarted.Dispatch(api::AnyRequest{q})), redone)
      << "the redo acknowledged after the torn restart was lost";
}

// ------------------------------------------- platform simulator restart

TEST_F(RecoveryTest, PlatformWorkloadResumesBitEqualAfterRestart) {
  auto build = [&](const std::string& dir) {
    api::Service service(DurableOpts(dir));
    EXPECT_TRUE(service.Init().ok());
    core::ProviderId provider = service.RegisterProvider({"p"}).provider;
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "mturk-run";
    create.spec.budget = 64;
    create.spec.pay_cents = 3;
    create.spec.platform = core::PlatformChoice::kMTurk;
    ProjectId project = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = project;
    for (int i = 0; i < 6; ++i) {
      upload.items.push_back(
          {tagging::ResourceKind::kImage, "img" + std::to_string(i), "", {}});
    }
    EXPECT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    EXPECT_TRUE(
        service.BatchControl({project, {{api::ControlAction::kStart, 0, 0, {}}}})
            .outcome.all_ok());
    return project;
  };

  // Uninterrupted: 4 x Step(15) on one process.
  ProjectId project = build(Dir("a"));
  {
    api::Service service(DurableOpts(Dir("a")));
    ASSERT_TRUE(service.Init().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.Step({15}).status.ok());
    }
  }

  // Interrupted: the same 60 ticks, but the process is torn down and
  // recovered between every Step call.
  ProjectId project_b = build(Dir("b"));
  ASSERT_EQ(project, project_b);
  for (int i = 0; i < 4; ++i) {
    api::Service service(DurableOpts(Dir("b")));
    ASSERT_TRUE(service.Init().ok());
    ASSERT_TRUE(service.Step({15}).status.ok());
  }

  api::Service a(DurableOpts(Dir("a")));
  api::Service b(DurableOpts(Dir("b")));
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  api::ProjectQueryRequest q;
  q.project = project;
  q.include_feed = true;
  for (int i = 0; i < 6; ++i) q.detail_resources.push_back(i);
  EXPECT_EQ(Bytes(a.Dispatch(api::AnyRequest{q})),
            Bytes(b.Dispatch(api::AnyRequest{q})));
  core::ITagSystem& sys_a = a.sharded()->shard_system(0);
  core::ITagSystem& sys_b = b.sharded()->shard_system(0);
  EXPECT_EQ(sys_a.ledger().TotalPaid(), sys_b.ledger().TotalPaid());
  EXPECT_EQ(sys_a.ledger().PaymentCount(), sys_b.ledger().PaymentCount());
  EXPECT_EQ(sys_a.clock().Now(), sys_b.clock().Now());
  // The marketplace itself recovered: same open window, same pending
  // decisions, same per-worker stats for a sample of workers.
  crowd::CrowdPlatform* pa = sys_a.PlatformFor(project);
  crowd::CrowdPlatform* pb = sys_b.PlatformFor(project);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->OpenTaskCount(), pb->OpenTaskCount());
  EXPECT_EQ(pa->PendingDecisionCount(), pb->PendingDecisionCount());
  for (crowd::WorkerId w = 0; w < 8; ++w) {
    Result<crowd::WorkerStats> sa = pa->GetWorkerStats(w);
    Result<crowd::WorkerStats> sb = pb->GetWorkerStats(w);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(sa.value().submitted, sb.value().submitted);
    EXPECT_EQ(sa.value().approved, sb.value().approved);
    EXPECT_EQ(sa.value().rejected, sb.value().rejected);
  }
  // And both worlds keep stepping identically after the comparison.
  ASSERT_TRUE(a.Step({10}).status.ok());
  ASSERT_TRUE(b.Step({10}).status.ok());
  EXPECT_EQ(Bytes(a.Dispatch(api::AnyRequest{q})),
            Bytes(b.Dispatch(api::AnyRequest{q})));
}

// ------------------------------------------------- migration recovery

// A completed migration must be exactly as durable as any other mutation:
// the process is torn down with no checkpoint (kill-9 shape — only the
// WALs survive), and the reopened system must serve the identical project
// state from the *destination* shard, keep honoring pre-migration task
// handles, and survive a second migration + checkpoint + restart with the
// same guarantees (handle chains collapse across moves).
TEST_F(RecoveryTest, ShardedMigrationSurvivesKill9Restart) {
  constexpr size_t kShards = 3;
  constexpr uint32_t kBudget = 12;
  ShardedSystemOptions opts = DurableOpts(Dir("db"), kShards);
  auto spec = [](const std::string& name, uint32_t budget) {
    core::ProjectSpec s;
    s.name = name;
    s.budget = budget;
    s.platform = core::PlatformChoice::kAudience;
    s.strategy = strategy::StrategyKind::kFewestPostsFirst;
    return s;
  };

  core::ProviderId provider = 0;
  core::UserTaggerId tagger = 0;
  ProjectId project = 0;
  std::vector<core::TaskHandle> old_handles;
  api::ProjectQueryRequest q;
  std::string before;
  {
    api::Service service(opts);
    ASSERT_TRUE(service.Init().ok());
    core::ShardedSystem* sys = service.sharded();
    ASSERT_NE(sys, nullptr);
    provider = sys->RegisterProvider("prov").value();
    tagger = sys->RegisterTagger("tag").value();
    project = sys->CreateProject(provider, spec("mover", kBudget)).value();
    ASSERT_EQ(ShardOfId(project, kShards), 0u);
    // Bystanders so shards 1 and 2 aren't empty.
    (void)sys->CreateProject(provider, spec("b1", 5)).value();
    (void)sys->CreateProject(provider, spec("b2", 5)).value();
    std::vector<core::ResourceUpload> uploads;
    for (int r = 0; r < 3; ++r) {
      uploads.push_back(
          {tagging::ResourceKind::kWebUrl, "u" + std::to_string(r), "", {}});
    }
    std::vector<tagging::ResourceId> ids;
    for (const Status& s : sys->UploadResourceBatch(project, uploads, &ids)) {
      ASSERT_TRUE(s.ok());
    }
    ASSERT_TRUE(
        sys->ControlBatch(project, {{core::ControlAction::kStart}})[0].ok());
    auto tasks = sys->AcceptTasks(tagger, project, 4);
    ASSERT_TRUE(tasks.ok());
    for (const core::AcceptedTask& task : tasks.value()) {
      ASSERT_TRUE(
          sys->SubmitTagsBatch({{tagger, task.handle, {"x", "y"}}})[0].ok());
    }
    ASSERT_TRUE(
        sys->DecideBatch(provider, {{tasks.value()[0].handle, true}})[0].ok());
    ASSERT_TRUE(
        sys->DecideBatch(provider, {{tasks.value()[1].handle, false}})[0]
            .ok());
    old_handles = {tasks.value()[2].handle, tasks.value()[3].handle};

    ASSERT_TRUE(sys->MigrateProject(project, 2).ok());
    // Post-migration traffic lands in the destination shard's WAL.
    auto extra = sys->AcceptTasks(tagger, project, 1);
    ASSERT_TRUE(extra.ok());
    ASSERT_TRUE(
        sys->SubmitTagsBatch({{tagger, extra.value()[0].handle, {"late"}}})[0]
            .ok());

    q.project = project;
    q.include_feed = true;
    q.detail_resources = {0, 1, 2};
    before = Bytes(service.Dispatch(api::AnyRequest{q}));
    // Destroyed here without any checkpoint: WAL-only recovery.
  }
  {
    api::Service service(opts);
    ASSERT_TRUE(service.Init().ok());
    core::ShardedSystem* sys = service.sharded();
    EXPECT_EQ(Bytes(service.Dispatch(api::AnyRequest{q})), before)
        << "migrated project state diverged across a kill-9 restart";
    // The placement overlay recovered too: the project is hosted (and
    // counted) on shard 2, its codec home shard is empty.
    EXPECT_EQ(sys->StatsOf(0).projects, 0u);
    EXPECT_EQ(sys->StatsOf(2).projects, 2u);
    // All three undecided submissions survived, and the ones addressed by
    // pre-migration handles are still decidable through the recovered
    // handle-translation table.
    ASSERT_EQ(sys->PendingApprovals(project).size(), 3u);
    ASSERT_TRUE(sys->DecideBatch(provider, {{old_handles[0], true}})[0].ok());
    core::ProjectInfo info = sys->GetProjectInfo(project).value();
    size_t pending = sys->PendingApprovals(project).size();
    EXPECT_EQ(pending, 2u);
    // Budget partition is exact: every unit is remaining, completed, or
    // awaiting decision (rejections were refunded).
    EXPECT_EQ(info.budget_remaining + info.tasks_completed + pending,
              kBudget);

    // Second hop, then a checkpoint and a clean-shutdown reopen.
    ASSERT_TRUE(sys->MigrateProject(project, 1).ok());
    api::CheckpointResponse ck = service.Checkpoint({});
    ASSERT_TRUE(ck.status.ok());
    EXPECT_TRUE(ck.durable);
    before = Bytes(service.Dispatch(api::AnyRequest{q}));
  }
  api::Service service(opts);
  ASSERT_TRUE(service.Init().ok());
  EXPECT_EQ(Bytes(service.Dispatch(api::AnyRequest{q})), before)
      << "second migration diverged across checkpoint + restart";
  EXPECT_EQ(service.sharded()->StatsOf(1).projects, 2u);
  // A handle now two migrations old still resolves in one hop.
  EXPECT_TRUE(
      service.sharded()->DecideBatch(provider, {{old_handles[1], true}})[0]
          .ok());
}

// ----------------------------------------------------- checkpoint paths

TEST_F(RecoveryTest, CheckpointBoundsRecoveryAndSurvivesRestart) {
  const std::string dir = Dir("db");
  ProjectId project = 0;
  {
    api::Service service(DurableOpts(dir));
    ASSERT_TRUE(service.Init().ok());
    core::ProviderId provider = service.RegisterProvider({"p"}).provider;
    core::UserTaggerId tagger = service.RegisterTagger({"t"}).tagger;
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "ckpt";
    create.spec.budget = 10;
    create.spec.platform = core::PlatformChoice::kAudience;
    project = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = project;
    upload.items.push_back({tagging::ResourceKind::kWebUrl, "u", "", {}});
    ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    ASSERT_TRUE(
        service.BatchControl({project, {{api::ControlAction::kStart, 0, 0, {}}}})
            .outcome.all_ok());
    api::CheckpointResponse ck = service.Checkpoint({});
    ASSERT_TRUE(ck.status.ok());
    EXPECT_TRUE(ck.durable);
    EXPECT_GT(ck.tables, 0u);
    EXPECT_GT(ck.rows, 0u);
    // The WAL is truncated; post-checkpoint traffic lands in the fresh WAL.
    EXPECT_EQ(fs::file_size(service.sharded()->ReplWalPaths()[0]), 0u);
    api::BatchAcceptTasksResponse accepted =
        service.BatchAcceptTasks({tagger, project, 2});
    ASSERT_TRUE(accepted.status.ok());
    ASSERT_TRUE(service
                    .BatchSubmitTags({{{tagger, accepted.tasks[0].handle,
                                        {"alpha"}}}})
                    .outcome.all_ok());
  }
  // Snapshot + WAL tail recovery: the accepted task and the pending
  // submission both survive.
  api::Service service(DurableOpts(dir));
  ASSERT_TRUE(service.Init().ok());
  EXPECT_EQ(service.sharded()->PendingApprovals(project).size(), 1u);
  Result<core::ProjectInfo> info = service.sharded()->GetProjectInfo(project);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().budget_remaining, 8u);
  // An in-memory core reports a typed non-durable no-op.
  ShardedSystemOptions in_memory;
  in_memory.num_shards = 1;
  api::Service memory(in_memory);
  ASSERT_TRUE(memory.Init().ok());
  api::CheckpointResponse ck = memory.Checkpoint({});
  EXPECT_TRUE(ck.status.ok());
  EXPECT_FALSE(ck.durable);
}

// The O(1)-restart property at the stack level: after a clean checkpoint a
// paged backend reopens by reading the page-file meta + catalog, replaying
// ZERO WAL frames; a crash replays exactly the post-checkpoint tail.
TEST_F(RecoveryTest, PagedCheckpointBoundsWalReplay) {
  const std::string dir = Dir("db");
  {
    api::Service service(PagedOpts(dir));
    ASSERT_TRUE(service.Init().ok());
    core::ProviderId provider = service.RegisterProvider({"p"}).provider;
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "paged-ckpt";
    create.spec.budget = 10;
    create.spec.platform = core::PlatformChoice::kAudience;
    ProjectId project = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = project;
    for (int i = 0; i < 8; ++i) {
      upload.items.push_back(
          {tagging::ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
    }
    ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    api::CheckpointResponse ck = service.Checkpoint({});
    ASSERT_TRUE(ck.status.ok());
    EXPECT_TRUE(ck.durable);
    EXPECT_EQ(fs::file_size(service.sharded()->ReplWalPaths()[0]), 0u);
  }
  {
    api::Service service(PagedOpts(dir));
    ASSERT_TRUE(service.Init().ok());
    storage::Database& db = service.sharded()->shard_system(0).database();
    EXPECT_TRUE(db.paged());
    EXPECT_EQ(db.recovery_stats().wal_records_scanned, 0u);
    EXPECT_EQ(db.recovery_stats().wal_records_replayed, 0u);
    // One post-checkpoint mutation, then a crash (no checkpoint).
    ASSERT_TRUE(service.RegisterTagger({"tail"}).status.ok());
  }
  api::Service service(PagedOpts(dir));
  ASSERT_TRUE(service.Init().ok());
  storage::Database& db = service.sharded()->shard_system(0).database();
  // Only the tail frame(s) of the one RegisterTagger call replayed — not
  // the full history since the directory was created.
  EXPECT_GT(db.recovery_stats().wal_records_replayed, 0u);
  EXPECT_LE(db.recovery_stats().wal_records_replayed, 3u);
  Result<core::TaggerProfile> tagger = service.sharded()->GetTagger(0);
  ASSERT_TRUE(tagger.ok());
  EXPECT_EQ(tagger.value().name, "tail");
}

}  // namespace
}  // namespace itag
