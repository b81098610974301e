// Concurrency coverage: the common-layer primitives (ThreadPool, SeqLock)
// and the sharded core under multi-threaded fire. The central property test
// hammers api::Service from several threads across shards and asserts the
// result is bit-equal to a single-threaded replay of the same per-project
// traffic — sharding must change throughput, never outcomes. A wire hammer
// checks that dashboard reads see one published version of a project. All
// tests here run under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "common/seqlock.h"
#include "common/sharding.h"
#include "common/thread_pool.h"
#include "itag/itag_system.h"
#include "itag/sharded_system.h"
#include "net/client.h"
#include "net/server.h"

namespace itag {
namespace {

using core::AcceptedTask;
using core::ProjectId;
using core::ProjectSpec;
using core::ProviderId;
using core::ShardedSystem;
using core::ShardedSystemOptions;
using core::UserTaggerId;

// ------------------------------------------------------------- primitives

TEST(ThreadPoolTest, RunAllExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.RunAll(std::move(tasks));
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentRunAllBatchesDoNotCross) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int> mine{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 8; ++i) {
          tasks.push_back([&mine, &total] {
            ++mine;
            ++total;
          });
        }
        pool.RunAll(std::move(tasks));
        // RunAll returning means *this* batch fully executed.
        ASSERT_EQ(mine.load(), 8);
      }
    });
  }
  for (std::thread& th : callers) th.join();
  EXPECT_EQ(total.load(), 4 * 20 * 8);
}

TEST(SeqLockTest, ReadersNeverObserveTornWrites) {
  struct Pair {
    uint64_t a = 0;
    uint64_t b = 0;  // invariant: b == 2 * a
  };
  SeqLock<Pair> cell;
  cell.Write({0, 0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      cell.Write({i, 2 * i});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        Pair p = cell.Read();
        ASSERT_EQ(p.b, 2 * p.a);
      }
    });
  }
  for (std::thread& th : readers) th.join();
  stop.store(true);
  writer.join();
  EXPECT_GT(cell.version(), 0u);
}

// ------------------------------------------------------ sharded workloads

ShardedSystemOptions ShardOpts(size_t shards) {
  ShardedSystemOptions opts;
  opts.num_shards = shards;
  opts.pool_threads = 2;
  return opts;
}

ProjectSpec StressSpec(uint32_t budget) {
  ProjectSpec spec;
  spec.name = "stress";
  spec.budget = budget;
  spec.pay_cents = 5;
  spec.platform = core::PlatformChoice::kAudience;
  // Deterministic strategy: the chosen-resource sequence depends only on
  // the per-project call sequence, so a single-threaded replay must match.
  spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  return spec;
}

std::vector<std::string> TagsFor(const AcceptedTask& task) {
  return {"tag-" + std::to_string(task.resource % 5), "common"};
}

/// Drives one project to budget exhaustion through the service:
/// accept-batch / submit-batch / decide-batch. Returns completed tasks;
/// every per-item status must be OK (EXPECTs fire otherwise).
uint32_t DriveProject(api::Service& service, ProviderId provider,
                      UserTaggerId tagger, ProjectId project) {
  uint32_t completed = 0;
  for (;;) {
    auto accepted = service.BatchAcceptTasks({tagger, project, 7});
    if (!accepted.status.ok() || accepted.tasks.empty()) break;
    api::BatchSubmitTagsRequest submit;
    api::BatchDecideRequest decide;
    decide.provider = provider;
    for (const AcceptedTask& task : accepted.tasks) {
      submit.items.push_back({tagger, task.handle, TagsFor(task)});
      decide.items.push_back({task.handle, true});
    }
    auto submitted = service.BatchSubmitTags(submit);
    EXPECT_TRUE(submitted.outcome.all_ok());
    auto decided = service.BatchDecide(decide);
    EXPECT_TRUE(decided.outcome.all_ok());
    completed += static_cast<uint32_t>(decided.outcome.ok_count);
  }
  return completed;
}

/// The single-threaded oracle of DriveProject: the same accept, submit and
/// decide batches, issued on the facade directly.
uint32_t DriveFacade(core::ITagSystem& system, ProviderId provider,
                     UserTaggerId tagger, ProjectId project) {
  uint32_t completed = 0;
  for (;;) {
    auto accepted = system.AcceptTasks(tagger, project, 7);
    if (!accepted.ok() || accepted.value().empty()) break;
    std::vector<core::TagSubmission> submit;
    std::vector<std::pair<core::TaskHandle, bool>> decide;
    for (const AcceptedTask& task : accepted.value()) {
      submit.push_back({tagger, task.handle, TagsFor(task)});
      decide.emplace_back(task.handle, true);
    }
    for (const Status& s : system.SubmitTagsBatch(submit)) {
      EXPECT_TRUE(s.ok());
    }
    for (const Status& s : system.DecideBatch(provider, decide)) {
      EXPECT_TRUE(s.ok());
      if (s.ok()) ++completed;
    }
  }
  return completed;
}

struct ProjectOutcome {
  uint32_t completed = 0;
  uint32_t tasks_completed = 0;
  uint32_t budget_remaining = 0;
  double quality = 0.0;
  size_t feed_points = 0;
};

ProjectOutcome OutcomeOf(api::Service& service, uint32_t completed,
                         ProjectId project) {
  ProjectOutcome out;
  out.completed = completed;
  auto snap = service.ProjectQuery({project, /*include_feed=*/true, {}});
  EXPECT_TRUE(snap.status.ok());
  out.tasks_completed = snap.info.tasks_completed;
  out.budget_remaining = snap.info.budget_remaining;
  out.quality = snap.info.quality;
  out.feed_points = snap.feed.size();
  return out;
}

ProjectOutcome OutcomeOf(core::ITagSystem& system, uint32_t completed,
                         ProjectId project) {
  ProjectOutcome out;
  out.completed = completed;
  Result<core::ProjectInfo> info = system.GetProjectInfo(project);
  EXPECT_TRUE(info.ok());
  if (!info.ok()) return out;
  out.tasks_completed = info.value().tasks_completed;
  out.budget_remaining = info.value().budget_remaining;
  out.quality = info.value().quality;
  out.feed_points = system.QualityFeed(project).size();
  return out;
}

TEST(ConcurrentDispatchTest, MatchesSingleThreadedReplay) {
  constexpr size_t kThreads = 4;
  constexpr size_t kProjectsPerThread = 2;
  constexpr size_t kProjects = kThreads * kProjectsPerThread;
  constexpr uint32_t kBudget = 60;
  constexpr int kResources = 8;

  // --- concurrent run: 4 threads hammer one sharded service --------------
  api::Service sharded(ShardOpts(4));
  ASSERT_TRUE(sharded.Init().ok());
  ProviderId provider = sharded.RegisterProvider({"prov"}).provider;
  std::vector<UserTaggerId> taggers;
  for (size_t t = 0; t < kThreads; ++t) {
    taggers.push_back(
        sharded.RegisterTagger({"tagger-" + std::to_string(t)}).tagger);
  }
  std::vector<ProjectId> projects;
  for (size_t p = 0; p < kProjects; ++p) {
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec = StressSpec(kBudget);
    auto resp = sharded.CreateProject(create);
    ASSERT_TRUE(resp.status.ok());
    api::BatchUploadResourcesRequest upload;
    upload.project = resp.project;
    for (int r = 0; r < kResources; ++r) {
      api::UploadResourceItem item;
      item.uri = "res-" + std::to_string(r);
      upload.items.push_back(std::move(item));
    }
    ASSERT_TRUE(sharded.BatchUploadResources(upload).outcome.all_ok());
    ASSERT_TRUE(sharded.BatchControl({resp.project,
                                      {{api::ControlAction::kStart}}})
                    .outcome.all_ok());
    projects.push_back(resp.project);
  }
  std::vector<uint32_t> completed(kProjects, 0);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread owns a disjoint slice of projects (the projects
        // themselves live on different shards).
        for (size_t j = 0; j < kProjectsPerThread; ++j) {
          size_t idx = t * kProjectsPerThread + j;
          completed[idx] =
              DriveProject(sharded, provider, taggers[t], projects[idx]);
        }
      });
    }
    // Meanwhile: concurrent monitoring traffic over the lock-free path and
    // the regular query path, racing with the writers above.
    std::atomic<bool> stop{false};
    std::thread monitor([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (ProjectId p : projects) {
          auto peek = sharded.sharded()->PeekQuality(p);
          ASSERT_TRUE(peek.ok());
          ASSERT_LE(peek.value().tasks_completed, kBudget);
          (void)sharded.ProjectQuery({p, false, {}});
        }
        (void)sharded.sharded()->TotalPaidCents();
      }
    });
    for (std::thread& th : threads) th.join();
    stop.store(true, std::memory_order_release);
    monitor.join();
  }

  // --- reference run: same per-project traffic, one thread, on the facade
  // itself (below the api and shard layers under test) --------------------
  core::ITagSystem reference;
  ASSERT_TRUE(reference.Init().ok());
  ProviderId ref_provider = reference.RegisterProvider("prov").value();
  std::vector<UserTaggerId> ref_taggers;
  for (size_t t = 0; t < kThreads; ++t) {
    ref_taggers.push_back(
        reference.RegisterTagger("tagger-" + std::to_string(t)).value());
  }
  std::vector<ProjectId> ref_projects;
  for (size_t p = 0; p < kProjects; ++p) {
    Result<ProjectId> project =
        reference.CreateProject(ref_provider, StressSpec(kBudget));
    ASSERT_TRUE(project.ok());
    std::vector<core::ResourceUpload> uploads;
    for (int r = 0; r < kResources; ++r) {
      core::ResourceUpload item;
      item.uri = "res-" + std::to_string(r);
      uploads.push_back(std::move(item));
    }
    std::vector<tagging::ResourceId> ids;
    for (const Status& s :
         reference.UploadResourceBatch(project.value(), uploads, &ids)) {
      ASSERT_TRUE(s.ok());
    }
    ASSERT_TRUE(reference
                    .ControlBatch(project.value(),
                                  {{core::ControlAction::kStart}})[0]
                    .ok());
    ref_projects.push_back(project.value());
  }
  std::vector<uint32_t> ref_completed(kProjects, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < kProjectsPerThread; ++j) {
      size_t idx = t * kProjectsPerThread + j;
      ref_completed[idx] = DriveFacade(reference, ref_provider,
                                       ref_taggers[t], ref_projects[idx]);
    }
  }

  // --- equivalence ------------------------------------------------------
  for (size_t p = 0; p < kProjects; ++p) {
    ProjectOutcome got = OutcomeOf(sharded, completed[p], projects[p]);
    ProjectOutcome want =
        OutcomeOf(reference, ref_completed[p], ref_projects[p]);
    SCOPED_TRACE("project " + std::to_string(p));
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.tasks_completed, want.tasks_completed);
    EXPECT_EQ(got.tasks_completed, kBudget);  // everything got worked
    EXPECT_EQ(got.budget_remaining, want.budget_remaining);
    EXPECT_EQ(got.feed_points, want.feed_points);
    EXPECT_DOUBLE_EQ(got.quality, want.quality);
  }
  // Ledger totals: every approved task paid 5 cents, on both sides.
  EXPECT_EQ(sharded.sharded()->TotalPaidCents(),
            reference.ledger().TotalPaid());
  // Per-tagger earnings aggregate identically across shards.
  for (size_t t = 0; t < kThreads; ++t) {
    auto got = sharded.sharded()->GetTagger(taggers[t]);
    auto want = reference.GetTagger(ref_taggers[t]);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value().approved, want.value().approved);
    EXPECT_EQ(got.value().earned_cents, want.value().earned_cents);
  }
}

TEST(ConcurrentDispatchTest, SameProjectHammeredFromManyThreadsConserves) {
  constexpr uint32_t kBudget = 400;
  constexpr size_t kThreads = 4;
  api::Service service(ShardOpts(2));
  ASSERT_TRUE(service.Init().ok());
  ProviderId provider = service.RegisterProvider({"prov"}).provider;
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec = StressSpec(kBudget);
  ProjectId project = service.CreateProject(create).project;
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int r = 0; r < 10; ++r) {
    api::UploadResourceItem item;
    item.uri = "res-" + std::to_string(r);
    upload.items.push_back(std::move(item));
  }
  ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
  ASSERT_TRUE(service.BatchControl({project, {{api::ControlAction::kStart}}})
                  .outcome.all_ok());

  // All threads race on ONE project; each submits/decides only handles it
  // accepted itself, so every per-item status must still be OK.
  std::atomic<uint32_t> total_completed{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UserTaggerId tagger =
          service.RegisterTagger({"t-" + std::to_string(t)}).tagger;
      total_completed +=
          DriveProject(service, provider, tagger, project);
    });
  }
  for (std::thread& th : threads) th.join();

  auto snap = service.ProjectQuery({project, false, {}});
  ASSERT_TRUE(snap.status.ok());
  EXPECT_EQ(total_completed.load(), kBudget);  // no task lost, none doubled
  EXPECT_EQ(snap.info.tasks_completed, kBudget);
  EXPECT_EQ(snap.info.budget_remaining, 0u);
  EXPECT_EQ(service.sharded()->TotalPaidCents(),
            static_cast<uint64_t>(kBudget) * create.spec.pay_cents);
}

TEST(ConcurrentDispatchTest, ParallelStepRacesCleanlyWithQueries) {
  api::Service service(ShardOpts(3));
  ASSERT_TRUE(service.Init().ok());
  ProviderId provider = service.RegisterProvider({"prov"}).provider;
  std::vector<ProjectId> projects;
  for (int i = 0; i < 3; ++i) {
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "mturk";
    create.spec.budget = 60;
    create.spec.platform = core::PlatformChoice::kMTurk;
    ProjectId p = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = p;
    for (int r = 0; r < 4; ++r) {
      api::UploadResourceItem item;
      item.uri = "u-" + std::to_string(r);
      upload.items.push_back(std::move(item));
    }
    ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    ASSERT_TRUE(service.BatchControl({p, {{api::ControlAction::kStart}}})
                    .outcome.all_ok());
    projects.push_back(p);
  }
  std::atomic<bool> stop{false};
  std::thread stepper([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(service.Step({10}).status.ok());
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (ProjectId p : projects) {
        (void)service.sharded()->PeekQuality(p);
        auto q = service.ProjectQuery({p, true, {}});
        ASSERT_TRUE(q.status.ok());
      }
      (void)service.sharded()->ListProjects(provider);
      (void)service.sharded()->LatestNotifications(provider, 8);
    }
  });
  stepper.join();
  reader.join();
  EXPECT_EQ(service.sharded()->Now(), 400);
  for (ProjectId p : projects) {
    EXPECT_GT(service.ProjectQuery({p, false, {}}).info.tasks_completed, 0u);
  }
}

// Dashboard reads over the wire race writes to the same projects. A reply
// is one published version: the write that last set info.tasks_completed
// also emitted the feed's last point. Info and feed read under two separate
// lock acquisitions can pair one write's info with a later write's feed.
TEST(ConcurrentDispatchTest, WireQueriesSeeOneVersionOfInfoAndFeed) {
  constexpr uint32_t kBudget = 20000;
  api::Service service(ShardOpts(2));
  ASSERT_TRUE(service.Init().ok());
  ProviderId provider = service.RegisterProvider({"prov"}).provider;
  std::vector<ProjectId> projects;
  for (int i = 0; i < 2; ++i) {
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec = StressSpec(kBudget);
    ProjectId p = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = p;
    for (int r = 0; r < 12; ++r) {
      api::UploadResourceItem item;
      item.uri = "res-" + std::to_string(r);
      upload.items.push_back(std::move(item));
    }
    ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    ASSERT_TRUE(service.BatchControl({p, {{api::ControlAction::kStart}}})
                    .outcome.all_ok());
    projects.push_back(p);
  }
  net::ServerOptions server_opts;
  server_opts.reactors = 2;
  server_opts.workers = 2;
  net::Server server(&service, server_opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      net::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      while (!stop.load(std::memory_order_acquire)) {
        for (ProjectId p : projects) {
          Result<api::ProjectQueryResponse> q =
              client.ProjectQuery({p, true, {}});
          ASSERT_TRUE(q.ok()) << q.status().ToString();
          const api::ProjectQueryResponse& r = q.value();
          ASSERT_TRUE(r.status.ok());
          if (!r.feed.empty()) {
            ASSERT_EQ(r.feed.back().tasks, r.info.tasks_completed);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (size_t w = 0; w < 6; ++w) {
    writers.emplace_back([&, w] {
      UserTaggerId tagger =
          service.RegisterTagger({"w-" + std::to_string(w)}).tagger;
      DriveProject(service, provider, tagger, projects[w % projects.size()]);
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  server.Stop();
  EXPECT_GT(checked.load(), 0u);
  for (ProjectId p : projects) {
    EXPECT_EQ(service.ProjectQuery({p, false, {}}).info.tasks_completed,
              kBudget);
  }
}

}  // namespace
}  // namespace itag
