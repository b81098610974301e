// E11 — end-to-end platform throughput (the §IV audience-participation
// setting at scale): simulated ticks needed to push a fixed batch of tasks
// through MTurkSim and SocialNetSim as the worker pool grows. Expected
// shape: MTurk throughput scales ~linearly with workers; the social
// platform starts slower (exposure must spread) but catches up as shares
// propagate.
//
// Since the batch-API redesign the exhibit is driven through
// itag::api::Service: the service's Step pump refills each project's open
// task window with one ChooseBatch allocation pass per tick, which is the
// path a production frontend would exercise. A raw-platform Drain section
// is kept as the lower-bound baseline.

#include <cstdio>
#include <iostream>

#include "api/service.h"
#include "common/csv.h"
#include "common/random.h"
#include "crowd/mturk_sim.h"
#include "crowd/social_sim.h"

using namespace itag;         // NOLINT
using namespace itag::crowd;  // NOLINT

namespace {

struct Throughput {
  Tick ticks_to_finish = 0;
  double tasks_per_1k_ticks = 0.0;
};

/// Lower bound: tasks fed straight into the platform, no allocation, no
/// moderation.
Throughput DrainRaw(CrowdPlatform* platform, uint32_t tasks) {
  for (uint32_t i = 0; i < tasks; ++i) {
    TaskSpec spec;
    spec.project = 1;
    spec.resource = i;
    spec.pay_cents = 5;
    (void)platform->PostTask(spec);
  }
  uint32_t done = 0;
  Tick t = 0;
  while (done < tasks && t < 500000) {
    t += 5;
    for (const TaskEvent& ev : platform->AdvanceTo(t)) {
      if (ev.kind == TaskEventKind::kSubmitted) {
        (void)platform->Approve(ev.task);
        ++done;
      }
    }
  }
  Throughput out;
  out.ticks_to_finish = t;
  out.tasks_per_1k_ticks = 1000.0 * done / static_cast<double>(t);
  return out;
}

/// Full stack: the same budget flows through api::Service — allocation
/// engine, task window pump, platform, auto-moderation, quality feed.
Throughput DrainService(core::PlatformChoice platform, uint32_t workers,
                        uint32_t tasks) {
  core::ShardedSystemOptions options;
  options.num_shards = 1;
  options.shard.mturk_pool.num_workers = workers;
  options.shard.mturk_pool.mean_service_ticks = 8.0;
  options.shard.mturk_pool.activity = 0.3;
  options.shard.social.share_prob = 0.5;
  api::Service service(std::move(options));
  (void)service.Init();

  core::ProviderId owner = service.RegisterProvider({"bench"}).provider;
  api::CreateProjectRequest create;
  create.provider = owner;
  create.spec.name = "drain";
  create.spec.budget = tasks;
  create.spec.platform = platform;
  create.spec.strategy = strategy::StrategyKind::kRoundRobin;
  core::ProjectId project = service.CreateProject(create).project;

  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int i = 0; i < 40; ++i) {
    api::UploadResourceItem item;
    item.uri = "res-" + std::to_string(i);
    upload.items.push_back(std::move(item));
  }
  (void)service.BatchUploadResources(upload);
  (void)service.BatchControl({project, {{api::ControlAction::kStart}}});

  Tick t = 0;
  uint32_t done = 0;
  while (done < tasks && t < 500000) {
    (void)service.Step({100});
    t += 100;
    done = service.ProjectQuery({project, false, {}}).info.tasks_completed;
  }
  Throughput out;
  out.ticks_to_finish = t;
  out.tasks_per_1k_ticks = 1000.0 * done / static_cast<double>(t);
  return out;
}

}  // namespace

int main() {
  const uint32_t kTasks = 400;
  std::printf("E11: ticks to complete %u tasks vs worker-pool size\n\n",
              kTasks);
  TableWriter table(
      {"path", "platform", "workers", "ticks", "tasks_per_1k_ticks"});

  for (uint32_t workers : {10u, 25u, 50u, 100u}) {
    WorkerPoolConfig cfg;
    cfg.num_workers = workers;
    cfg.mean_service_ticks = 8.0;
    cfg.activity = 0.3;
    {
      Rng rng(41);
      PaymentLedger ledger;
      MTurkSim mturk(GenerateWorkerPool(cfg, &rng), &ledger);
      Throughput t = DrainRaw(&mturk, kTasks);
      table.BeginRow()
          .Add("raw")
          .Add("mturk-sim")
          .Add(static_cast<uint64_t>(workers))
          .Add(static_cast<int64_t>(t.ticks_to_finish))
          .Add(t.tasks_per_1k_ticks, 2);
    }
    {
      Rng rng(41);
      PaymentLedger ledger;
      SocialNetSimOptions sopts;
      sopts.share_prob = 0.5;
      SocialNetSim social(GenerateWorkerPool(cfg, &rng), &ledger, sopts);
      Throughput t = DrainRaw(&social, kTasks);
      table.BeginRow()
          .Add("raw")
          .Add("social-sim")
          .Add(static_cast<uint64_t>(workers))
          .Add(static_cast<int64_t>(t.ticks_to_finish))
          .Add(t.tasks_per_1k_ticks, 2);
    }
    {
      Throughput t =
          DrainService(core::PlatformChoice::kMTurk, workers, kTasks);
      table.BeginRow()
          .Add("service")
          .Add("mturk-sim")
          .Add(static_cast<uint64_t>(workers))
          .Add(static_cast<int64_t>(t.ticks_to_finish))
          .Add(t.tasks_per_1k_ticks, 2);
    }
    {
      Throughput t =
          DrainService(core::PlatformChoice::kSocialNetwork, workers, kTasks);
      table.BeginRow()
          .Add("service")
          .Add("social-sim")
          .Add(static_cast<uint64_t>(workers))
          .Add(static_cast<int64_t>(t.ticks_to_finish))
          .Add(t.tasks_per_1k_ticks, 2);
    }
  }
  table.WriteAscii(std::cout);
  (void)table.SaveCsv("/tmp/itag_e11_platform.csv");
  std::printf("\nCSV: /tmp/itag_e11_platform.csv\n");
  return 0;
}
