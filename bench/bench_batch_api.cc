// E12 — batched vs per-call throughput across the batch-API redesign.
//
// Two workloads:
//  (a) allocation only: AllocationEngine::ChooseBatch(k) against the
//      equivalent ChooseNext() loop, same strategy, same budget. The batch
//      path amortizes the per-pick engine overhead and lets bulk-aware
//      strategies (RAND) hoist their O(n) eligibility scan out of the loop.
//  (b) end-to-end tagger traffic through itag::api::Service: accept /
//      submit / moderate in batches of kBatch against the same flow issued
//      as one-item batches on the service's one-shard core, same audience
//      project shape and seed.
//
// Both paths do identical allocation work (ChooseBatch is sequence-
// equivalent to repeated ChooseNext), so tasks/sec is directly comparable.
// Prints a verdict line; exits non-zero if the batched path loses.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "api/service.h"
#include "common/csv.h"
#include "strategy/engine.h"
#include "tagging/corpus.h"

using namespace itag;        // NOLINT
using namespace itag::core;  // NOLINT

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------- (a) allocation

struct AllocResult {
  double per_call_tps = 0.0;
  double batched_tps = 0.0;
};

AllocResult RunAlloc(strategy::StrategyKind kind, size_t resources,
                     uint32_t budget, size_t batch) {
  auto make_engine = [&](tagging::Corpus* corpus) {
    strategy::EngineOptions opts;
    opts.budget = budget;
    opts.seed = 7;
    return strategy::AllocationEngine(corpus, strategy::MakeStrategy(kind),
                                      opts);
  };
  auto make_corpus = [&]() {
    auto corpus = std::make_unique<tagging::Corpus>();
    for (size_t r = 0; r < resources; ++r) {
      corpus->AddResource(tagging::ResourceKind::kWebUrl,
                          "r-" + std::to_string(r), "");
    }
    return corpus;
  };

  AllocResult out;
  {
    auto corpus = make_corpus();
    strategy::AllocationEngine engine = make_engine(corpus.get());
    auto t0 = std::chrono::steady_clock::now();
    uint32_t done = 0;
    while (engine.ChooseNext().ok()) ++done;
    out.per_call_tps = done / SecondsSince(t0);
  }
  {
    auto corpus = make_corpus();
    strategy::AllocationEngine engine = make_engine(corpus.get());
    auto t0 = std::chrono::steady_clock::now();
    uint32_t done = 0;
    while (true) {
      auto chosen = engine.ChooseBatch(batch);
      if (!chosen.ok()) break;
      done += static_cast<uint32_t>(chosen.value().size());
    }
    out.batched_tps = done / SecondsSince(t0);
  }
  return out;
}

// ------------------------------------------- (b) end-to-end via Service

struct E2EResult {
  uint32_t completed = 0;
  double tps = 0.0;
};

/// One-shard core options: the ids and RNG streams of a single system.
ShardedSystemOptions OneShard() {
  ShardedSystemOptions opts;
  opts.num_shards = 1;
  return opts;
}

/// One audience project, one tireless tagger, one moderating provider.
struct E2EFixture {
  api::Service service{OneShard()};
  ProviderId provider = 0;
  UserTaggerId tagger = 0;
  ProjectId project = 0;

  E2EFixture(size_t resources, uint32_t budget) {
    (void)service.Init();
    provider = service.RegisterProvider({"bench-provider"}).provider;
    tagger = service.RegisterTagger({"bench-tagger"}).tagger;
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "bench";
    create.spec.budget = budget;
    create.spec.platform = PlatformChoice::kAudience;
    create.spec.strategy = strategy::StrategyKind::kRandom;
    project = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = project;
    for (size_t r = 0; r < resources; ++r) {
      api::UploadResourceItem item;
      item.uri = "r-" + std::to_string(r);
      upload.items.push_back(std::move(item));
    }
    (void)service.BatchUploadResources(upload);
    (void)service.BatchControl({project, {{api::ControlAction::kStart}}});
  }

  std::vector<std::string> TagsFor(const AcceptedTask& task) {
    return {"tag-" + std::to_string(task.resource % 7), "common"};
  }
};

E2EResult RunE2EPerCall(size_t resources, uint32_t budget) {
  E2EFixture fx(resources, budget);
  core::ShardedSystem& system = *fx.service.sharded();
  auto t0 = std::chrono::steady_clock::now();
  E2EResult out;
  while (true) {
    auto accepted = system.AcceptTasks(fx.tagger, fx.project, 1);
    if (!accepted.ok()) break;
    const AcceptedTask& task = accepted.value()[0];
    std::vector<Status> submitted =
        system.SubmitTagsBatch({{fx.tagger, task.handle, fx.TagsFor(task)}});
    if (!submitted[0].ok()) continue;
    if (system.DecideBatch(fx.provider, {{task.handle, true}})[0].ok()) {
      ++out.completed;
    }
  }
  out.tps = out.completed / SecondsSince(t0);
  return out;
}

E2EResult RunE2EBatched(size_t resources, uint32_t budget, size_t batch) {
  E2EFixture fx(resources, budget);
  auto t0 = std::chrono::steady_clock::now();
  E2EResult out;
  while (true) {
    api::BatchAcceptTasksResponse accepted =
        fx.service.BatchAcceptTasks({fx.tagger, fx.project, batch});
    if (!accepted.status.ok() || accepted.tasks.empty()) break;
    api::BatchSubmitTagsRequest submit;
    api::BatchDecideRequest decide;
    decide.provider = fx.provider;
    for (const AcceptedTask& task : accepted.tasks) {
      submit.items.push_back({fx.tagger, task.handle, fx.TagsFor(task)});
      decide.items.push_back({task.handle, true});
    }
    (void)fx.service.BatchSubmitTags(submit);
    out.completed += static_cast<uint32_t>(
        fx.service.BatchDecide(decide).outcome.ok_count);
  }
  out.tps = out.completed / SecondsSince(t0);
  return out;
}

}  // namespace

int main() {
  const size_t kBatch = 256;
  std::printf("E12: batched vs per-call throughput (batch size %zu)\n\n",
              kBatch);

  bool batched_wins = true;
  TableWriter alloc_table(
      {"workload", "per_call_tasks_per_s", "batched_tasks_per_s", "speedup"});
  struct AllocCase {
    const char* name;
    strategy::StrategyKind kind;
    size_t resources;
    uint32_t budget;
  };
  const AllocCase cases[] = {
      {"alloc RAND n=2000", strategy::StrategyKind::kRandom, 2000, 200000},
      {"alloc FP   n=2000", strategy::StrategyKind::kFewestPostsFirst, 2000,
       200000},
      {"alloc MU   n=2000", strategy::StrategyKind::kMostUnstableFirst, 2000,
       200000},
  };
  for (const AllocCase& c : cases) {
    AllocResult r = RunAlloc(c.kind, c.resources, c.budget, kBatch);
    alloc_table.BeginRow()
        .Add(c.name)
        .Add(r.per_call_tps, 0)
        .Add(r.batched_tps, 0)
        .Add(r.batched_tps / r.per_call_tps, 2);
    batched_wins &= r.batched_tps > r.per_call_tps;
  }
  alloc_table.WriteAscii(std::cout);

  std::printf("\nEnd-to-end audience traffic through api::Service "
              "(accept+submit+moderate):\n");
  const size_t kResources = 400;
  const uint32_t kBudget = 30000;
  E2EResult per_call = RunE2EPerCall(kResources, kBudget);
  E2EResult batched = RunE2EBatched(kResources, kBudget, kBatch);
  TableWriter e2e_table({"path", "tasks_completed", "tasks_per_s"});
  e2e_table.BeginRow().Add("per-call").Add(
      static_cast<uint64_t>(per_call.completed)).Add(per_call.tps, 0);
  e2e_table.BeginRow().Add("batched").Add(
      static_cast<uint64_t>(batched.completed)).Add(batched.tps, 0);
  e2e_table.WriteAscii(std::cout);
  batched_wins &= batched.tps > per_call.tps;

  std::printf("\nverdict: batched %s per-call\n",
              batched_wins ? "beats" : "LOSES TO");
  return batched_wins ? 0 : 1;
}
