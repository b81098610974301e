// E15 — feedback-driven rebalancing under skew: 8 audience projects on 4
// shards, driven by a Zipf-shaped workload where ONE project receives 50%
// of all traffic (its codec home shard therefore sees ~57% of routed ops
// against a 25% fair share). Three placements of the same workload:
//
//   uniform     — oracle placement: the hot project's co-resident is moved
//                 away up front, so the hot shard serves only the hot
//                 project (the best a balancer could achieve), rebalancer
//                 off. This is the reference throughput.
//   static      — round-robin placement exactly as created, rebalancer
//                 off: the skewed shard serializes the hot project AND its
//                 co-resident behind one mutex.
//   rebalanced  — same static start, but the background rebalancer is on
//                 (25 ms windows); the bench drives load until at least
//                 one autonomous migration lands, then measures.
//
// Verdict: the rebalancer must actually fire (>= 1 migration — asserted on
// every host), and on hosts with >= 4 cores the rebalanced throughput must
// reach 80% of the uniform oracle (the skew-recovery gate, blocking in
// CI). Below 4 cores one core serializes every shard and placement cannot
// change throughput, so the ratio is informational.
//
// Prints the usual ASCII table, then a machine-readable one-line JSON
// summary (also written to BENCH_rebalance.json).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "common/csv.h"
#include "common/sharding.h"
#include "itag/sharded_system.h"
#include "obs/metrics.h"

using namespace itag;        // NOLINT
using namespace itag::core;  // NOLINT

namespace {

constexpr size_t kShards = 4;
constexpr size_t kProjects = 8;
constexpr size_t kThreads = 4;
constexpr size_t kResources = 32;   // per project
constexpr uint32_t kBudget = 2000000;  // never exhausted in a timed window
constexpr size_t kBatch = 16;
constexpr int kHotPct = 50;         // the Zipf head: p0's traffic share
constexpr double kMeasureSeconds = 1.5;
constexpr double kWarmupDeadlineSeconds = 20.0;
constexpr double kGateRatio = 0.8;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One prepared world: service + 8 started audience projects.
struct World {
  std::unique_ptr<api::Service> service;
  ProviderId provider = 0;
  std::vector<UserTaggerId> taggers;
  std::vector<ProjectId> projects;

  explicit World(size_t rebalance_interval_ms) {
    ShardedSystemOptions opts;
    opts.num_shards = kShards;
    opts.pool_threads = kShards;
    opts.rebalance_interval_ms = rebalance_interval_ms;
    service = std::make_unique<api::Service>(opts);
    (void)service->Init();
    provider = service->RegisterProvider({"bench-provider"}).provider;
    for (size_t t = 0; t < kThreads; ++t) {
      taggers.push_back(
          service->RegisterTagger({"t-" + std::to_string(t)}).tagger);
    }
    for (size_t p = 0; p < kProjects; ++p) {
      api::CreateProjectRequest create;
      create.provider = provider;
      create.spec.name = "bench-" + std::to_string(p);
      create.spec.budget = kBudget;
      create.spec.platform = PlatformChoice::kAudience;
      create.spec.strategy = strategy::StrategyKind::kRandom;
      ProjectId project = service->CreateProject(create).project;
      api::BatchUploadResourcesRequest upload;
      upload.project = project;
      for (size_t r = 0; r < kResources; ++r) {
        api::UploadResourceItem item;
        item.uri = "r-" + std::to_string(r);
        upload.items.push_back(std::move(item));
      }
      (void)service->BatchUploadResources(upload);
      (void)service->BatchControl({project, {{api::ControlAction::kStart}}});
      projects.push_back(project);
    }
  }
};

/// xorshift64* — a private per-thread stream, no shared RNG contention.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dULL;
}

/// The Zipf head-vs-tail pick: kHotPct% of calls hit projects[0].
ProjectId PickProject(const World& world, uint64_t* rng) {
  uint64_t r = NextRand(rng);
  if (r % 100 < static_cast<uint64_t>(kHotPct)) return world.projects[0];
  return world.projects[1 + r / 100 % (kProjects - 1)];
}

/// One accept→submit→decide work unit; returns tasks completed. Routing
/// failures (a batch racing a live migration drains as NotFound/Aborted)
/// simply yield fewer completions — they are part of the measured cost.
uint32_t WorkUnit(World& world, UserTaggerId tagger, ProjectId project) {
  api::BatchAcceptTasksResponse accepted =
      world.service->BatchAcceptTasks({tagger, project, kBatch});
  if (!accepted.status.ok() || accepted.tasks.empty()) return 0;
  api::BatchSubmitTagsRequest submit;
  api::BatchDecideRequest decide;
  decide.provider = world.provider;
  for (const AcceptedTask& task : accepted.tasks) {
    submit.items.push_back(
        {tagger, task.handle, {"tag-" + std::to_string(task.resource % 7)}});
    decide.items.push_back({task.handle, true});
  }
  (void)world.service->BatchSubmitTags(submit);
  return static_cast<uint32_t>(
      world.service->BatchDecide(decide).outcome.ok_count);
}

/// Drives the skewed workload from kThreads threads for `seconds`,
/// returning completed tasks/sec.
double Drive(World& world, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        completed += WorkUnit(world, world.taggers[t],
                              PickProject(world, &rng));
      }
    });
  }
  while (SecondsSince(t0) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  return completed.load() / SecondsSince(t0);
}

}  // namespace

int main() {
  const size_t cores = std::thread::hardware_concurrency();
  std::printf(
      "E15: rebalancing under skew — %zu shards, %zu projects, %d%% of "
      "traffic on one project, %zu driver threads (host: %zu cores)\n\n",
      kShards, kProjects, kHotPct, kThreads, cores);

  obs::Counter* migrations_counter =
      obs::MetricsRegistry::Default().GetCounter("core.rebalance.migrations");
  obs::Counter* moved_ops_counter =
      obs::MetricsRegistry::Default().GetCounter("core.rebalance.moved_ops");

  // uniform — the oracle: isolate the hot project before driving.
  double uniform_tps = 0.0;
  {
    World world(/*rebalance_interval_ms=*/0);
    ShardedSystem* sys = world.service->sharded();
    // projects[0] and projects[4] share shard 0; evacuate the co-resident.
    Status moved = sys->MigrateProject(world.projects[4], 1);
    if (!moved.ok()) {
      std::fprintf(stderr, "oracle migration failed: %s\n",
                   moved.ToString().c_str());
      return 1;
    }
    uniform_tps = Drive(world, kMeasureSeconds);
  }

  // static — round-robin placement, no rebalancer.
  double static_tps = 0.0;
  {
    World world(/*rebalance_interval_ms=*/0);
    static_tps = Drive(world, kMeasureSeconds);
  }

  // rebalanced — same start as static, rebalancer on. Warm up until the
  // feedback loop actually moves something, then measure.
  double rebalanced_tps = 0.0;
  uint64_t migrations = 0;
  {
    uint64_t migrations0 = migrations_counter->value();
    World world(/*rebalance_interval_ms=*/25);
    auto warmup0 = std::chrono::steady_clock::now();
    while (migrations_counter->value() == migrations0 &&
           SecondsSince(warmup0) < kWarmupDeadlineSeconds) {
      (void)Drive(world, 0.25);
    }
    rebalanced_tps = Drive(world, kMeasureSeconds);
    migrations = migrations_counter->value() - migrations0;
  }

  double ratio = uniform_tps > 0.0 ? rebalanced_tps / uniform_tps : 0.0;
  double static_ratio = uniform_tps > 0.0 ? static_tps / uniform_tps : 0.0;

  TableWriter table({"placement", "tasks_per_s", "vs_uniform"});
  table.BeginRow().Add("uniform (oracle)").Add(uniform_tps, 0).Add(1.0, 3);
  table.BeginRow().Add("static").Add(static_tps, 0).Add(static_ratio, 3);
  table.BeginRow().Add("rebalanced").Add(rebalanced_tps, 0).Add(ratio, 3);
  table.WriteAscii(std::cout);
  std::printf("\nautonomous migrations during rebalanced run: %llu "
              "(moved-op attribution total: %llu)\n",
              static_cast<unsigned long long>(migrations),
              static_cast<unsigned long long>(moved_ops_counter->value()));

  // The feedback loop must fire everywhere, even where the ratio gate is
  // informational: a rebalancer that never migrates under 2x skew is
  // broken regardless of core count.
  if (migrations == 0) {
    std::printf("\nverdict: FAIL — rebalancer never migrated under a %d%% "
                "hotspot\n", kHotPct);
    return 1;
  }

  bool gated = cores >= 4;
  const double first_pass_ratio = ratio;
  bool pass = ratio >= kGateRatio;
  if (gated && !pass) {
    // Same noisy-runner policy as the other throughput gates: re-measure
    // the two legs once before failing.
    std::printf("\nretrying verdict measurement (first pass %.3f)...\n",
                ratio);
    World uniform_world(/*rebalance_interval_ms=*/0);
    (void)uniform_world.service->sharded()->MigrateProject(
        uniform_world.projects[4], 1);
    double uniform_retry = Drive(uniform_world, kMeasureSeconds);
    World rebalanced_world(/*rebalance_interval_ms=*/25);
    uint64_t m0 = migrations_counter->value();
    auto warmup0 = std::chrono::steady_clock::now();
    while (migrations_counter->value() == m0 &&
           SecondsSince(warmup0) < kWarmupDeadlineSeconds) {
      (void)Drive(rebalanced_world, 0.25);
    }
    double rebalanced_retry = Drive(rebalanced_world, kMeasureSeconds);
    double retry =
        uniform_retry > 0.0 ? rebalanced_retry / uniform_retry : 0.0;
    std::printf("retry: uniform %.0f tasks/s, rebalanced %.0f tasks/s "
                "(%.3f)\n", uniform_retry, rebalanced_retry, retry);
    if (retry > ratio) ratio = retry;
    pass = ratio >= kGateRatio;
  }
  std::string gate = gated ? (pass ? "pass" : "fail") : "informational";

  // Machine-readable summary (stdout + BENCH_rebalance.json), written once
  // the verdict is in: skew_recovery_ratio and gate are the ones that set
  // the exit code; the *_tps legs and first_pass_ratio are the first pass.
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"rebalance\",\"host_cores\":%zu,\"hot_pct\":%d,"
      "\"shards\":%zu,\"projects\":%zu,\"uniform_tps\":%.1f,"
      "\"static_tps\":%.1f,\"rebalanced_tps\":%.1f,"
      "\"skew_recovery_ratio\":%.3f,\"first_pass_ratio\":%.3f,"
      "\"static_ratio\":%.3f,\"migrations\":%llu,\"gate_ratio\":%.2f,"
      "\"gate\":\"%s\"}",
      cores, kHotPct, kShards, kProjects, uniform_tps, static_tps,
      rebalanced_tps, ratio, first_pass_ratio, static_ratio,
      static_cast<unsigned long long>(migrations), kGateRatio, gate.c_str());
  std::printf("\n%s\n", buf);
  std::ofstream("BENCH_rebalance.json") << buf << "\n";

  if (!gated) {
    std::printf("\nverdict: informational — host has %zu core(s); placement "
                "cannot change throughput without shard parallelism "
                "(measured %.3f of uniform; %llu migration(s) fired)\n",
                cores, ratio, static_cast<unsigned long long>(migrations));
    return 0;
  }
  std::printf("\nverdict: rebalanced throughput %s %.0f%% of the uniform "
              "oracle (%.3f)\n",
              pass ? "reaches" : "FAILS TO REACH", kGateRatio * 100.0,
              ratio);
  return pass ? 0 : 1;
}
