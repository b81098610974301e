// E9 — storage-engine microbenchmarks (the MySQL substrate of Fig. 2):
// heap inserts, unique-index point lookups, WAL appends, and full
// checkpoint+recovery cycles. Validates that the embedded engine sustains
// the manager workloads comfortably.
// Since the batch-API redesign it also measures the resource-ingest path
// end to end through itag::api::Service — one-item UploadResourceBatch
// calls on the core vs one BatchUploadResources request hitting the same
// tables.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "api/service.h"
#include "common/random.h"
#include "storage/database.h"

namespace {

using namespace itag;           // NOLINT
using namespace itag::storage;  // NOLINT

Schema PostSchema() {
  return SchemaBuilder()
      .Int("project")
      .Int("resource")
      .Int("tagger")
      .Str("tags")
      .Build();
}

Row PostRow(int64_t i) {
  return {Value::Int(i % 13), Value::Int(i % 601), Value::Int(i % 97),
          Value::Str("tag-a,tag-b,tag-c")};
}

void BM_TableInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Table t("posts", PostSchema());
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(t.Insert(PostRow(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableInsert)->Arg(1000)->Arg(10000);

void BM_UniqueLookup(benchmark::State& state) {
  Table t("users", SchemaBuilder().Int("id").Str("name").Build());
  (void)t.AddUniqueIndex("id");
  for (int64_t i = 0; i < 10000; ++i) {
    (void)t.Insert({Value::Int(i), Value::Str("user")});
  }
  Rng rng(5);
  for (auto _ : state) {
    int64_t key = rng.Uniform(10000);
    benchmark::DoNotOptimize(t.LookupUnique("id", Value::Int(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniqueLookup);

void BM_WalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "itag_bench_wal").string();
  fs::create_directories(dir);
  WalWriter w;
  (void)w.Open(dir + "/wal.log");
  WalRecord rec;
  rec.op = WalOp::kInsert;
  rec.table = "posts";
  rec.payload = EncodeRow(PostRow(1));
  for (auto _ : state) {
    rec.row_id++;
    benchmark::DoNotOptimize(w.Append(rec).ok());
  }
  state.SetItemsProcessed(state.iterations());
  w.Close();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend);

void BM_CheckpointRecover(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "itag_bench_ckpt").string();
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    {
      Database db;
      DatabaseOptions opts;
      opts.directory = dir;
      (void)db.Open(opts);
      (void)db.CreateTable("posts", PostSchema());
      for (int64_t i = 0; i < state.range(0); ++i) {
        (void)db.Insert("posts", PostRow(i));
      }
      (void)db.Checkpoint();
    }
    Database db;
    DatabaseOptions opts;
    opts.directory = dir;
    (void)db.Open(opts);
    benchmark::DoNotOptimize(db.TotalRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointRecover)->Arg(5000);

// --------------------------------------------------- service-level ingest

/// One-shard core options: the ids and RNG streams of a single system.
core::ShardedSystemOptions OneShard() {
  core::ShardedSystemOptions opts;
  opts.num_shards = 1;
  return opts;
}

/// A fresh in-memory service with one draft project, ready for uploads.
struct IngestFixture {
  api::Service service{OneShard()};
  core::ProjectId project = 0;

  IngestFixture() {
    (void)service.Init();
    core::ProviderId owner = service.RegisterProvider({"bench"}).provider;
    api::CreateProjectRequest create;
    create.provider = owner;
    create.spec.name = "ingest";
    create.spec.budget = 1;
    project = service.CreateProject(create).project;
  }
};

void BM_ServiceUploadPerCall(benchmark::State& state) {
  std::vector<std::vector<core::ResourceUpload>> singles;
  for (int64_t i = 0; i < state.range(0); ++i) {
    singles.push_back(
        {{tagging::ResourceKind::kWebUrl, "url-" + std::to_string(i), "", {}}});
  }
  std::vector<tagging::ResourceId> ids;
  for (auto _ : state) {
    state.PauseTiming();
    IngestFixture fx;
    state.ResumeTiming();
    for (const std::vector<core::ResourceUpload>& items : singles) {
      benchmark::DoNotOptimize(
          fx.service.sharded()->UploadResourceBatch(fx.project, items, &ids));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceUploadPerCall)->Arg(1000);

void BM_ServiceUploadBatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    IngestFixture fx;
    api::BatchUploadResourcesRequest req;
    req.project = fx.project;
    for (int64_t i = 0; i < state.range(0); ++i) {
      api::UploadResourceItem item;
      item.uri = "url-" + std::to_string(i);
      req.items.push_back(std::move(item));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(fx.service.BatchUploadResources(req));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceUploadBatch)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
