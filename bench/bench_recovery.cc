// bench_recovery — durability cost curves of the write-through core:
// checkpoint latency and cold-recovery time as a function of state size
// (1k / 10k / 100k approved posts driven through the full audience
// accept→submit→decide workflow on a durable ITagSystem).
//
// Two recovery paths are timed per size on the snapshot engine:
//   wal_recover_ms   reopen with NO checkpoint — full WAL replay;
//   snap_recover_ms  reopen right after a checkpoint — snapshot load plus
//                    an empty WAL tail (what a healthy daemon restart pays).
//
// A second sweep (10k / 100k / 1M posts; the max is argv[1]-overridable)
// runs the PAGED engine (storage/pager) and times the storage-level cold
// start: a clean storage::Database::Open of the checkpointed directory,
// which reads only the page-file meta + catalog — no WAL replay, no row
// scan. This sweep IS gated, twice; the snapshot engine's O(rows) curves
// stay informational:
//   * the physical page reads of an open (the storage.page.reads delta
//     across it) must not grow with post count. A page count repeats
//     exactly on any host.
//   * the median of kColdOpens reopens must grow sublinearly in post count
//     (ratio < sqrt(posts ratio)). The first open after the build is
//     recorded as first_open_ms, informational only: it waits on the host
//     writing back the page file the build just wrote, so it follows the
//     file's size, not the pages the open reads.
//
// Each paged size then times one service-level ITagSystem::Init of the same
// checkpointed directory (init_ms, informational) and counts the page pins
// it makes: the storage.page.cache_hits + cache_misses delta, per row. The
// count is gated: recovery reads each table with one scan, so a pin serves
// many rows, and a restore that fetched rows one by one (a root-to-leaf
// descent per row) would pin about 3 pages per row. The sweep is seeded and
// single-threaded, so the count repeats exactly on any host.
//
// The same Init is also weighed: the heap bytes it leaves allocated (the
// mallinfo2() uordblks delta from before the system is built to after its
// Init, with the system alive), per post. At kInitHeapGatePosts posts that
// is gated: each post lives once, as its `posts` row, and the corpus keeps
// only per-resource statistics, so RAM must not hold a copy of the post
// log. Init is single-threaded, so the count repeats run to run.
//
// The snapshot sweep's WAL size is gated too: at the largest size the log
// may hold at most kMaxWalBytesPerPost bytes per approved post. The sweep
// is single-threaded and seeded, so the byte count repeats exactly on any
// host and noise cannot flip this gate.
//
// So is the paged page file against the rows it stores: at
// kPageFileGatePosts posts the page file may be at most kMaxPageFileToRows
// times the bytes of the live rows, each as EncodeRow writes it. Rows are
// appended in key order, so a B+tree that splits its right edge at the
// midpoint leaves every leaf half full and a file about twice the data.
// Both byte counts repeat exactly on any host.
//
// Output: tables on stdout plus BENCH_recovery.json (schema in
// docs/benchmarks.md; the `page_cache_mb` field records the paged sweep's
// cache budget, and `wal_gate`, `cold_open_reads_gate`, `cold_open_gate`,
// `init_pins_gate`, `page_file_gate` and `init_heap_gate` the six verdicts
// that set the exit code).

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "itag/itag_system.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/row_store.h"

using namespace itag;  // NOLINT

namespace {

namespace fs = std::filesystem;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Exits the bench when `status` failed; `what` names the step.
void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

struct Sample {
  uint32_t posts = 0;
  double build_ms = 0;
  double wal_recover_ms = 0;
  double checkpoint_ms = 0;
  double snap_recover_ms = 0;
  uint64_t rows = 0;
  uintmax_t wal_bytes = 0;
  uintmax_t snapshot_bytes = 0;
};

/// Page-cache budget for the paged sweep; recorded in the JSON so runs with
/// different budgets are comparable.
constexpr size_t kPagedCacheMb = 64;

/// WAL bytes per approved post allowed at the largest snapshot size. Each
/// call's batch logs one image per row it touches (docs/persistence.md); a
/// log with one sub-record per row write took 888 bytes per post when rows
/// and batch sub-records had fixed-width fields, and the bound was half of
/// that, 444. Varint rows and sub-records shrank the same seeded log from
/// 34,938,454 to 15,886,525 bytes (349.4 to 158.9 per post), so the bound
/// is restated in those bytes: 444 x 15,886,525 / 34,938,454, about 202.
constexpr double kMaxWalBytesPerPost = 202.0;

/// Page pins per row allowed across a service-level Init of a checkpointed
/// paged directory, at every paged size.
constexpr double kMaxInitPinsPerRow = 0.5;

/// The posts at which the paged page file is weighed against the encoded
/// bytes of the rows it holds, and the most it may weigh.
constexpr uint32_t kPageFileGatePosts = 100000;
constexpr double kMaxPageFileToRows = 1.5;

/// The posts at which the heap a service-level Init holds is gated, and
/// the most it may hold per post: half of the 249.5 bytes it held while
/// the corpus kept every post and the `posts` table an ordered index.
constexpr uint32_t kInitHeapGatePosts = 1000000;
constexpr double kMaxInitHeapBytesPerPost = 249.5 / 2;

/// Reopens of each checkpointed paged directory; the gate takes their
/// median time.
constexpr int kColdOpens = 5;

core::ITagSystemOptions Opts(const std::string& dir) {
  core::ITagSystemOptions opts;
  opts.db.directory = dir;
  return opts;
}

core::ITagSystemOptions PagedOpts(const std::string& dir) {
  core::ITagSystemOptions opts;
  opts.db.directory = dir;
  opts.db.paged = true;
  opts.db.page_cache_mb = kPagedCacheMb;
  return opts;
}

struct PagedSample {
  uint32_t posts = 0;
  double build_ms = 0;
  double checkpoint_ms = 0;
  double first_open_ms = 0;  ///< the first open after the build
  double cold_open_ms = 0;   ///< median of kColdOpens reopens
  uint64_t cold_open_page_reads = 0;  ///< most page reads of any one open
  double init_ms = 0;  ///< service-level Init of the same directory
  double init_page_pins_per_row = 0;  ///< page pins of that Init, per row
  double init_heap_bytes_per_post = 0;  ///< heap that Init holds, per post
  uint64_t rows = 0;
  uintmax_t page_file_bytes = 0;
  uint64_t live_row_bytes = 0;  ///< EncodeRow bytes of every live row
};

/// Drives `posts` approved posts through a durable system configured by
/// `opts`. With `checkpoint_ms` non-null, checkpoints before closing and
/// records the latency (the paged sweep needs the state checkpointed so the
/// subsequent cold open reads meta + catalog only).
void BuildState(const core::ITagSystemOptions& opts, uint32_t posts,
                double* checkpoint_ms = nullptr) {
  core::ITagSystem system(opts);
  CheckOk(system.Init(), "init");
  core::ProviderId provider = system.RegisterProvider("prov").value_or(0);
  core::UserTaggerId tagger = system.RegisterTagger("tagger").value_or(0);
  core::ProjectSpec spec;
  spec.name = "recovery-bench";
  spec.budget = posts;
  spec.pay_cents = 2;
  spec.platform = core::PlatformChoice::kAudience;
  spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  core::ProjectId project = system.CreateProject(provider, spec).value_or(0);
  std::vector<core::ResourceUpload> uploads;
  const uint32_t resources = std::max<uint32_t>(16, posts / 100);
  for (uint32_t r = 0; r < resources; ++r) {
    uploads.push_back(
        {tagging::ResourceKind::kWebUrl, "res-" + std::to_string(r), "", {}});
  }
  std::vector<tagging::ResourceId> ids;
  (void)system.UploadResourceBatch(project, uploads, &ids);
  (void)system.ControlBatch(project, {{core::ControlAction::kStart}});

  uint32_t done = 0;
  while (done < posts) {
    Result<std::vector<core::AcceptedTask>> accepted =
        system.AcceptTasks(tagger, project, 512);
    if (!accepted.ok() || accepted.value().empty()) break;
    std::vector<core::TagSubmission> submit;
    std::vector<std::pair<core::TaskHandle, bool>> decide;
    for (const core::AcceptedTask& task : accepted.value()) {
      submit.push_back({tagger, task.handle,
                        {"tag-" + std::to_string(task.resource % 32),
                         "common-" + std::to_string(task.handle % 7)}});
      decide.emplace_back(task.handle, true);
    }
    (void)system.SubmitTagsBatch(submit);
    (void)system.DecideBatch(provider, decide);
    done += static_cast<uint32_t>(accepted.value().size());
  }
  if (checkpoint_ms != nullptr) {
    auto ck_start = std::chrono::steady_clock::now();
    Result<core::CheckpointInfo> ck = system.Checkpoint();
    *checkpoint_ms = MsSince(ck_start);
    CheckOk(ck.status(), "checkpoint");
  }
}

/// Times one Init() (open + recover) on the existing directory.
double TimeRecover(const std::string& dir, uint64_t* rows) {
  auto start = std::chrono::steady_clock::now();
  core::ITagSystem system(Opts(dir));
  Status init = system.Init();
  double ms = MsSince(start);
  CheckOk(init, "recovery");
  *rows = system.database().TotalRows();
  return ms;
}

/// Times a storage-level cold open of a checkpointed paged directory: a
/// fresh storage::Database::Open that reads the page-file meta + catalog
/// and must not replay any WAL frames. This is the quantity the sublinear
/// gate measures — the service-level Init() on top of it rebuilds in-memory
/// indexes and manager state, which is inherently O(rows) in any engine.
/// `page_reads` receives the storage.page.reads delta across the Open.
double TimeColdOpen(const std::string& dir, uint64_t* rows,
                    uint64_t* page_reads) {
  storage::DatabaseOptions opts;
  opts.directory = dir;
  opts.paged = true;
  opts.page_cache_mb = kPagedCacheMb;
  auto db = std::make_unique<storage::Database>();
  obs::Counter* reads =
      obs::MetricsRegistry::Default().GetCounter("storage.page.reads");
  const uint64_t reads_before = reads->value();
  auto start = std::chrono::steady_clock::now();
  Status open = db->Open(opts);
  double ms = MsSince(start);
  *page_reads = reads->value() - reads_before;
  CheckOk(open, "paged cold open");
  if (db->recovery_stats().wal_records_replayed != 0) {
    std::fprintf(stderr,
                 "paged cold open replayed WAL frames after a checkpoint\n");
    std::exit(1);
  }
  *rows = db->TotalRows();
  return ms;
}

/// The bytes of every live row of the checkpointed paged directory `dir`,
/// each as EncodeRow writes it to a page: what the page file stores,
/// without the B+tree, page headers and free space around it.
uint64_t LiveRowBytes(const std::string& dir) {
  storage::DatabaseOptions opts;
  opts.directory = dir;
  opts.paged = true;
  opts.page_cache_mb = kPagedCacheMb;
  storage::Database db;
  CheckOk(db.Open(opts), "paged open for row bytes");
  uint64_t bytes = 0;
  for (const std::string& name : db.TableNames()) {
    CheckOk(db.GetTable(name)->Scan(
                [&](storage::RowId, const storage::Row& row) {
                  bytes += storage::EncodeRow(row).size();
                  return true;
                }),
            "row bytes scan");
  }
  return bytes;
}

/// Times one service-level ITagSystem::Init of a checkpointed paged
/// directory; `pins` receives the page pins it made (the
/// storage.page.cache_hits + cache_misses delta across the Init), and
/// `heap_bytes` the heap it holds once done (the mallinfo2() uordblks delta
/// from before the system is built, read while it is alive).
double TimeInit(const std::string& dir, uint64_t* pins, int64_t* heap_bytes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* hits = reg.GetCounter("storage.page.cache_hits");
  obs::Counter* misses = reg.GetCounter("storage.page.cache_misses");
  const uint64_t pins_before = hits->value() + misses->value();
  const size_t heap_before = mallinfo2().uordblks;
  auto start = std::chrono::steady_clock::now();
  core::ITagSystem system(PagedOpts(dir));
  Status init = system.Init();
  double ms = MsSince(start);
  *heap_bytes = static_cast<int64_t>(mallinfo2().uordblks) -
                static_cast<int64_t>(heap_before);
  *pins = hits->value() + misses->value() - pins_before;
  CheckOk(init, "paged init");
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  // argv[1] caps the largest paged size (default 1M posts) so CI or quick
  // local runs can bound the build phase.
  uint32_t paged_max = 1000000u;
  if (argc > 1) paged_max = static_cast<uint32_t>(std::atol(argv[1]));
  const std::string root =
      (fs::temp_directory_path() / "itag_bench_recovery").string();
  std::vector<Sample> samples;
  for (uint32_t posts : {1000u, 10000u, 100000u}) {
    const std::string dir = root + "/" + std::to_string(posts);
    fs::remove_all(dir);
    Sample s;
    s.posts = posts;

    auto build_start = std::chrono::steady_clock::now();
    BuildState(Opts(dir), posts);
    s.build_ms = MsSince(build_start);
    s.wal_bytes = fs::exists(dir + "/wal.log")
                      ? fs::file_size(dir + "/wal.log")
                      : 0;

    // Cold recovery #1: WAL replay only (no snapshot yet).
    s.wal_recover_ms = TimeRecover(dir, &s.rows);

    // Checkpoint latency, then cold recovery #2 off the snapshot.
    {
      core::ITagSystem system(Opts(dir));
      if (!system.Init().ok()) return 1;
      auto ck_start = std::chrono::steady_clock::now();
      Result<core::CheckpointInfo> ck = system.Checkpoint();
      s.checkpoint_ms = MsSince(ck_start);
      CheckOk(ck.status(), "checkpoint");
    }
    s.snapshot_bytes = fs::exists(dir + "/snapshot.db")
                           ? fs::file_size(dir + "/snapshot.db")
                           : 0;
    uint64_t rows_after = 0;
    s.snap_recover_ms = TimeRecover(dir, &rows_after);
    if (rows_after != s.rows) {
      std::fprintf(stderr, "row count diverged across recovery paths\n");
      return 1;
    }
    samples.push_back(s);
    fs::remove_all(dir);
  }

  // Paged-engine sweep: build + checkpoint, then time the storage-level
  // cold open. Sizes span two orders of magnitude so the gate below can
  // check that cold start does NOT scale with post count.
  std::vector<uint32_t> paged_sizes;
  for (uint32_t posts : {10000u, 100000u, 1000000u}) {
    if (posts < paged_max) paged_sizes.push_back(posts);
  }
  paged_sizes.push_back(paged_max);
  std::vector<PagedSample> paged;
  for (uint32_t posts : paged_sizes) {
    const std::string dir = root + "/paged-" + std::to_string(posts);
    fs::remove_all(dir);
    PagedSample p;
    p.posts = posts;

    auto build_start = std::chrono::steady_clock::now();
    BuildState(PagedOpts(dir), posts, &p.checkpoint_ms);
    p.build_ms = MsSince(build_start) - p.checkpoint_ms;
    p.page_file_bytes = fs::exists(dir + "/pages.db")
                            ? fs::file_size(dir + "/pages.db")
                            : 0;
    p.live_row_bytes = LiveRowBytes(dir);
    std::vector<double> opens;
    for (int i = 0; i <= kColdOpens; ++i) {
      uint64_t reads = 0;
      const double ms = TimeColdOpen(dir, &p.rows, &reads);
      p.cold_open_page_reads = std::max(p.cold_open_page_reads, reads);
      if (i == 0) {
        p.first_open_ms = ms;
      } else {
        opens.push_back(ms);
      }
    }
    std::sort(opens.begin(), opens.end());
    p.cold_open_ms = opens[opens.size() / 2];
    uint64_t pins = 0;
    int64_t heap_bytes = 0;
    p.init_ms = TimeInit(dir, &pins, &heap_bytes);
    p.init_page_pins_per_row =
        static_cast<double>(pins) / static_cast<double>(p.rows);
    p.init_heap_bytes_per_post =
        static_cast<double>(heap_bytes) / static_cast<double>(posts);
    paged.push_back(p);
    fs::remove_all(dir);
  }

  std::printf(
      "%8s %10s %9s %12s %12s %13s %10s %12s\n", "posts", "rows",
      "build_ms", "wal_rec_ms", "ckpt_ms", "snap_rec_ms", "wal_MB",
      "snapshot_MB");
  for (const Sample& s : samples) {
    std::printf("%8u %10llu %9.1f %12.1f %12.1f %13.1f %10.2f %12.2f\n",
                s.posts, static_cast<unsigned long long>(s.rows), s.build_ms,
                s.wal_recover_ms, s.checkpoint_ms, s.snap_recover_ms,
                s.wal_bytes / 1e6, s.snapshot_bytes / 1e6);
  }

  std::printf("\npaged engine (%zu MiB cache):\n", kPagedCacheMb);
  std::printf("%8s %10s %9s %12s %13s %13s %11s %9s %13s %12s %12s\n",
              "posts", "rows", "build_ms", "ckpt_ms", "first_open_ms",
              "cold_open_ms", "page_reads", "init_ms", "pins_per_row",
              "heap_B/post", "pagefile_MB");
  for (const PagedSample& p : paged) {
    std::printf(
        "%8u %10llu %9.1f %12.1f %13.2f %13.2f %11llu %9.1f %13.3f %12.1f "
        "%12.2f\n",
        p.posts, static_cast<unsigned long long>(p.rows), p.build_ms,
        p.checkpoint_ms, p.first_open_ms, p.cold_open_ms,
        static_cast<unsigned long long>(p.cold_open_page_reads), p.init_ms,
        p.init_page_pins_per_row, p.init_heap_bytes_per_post,
        p.page_file_bytes / 1e6);
  }

  const Sample& largest = samples.back();
  const double wal_per_post =
      static_cast<double>(largest.wal_bytes) / largest.posts;
  const bool wal_ok = wal_per_post <= kMaxWalBytesPerPost;
  std::printf(
      "\ngate: wal at %u posts: %.1f bytes per approved post (bound %.0f)\n",
      largest.posts, wal_per_post, kMaxWalBytesPerPost);

  // Gates: the paged cold open reads meta + catalog only. So its page
  // reads must not grow with post count, and its median reopen time must
  // grow sublinearly: the ratio strictly below the square root of the
  // ratio of posts. The denominator is floored at 5 ms so sub-millisecond
  // jitter on small states cannot flip the verdict. The snapshot-engine
  // curves above stay informational (they are O(rows) by design). One
  // paged size leaves nothing to compare: "skipped".
  std::string cold_gate = "skipped";
  std::string reads_gate = "skipped";
  if (paged.size() >= 2) {
    const PagedSample& small = paged.front();
    const PagedSample& large = paged.back();
    std::printf("gate: paged cold open %u->%u posts: %llu -> %llu page reads "
                "(bound: no growth)\n",
                small.posts, large.posts,
                static_cast<unsigned long long>(small.cold_open_page_reads),
                static_cast<unsigned long long>(large.cold_open_page_reads));
    reads_gate = large.cold_open_page_reads <= small.cold_open_page_reads
                     ? "pass"
                     : "fail";
    double cold_ratio = large.cold_open_ms / std::max(small.cold_open_ms, 5.0);
    double posts_ratio =
        static_cast<double>(large.posts) / static_cast<double>(small.posts);
    std::printf(
        "gate: paged cold open %u->%u posts, median of %d reopens: %.2f ms "
        "-> %.2f ms (ratio %.2f, sublinear bound %.2f)\n",
        small.posts, large.posts, kColdOpens, small.cold_open_ms,
        large.cold_open_ms, cold_ratio, std::sqrt(posts_ratio));
    cold_gate = cold_ratio < std::sqrt(posts_ratio) ? "pass" : "fail";
  }

  // Gate: a service-level Init pins at most kMaxInitPinsPerRow pages per
  // row at every paged size.
  bool init_pins_ok = true;
  for (const PagedSample& p : paged) {
    std::printf("gate: paged init at %u posts: %.3f page pins per row "
                "(bound %.1f)\n",
                p.posts, p.init_page_pins_per_row, kMaxInitPinsPerRow);
    if (p.init_page_pins_per_row > kMaxInitPinsPerRow) init_pins_ok = false;
  }

  // Gate: the page file of a checkpointed state is at most
  // kMaxPageFileToRows times the encoded bytes of its live rows. Skipped
  // when the paged sweep left out kPageFileGatePosts.
  std::string page_file_gate = "skipped";
  double page_file_ratio = 0;
  for (const PagedSample& p : paged) {
    if (p.posts != kPageFileGatePosts) continue;
    page_file_ratio = static_cast<double>(p.page_file_bytes) /
                      static_cast<double>(p.live_row_bytes);
    std::printf("gate: page file at %u posts: %.2f MB, %.2f x its live "
                "rows' %.2f MB (bound %.1f)\n",
                p.posts, p.page_file_bytes / 1e6, page_file_ratio,
                p.live_row_bytes / 1e6, kMaxPageFileToRows);
    page_file_gate = page_file_ratio <= kMaxPageFileToRows ? "pass" : "fail";
  }

  // Gate: at kInitHeapGatePosts posts a service-level Init holds at most
  // kMaxInitHeapBytesPerPost heap bytes per post. Skipped when the paged
  // sweep left that size out.
  std::string init_heap_gate = "skipped";
  for (const PagedSample& p : paged) {
    if (p.posts != kInitHeapGatePosts) continue;
    std::printf("gate: paged init at %u posts holds %.1f heap bytes per post "
                "(bound %.1f)\n",
                p.posts, p.init_heap_bytes_per_post, kMaxInitHeapBytesPerPost);
    init_heap_gate = p.init_heap_bytes_per_post <= kMaxInitHeapBytesPerPost
                         ? "pass"
                         : "fail";
  }

  // BENCH_*.json schema (see docs/benchmarks.md): one-line object with
  // "bench" and "host_cores", validated by the CI schema step.
  unsigned host_cores = std::thread::hardware_concurrency();
  std::string json = "{\"bench\":\"recovery\",\"host_cores\":" +
                     std::to_string(host_cores) + ",\"sizes\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"posts\":%u,\"rows\":%llu,\"build_ms\":%.1f,"
                  "\"wal_recover_ms\":%.1f,\"checkpoint_ms\":%.1f,"
                  "\"snap_recover_ms\":%.1f,\"wal_bytes\":%llu,"
                  "\"snapshot_bytes\":%llu}",
                  i == 0 ? "" : ",", s.posts,
                  static_cast<unsigned long long>(s.rows), s.build_ms,
                  s.wal_recover_ms, s.checkpoint_ms, s.snap_recover_ms,
                  static_cast<unsigned long long>(s.wal_bytes),
                  static_cast<unsigned long long>(s.snapshot_bytes));
    json += buf;
  }
  char wal_gate[96];
  std::snprintf(wal_gate, sizeof(wal_gate),
                "],\"wal_bytes_per_post\":%.1f,\"wal_gate\":\"%s\"",
                wal_per_post, wal_ok ? "pass" : "fail");
  json += wal_gate;
  json += ",\"cold_open_reads_gate\":\"" + reads_gate + "\"";
  json += ",\"cold_open_gate\":\"" + cold_gate + "\"";
  json += ",\"init_pins_gate\":\"" +
          std::string(init_pins_ok ? "pass" : "fail") + "\"";
  char page_file[96];
  std::snprintf(page_file, sizeof(page_file),
                ",\"page_file_to_rows\":%.2f,\"page_file_gate\":\"%s\"",
                page_file_ratio, page_file_gate.c_str());
  json += page_file;
  json += ",\"init_heap_gate\":\"" + init_heap_gate + "\"";
  json += ",\"page_cache_mb\":" + std::to_string(kPagedCacheMb) +
          ",\"paged\":[";
  for (size_t i = 0; i < paged.size(); ++i) {
    const PagedSample& p = paged[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"posts\":%u,\"rows\":%llu,\"build_ms\":%.1f,"
                  "\"checkpoint_ms\":%.1f,\"first_open_ms\":%.2f,"
                  "\"cold_open_ms\":%.2f,"
                  "\"cold_open_page_reads\":%llu,\"init_ms\":%.1f,"
                  "\"init_page_pins_per_row\":%.3f,"
                  "\"init_heap_bytes_per_post\":%.1f,"
                  "\"page_file_bytes\":%llu,\"live_row_bytes\":%llu}",
                  i == 0 ? "" : ",", p.posts,
                  static_cast<unsigned long long>(p.rows), p.build_ms,
                  p.checkpoint_ms, p.first_open_ms, p.cold_open_ms,
                  static_cast<unsigned long long>(p.cold_open_page_reads),
                  p.init_ms, p.init_page_pins_per_row,
                  p.init_heap_bytes_per_post,
                  static_cast<unsigned long long>(p.page_file_bytes),
                  static_cast<unsigned long long>(p.live_row_bytes));
    json += buf;
  }
  json += "]}";
  std::cout << "\n" << json << "\n";
  std::ofstream("BENCH_recovery.json") << json << "\n";

  int exit_code = 0;
  if (!wal_ok) {
    std::fprintf(stderr,
                 "FAIL: the wal grew past %.0f bytes per approved post "
                 "(same-row rewrites inside a batch are logged again)\n",
                 kMaxWalBytesPerPost);
    exit_code = 1;
  }
  if (reads_gate == "fail") {
    std::fprintf(stderr,
                 "FAIL: paged cold open reads more pages at more posts "
                 "(O(catalog) restart regressed)\n");
    exit_code = 1;
  }
  if (cold_gate == "fail") {
    std::fprintf(stderr,
                 "FAIL: paged cold start scales with post count "
                 "(O(catalog) restart regressed)\n");
    exit_code = 1;
  }
  if (!init_pins_ok) {
    std::fprintf(stderr,
                 "FAIL: paged init pins more than %.1f pages per row "
                 "(recovery reads rows one at a time)\n",
                 kMaxInitPinsPerRow);
    exit_code = 1;
  }
  if (page_file_gate == "fail") {
    std::fprintf(stderr,
                 "FAIL: the page file outweighs its live rows by more than "
                 "%.1fx (appended rows leave their pages part empty)\n",
                 kMaxPageFileToRows);
    exit_code = 1;
  }
  if (init_heap_gate == "fail") {
    std::fprintf(stderr,
                 "FAIL: paged init holds more than %.1f heap bytes per post "
                 "(RAM keeps a copy of the post log)\n",
                 kMaxInitHeapBytesPerPost);
    exit_code = 1;
  }
  std::printf(
      "snapshot-engine columns are informational: checkpoint cost and "
      "recovery time stay roughly linear in state size by design.\n");
  return exit_code;
}
