#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/client.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace perfbench {

namespace api = itag::api;
namespace core = itag::core;
using Clock = std::chrono::steady_clock;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kDashboardRead, Workload::kTaggingIngest,
                     Workload::kUploadOverflow, Workload::kClockPoll}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDashboardRead:
      return "dashboard_read";
    case Workload::kTaggingIngest:
      return "tagging_ingest";
    case Workload::kUploadOverflow:
      return "upload_overflow";
    case Workload::kClockPoll:
      return "clock_poll";
  }
  return "?";
}

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kDashboardRead:
      return {200, 2000, 300, 2, 1, 64, 0};
    case Workload::kTaggingIngest:
      return {50, 600, 150, 2, 1, 64, 0};
    case Workload::kUploadOverflow:
      return {20, 600, 200, 2, 1, 1, 64};
    case Workload::kClockPoll:
      return {20000, 100000, 2000, 2, 8, 64, 0};
  }
  return {};
}

Op MakeOp(Workload w, uint64_t seed, uint64_t index) {
  // Each op has its own stream, so any connection can draw any op and a
  // prefix of the sequence is the same whoever replays it.
  itag::Rng rng(seed, 2 * index + 1);
  static const itag::ZipfSampler project_zipf(kProjects, kProjectZipf);
  // A seeded rotation decides which project is the hot one.
  const uint32_t rotation = itag::Rng(seed, 0).Uniform(kProjects);
  Op op;
  op.index = index;
  op.project = (project_zipf.Sample(&rng) + rotation) % kProjects;
  op.tagger = rng.Uniform(kTaggers);
  switch (w) {
    case Workload::kDashboardRead: {
      const uint32_t shape = rng.Uniform(10);  // 7 snapshot, 2 feed, 1 details
      op.feed = shape >= 7 && shape < 9;
      if (shape == 9) {
        for (size_t k = 0; k < kDetailResources; ++k) {
          op.details.push_back(rng.Uniform(kResourcesPerProject));
        }
      }
      break;
    }
    case Workload::kTaggingIngest:
      op.task_tags.resize(kCycleTasks);
      for (auto& tags : op.task_tags) {
        tags = {DrawTag(&rng), DrawTag(&rng)};
      }
      break;
    case Workload::kUploadOverflow:
      op.uploads.resize(kUploadBatch);
      for (uint32_t j = 0; j < kUploadBatch; ++j) {
        api::UploadResourceItem& item = op.uploads[j];
        item.uri = "https://upload.example/" + std::to_string(seed) + "/" +
                   std::to_string(index) + "/" + std::to_string(j);
        item.description = "uploaded item " + std::to_string(j);
        for (uint32_t t = 0; t < kInitialTags; ++t) {
          item.initial_tags.push_back(DrawTag(&rng));
        }
      }
      break;
    case Workload::kClockPoll:
      break;
  }
  return op;
}

uint64_t PayloadBytes(const Op& op) {
  uint64_t bytes = 0;
  for (const auto& tags : op.task_tags) {
    for (const std::string& t : tags) bytes += t.size();
  }
  for (const api::UploadResourceItem& item : op.uploads) {
    bytes += item.uri.size() + item.description.size();
    for (const std::string& t : item.initial_tags) bytes += t.size();
  }
  return bytes;
}

uint64_t OpDigest(Workload w, uint64_t seed, uint64_t first, uint64_t count) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  for (uint64_t i = first; i < first + count; ++i) {
    Op op = MakeOp(w, seed, i);
    mix(std::to_string(op.project) + "/" + std::to_string(op.tagger) + "/" +
        std::to_string(op.feed));
    for (auto r : op.details) mix(std::to_string(r));
    for (const auto& tags : op.task_tags) {
      for (const std::string& t : tags) mix(t);
    }
    for (const auto& item : op.uploads) {
      mix(item.uri);
      for (const std::string& t : item.initial_tags) mix(t);
    }
  }
  return h;
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  accepted += o.accepted;
  submitted_ok += o.submitted_ok;
  approved_ok += o.approved_ok;
  payload_bytes += o.payload_bytes;
  for (size_t p = 0; p < uploaded.size(); ++p) uploaded[p] += o.uploaded[p];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Host-wide (steal, total) jiffies from the aggregate cpu line.
std::pair<uint64_t, uint64_t> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

// Server-side frame counts: frames received, frames that went through
// dispatch grouping and the groups they formed, frames flushed and flushes.
struct FrameCounts {
  uint64_t frames, grouped, groups, flushed, flushes;
  static FrameCounts Read() {
    itag::obs::MetricsRegistry& reg = itag::obs::MetricsRegistry::Default();
    const itag::obs::Histogram* batch =
        reg.GetHistogram("net.dispatch.batch_size");
    const itag::obs::Histogram* flush =
        reg.GetHistogram("net.flush.coalesced_frames");
    return {reg.GetCounter("net.frames")->value(), batch->sum(),
            batch->count(), flush->sum(), flush->count()};
  }
};

// Closed-loop load generator. Connection c runs ops first+c,
// first+c+conns, ... on its own thread, and connection 0 also issues the
// periodic checkpoints. clock_poll drives every connection from one thread
// instead, so that the client does not add runnable threads to a pipelined
// mix whose server side (one reactor, two workers) already keeps three busy.
struct LoadGenerator {
  Workload w;
  uint64_t seed;
  Shape shape;
  uint16_t port;
  const WorldIds* ids;
  itag::Tick now;

  size_t Threads() const {
    return w == Workload::kClockPoll ? 1 : shape.connections;
  }

  void Run(uint64_t first, uint64_t count, size_t conn,
           std::atomic<size_t>* ready, const std::atomic<bool>* go,
           std::vector<double>* lat, Tally* tally,
           std::vector<std::string>* errors) const {
    const size_t nclients = w == Workload::kClockPoll ? shape.connections : 1;
    std::vector<itag::net::Client> clients(nclients);
    itag::Status c;
    for (itag::net::Client& client : clients) {
      if (c.ok()) c = client.Connect("127.0.0.1", port);
    }
    std::vector<Op> ops;
    if (w != Workload::kClockPoll) {
      for (uint64_t i = first + conn; i < first + count;
           i += shape.connections) {
        ops.push_back(MakeOp(w, seed, i));
      }
    }
    ready->fetch_add(1);
    while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
    if (!c.ok()) {
      errors->push_back("connect: " + c.ToString());
      return;
    }
    if (w == Workload::kClockPoll) {
      RunPipelined(&clients, first, count, lat, tally);
      return;
    }
    NetCaller caller{&clients[0]};
    for (const Op& op : ops) {
      if (shape.checkpoint_every != 0 && conn == 0 &&
          op.index % shape.checkpoint_every == 0) {
        auto cp = clients[0].Checkpoint({});
        if (!cp.ok() || !cp.value().status.ok()) {
          errors->push_back("checkpoint failed");
        }
      }
      const Clock::time_point t0 = Clock::now();
      ExecuteOp(caller, w, op, *ids, now, tally);
      lat->push_back(1e6 * Seconds(Clock::now() - t0));
    }
  }

  // Step(0) with `window` requests outstanding on every connection; latency
  // runs from send to the reply's arrival.
  void RunPipelined(std::vector<itag::net::Client>* clients, uint64_t first,
                    uint64_t count, std::vector<double>* lat,
                    Tally* tally) const {
    const size_t n = clients->size();
    std::vector<std::deque<std::pair<uint64_t, Clock::time_point>>> inflight(n);
    std::vector<uint64_t> next(n);
    for (size_t k = 0; k < n; ++k) next[k] = first + k;
    const uint64_t end = first + count;
    for (bool busy = true; busy;) {
      busy = false;
      for (size_t k = 0; k < n; ++k) {
        while (inflight[k].size() < shape.window && next[k] < end) {
          ++tally->attempted;
          next[k] += n;
          auto id = (*clients)[k].DispatchAsync(api::StepRequest{0});
          if (!id.ok()) {
            ++tally->failed;
            continue;
          }
          inflight[k].emplace_back(id.value(), Clock::now());
        }
      }
      for (size_t k = 0; k < n; ++k) {
        if (inflight[k].empty()) continue;
        busy = true;
        auto [id, t0] = inflight[k].front();
        inflight[k].pop_front();
        auto r = (*clients)[k].Await(id);
        lat->push_back(1e6 * Seconds(Clock::now() - t0));
        const auto* s = detail::As<api::StepResponse>(r);
        if (s == nullptr || !s->status.ok() || s->now != now) ++tally->failed;
      }
    }
  }

  // Runs ops [first, first + count) across the connections; returns the
  // wall time between releasing the connections and the last reply.
  double Phase(uint64_t first, uint64_t count, std::vector<double>* lat,
               Tally* tally, std::vector<std::string>* errors,
               double* cpu_s, uint64_t* steal, uint64_t* ticks) const {
    const size_t n = Threads();
    std::vector<std::vector<double>> lats(n);
    std::vector<Tally> tallies(n);
    std::vector<std::vector<std::string>> errs(n);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        Run(first, count, c, &ready, &go, &lats[c], &tallies[c], &errs[c]);
      });
    }
    while (ready.load() < n) std::this_thread::yield();
    const auto [steal0, ticks0] = StealAndTotalTicks();
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const double wall = Seconds(Clock::now() - t0);
    *cpu_s = CpuSeconds() - cpu0;
    const auto [steal1, ticks1] = StealAndTotalTicks();
    *steal = steal1 - steal0;
    *ticks = ticks1 - ticks0;
    for (size_t c = 0; c < n; ++c) {
      lat->insert(lat->end(), lats[c].begin(), lats[c].end());
      tally->Merge(tallies[c]);
      errors->insert(errors->end(), errs[c].begin(), errs[c].end());
    }
    return wall;
  }
};

}  // namespace

Round RunRound(Workload w, uint64_t seed, const std::string& dir,
               bool storage_reopen) {
  namespace fs = std::filesystem;
  const Shape shape = ShapeOf(w);
  Round round;
  std::vector<std::string>& fails = round.check_failures;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  uint64_t user_bytes = 0;
  WorldIds ids;
  std::vector<std::string> before_close;
  {
    const Clock::time_point s0 = Clock::now();
    const double setup_cpu0 = CpuSeconds();
    World world(dir, shape.page_cache_mb);
    itag::Status built = world.Build(seed, &user_bytes);
    if (built.ok()) built = world.StartServer();
    round.setup_s = CpuSeconds() - setup_cpu0;
    round.setup_wall_s = Seconds(Clock::now() - s0);
    if (!built.ok()) {
      fails.push_back("setup: " + built.ToString());
      return round;
    }
    ids = world.ids();
    const uint64_t paid0 = world.sharded().TotalPaidCents();
    const LoadGenerator load{w,    seed, shape, world.port(), &ids,
                             world.sharded().Now()};

    std::vector<double> warm_lat;
    double cpu_s = 0;
    uint64_t steal = 0, ticks = 0;
    load.Phase(0, shape.warmup_ops, &warm_lat, &round.tally, &fails, &cpu_s,
                 &steal, &ticks);

    std::vector<std::string> reads_before;
    uint64_t wal_before = 0;
    if (w == Workload::kDashboardRead) {
      reads_before = EncodedProjectPayloads(world.service(), ids);
      wal_before = BytesUnder(dir, "wal.log");
    }

    std::vector<double> lat;
    Tally timed;
    const FrameCounts f0 = FrameCounts::Read();
    const double wall =
        load.Phase(shape.warmup_ops, shape.timed_ops, &lat, &timed, &fails,
                     &cpu_s, &round.steal_ticks, &round.cpu_ticks);
    round.peak_rss_mb = PeakRssMb();
    const FrameCounts f1 = FrameCounts::Read();
    const uint64_t frames = f1.frames - f0.frames;
    const uint64_t dispatches =
        (f1.groups - f0.groups) + frames - (f1.grouped - f0.grouped);
    round.frames_per_dispatch =
        dispatches == 0 ? 0.0 : static_cast<double>(frames) / dispatches;
    round.frames_per_flush =
        f1.flushes == f0.flushes
            ? 0.0
            : static_cast<double>(f1.flushed - f0.flushed) /
                  static_cast<double>(f1.flushes - f0.flushes);
    const double done = static_cast<double>(timed.attempted - timed.failed);
    round.ops_per_s = done / wall;
    round.cpu_us_per_op = 1e6 * cpu_s / std::max(done, 1.0);
    round.p50_us = Median(lat);
    round.latency_samples = lat.size();
    round.tally.Merge(timed);

    // Output checks, on the quiesced world.
    const Tally& t = round.tally;
    switch (w) {
      case Workload::kDashboardRead:
        if (EncodedProjectPayloads(world.service(), ids) != reads_before) {
          fails.push_back("dashboard_read: payloads changed across the phase");
        }
        if (BytesUnder(dir, "wal.log") != wal_before) {
          fails.push_back("dashboard_read: WAL grew across the phase");
        }
        break;
      case Workload::kTaggingIngest: {
        const uint64_t paid = world.sharded().TotalPaidCents() - paid0;
        if (t.accepted != t.submitted_ok || t.submitted_ok != t.approved_ok) {
          fails.push_back("tagging_ingest: accepted " +
                          std::to_string(t.accepted) + ", submitted " +
                          std::to_string(t.submitted_ok) + ", approved " +
                          std::to_string(t.approved_ok));
        }
        if (paid != t.approved_ok * kPayCents) {
          fails.push_back("tagging_ingest: paid " + std::to_string(paid) +
                          " cents for " + std::to_string(t.approved_ok) +
                          " approvals");
        }
        break;
      }
      case Workload::kUploadOverflow:
        for (uint32_t p = 0; p < kProjects; ++p) {
          api::ProjectQueryRequest q;
          q.project = ids.projects[p];
          const auto r = world.service().ProjectQuery(q);
          if (r.info.num_resources != kResourcesPerProject + t.uploaded[p]) {
            fails.push_back("upload_overflow: project " + std::to_string(p) +
                            " has " + std::to_string(r.info.num_resources) +
                            " resources");
          }
        }
        break;
      case Workload::kClockPoll:
        if (world.sharded().Now() != load.now) {
          fails.push_back("clock_poll: the clock moved");
        }
        break;
    }
    before_close = EncodedProjectPayloads(world.service(), ids);
    world.StopServer();
  }  // closed without a final checkpoint: recovery replays the phase's WAL

  user_bytes += round.tally.payload_bytes;
  round.disk_bytes_per_user_byte =
      static_cast<double>(BytesUnder(dir)) / static_cast<double>(user_bytes);
  round.page_file_bytes_per_shard =
      static_cast<double>(BytesUnder(dir, "pages.db")) / kShards;

  if (storage_reopen) {
    const itag::core::ShardedSystemOptions o =
        World::Options(dir, shape.page_cache_mb);
    for (size_t s = 0; s < kShards; ++s) {
      itag::storage::DatabaseOptions db = o.shard.db;
      db.directory = dir + "/shard-" + std::to_string(s);
      itag::storage::Database database;
      const Clock::time_point o0 = Clock::now();
      itag::Status opened = database.Open(db);
      round.storage_open_s += Seconds(Clock::now() - o0);
      if (!opened.ok()) fails.push_back("storage reopen: " + opened.ToString());
      round.replayed_records += database.recovery_stats().wal_records_replayed;
    }
  }

  {
    const Clock::time_point r0 = Clock::now();
    const double recover_cpu0 = CpuSeconds();
    api::Service recovered(World::Options(dir, shape.page_cache_mb));
    itag::Status init = recovered.Init();
    api::ProjectQueryRequest q;
    q.project = ids.projects[0];
    const bool answered = init.ok() && recovered.ProjectQuery(q).status.ok();
    round.recover_s = CpuSeconds() - recover_cpu0;
    round.recover_wall_s = Seconds(Clock::now() - r0);
    if (!answered) {
      fails.push_back("recovery: " + init.ToString());
    } else if (EncodedProjectPayloads(recovered, ids) != before_close) {
      fails.push_back("recovery: payloads differ after reopen");
    }
  }
  fs::remove_all(dir, ec);
  round.tally.failed += fails.size();
  return round;
}

}  // namespace perfbench
