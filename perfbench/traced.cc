#include "traced.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "common/sharding.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace perfbench {

namespace api = itag::api;
namespace core = itag::core;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

struct SpanRec {
  uint64_t op;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  double us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

// Storage counters, read around each wire call on the durable world d1 (the
// other durable world writes to the same process-wide registry).
struct StorageCounters {
  uint64_t wal_bytes = 0, wal_appends = 0;
  uint64_t hits = 0, misses = 0, evictions = 0, page_writes = 0;

  static StorageCounters Read() {
    itag::obs::MetricsRegistry& reg = itag::obs::MetricsRegistry::Default();
    StorageCounters c;
    c.wal_bytes = reg.GetCounter("storage.wal.bytes")->value();
    c.wal_appends = reg.GetCounter("storage.wal.appends")->value();
    c.hits = reg.GetCounter("storage.page.cache_hits")->value();
    c.misses = reg.GetCounter("storage.page.cache_misses")->value();
    c.evictions = reg.GetCounter("storage.page.evictions")->value();
    c.page_writes = reg.GetCounter("storage.page.writes")->value();
    return c;
  }

  void AddDelta(const StorageCounters& a, const StorageCounters& b) {
    wal_bytes += b.wal_bytes - a.wal_bytes;
    wal_appends += b.wal_appends - a.wal_appends;
    hits += b.hits - a.hits;
    misses += b.misses - a.misses;
    evictions += b.evictions - a.evictions;
    page_writes += b.page_writes - a.page_writes;
  }
};

// Socket bytes in and out. Only d1 serves the wire, but the server counts
// bytes out after the client may already hold them, so these are read
// around the whole traced run, the last read after the server stopped.
uint64_t NetBytes() {
  itag::obs::MetricsRegistry& reg = itag::obs::MetricsRegistry::Default();
  return reg.GetCounter("net.bytes_in")->value() +
         reg.GetCounter("net.bytes_out")->value();
}

template <typename T>
bool AllOk(const std::vector<T>& statuses) {
  for (const auto& s : statuses) {
    if (!s.ok()) return false;
  }
  return true;
}

std::vector<core::ResourceUpload> Uploads(const Op& op) {
  std::vector<core::ResourceUpload> items;
  for (const api::UploadResourceItem& u : op.uploads) {
    items.push_back({u.kind, u.uri, u.description, u.initial_tags});
  }
  return items;
}

// The op entered at core::ShardedSystem (global ids, shard routing, shard
// mutex, snapshot refresh).
bool ShardedOp(core::ShardedSystem& sys, Workload w, const Op& op,
               const WorldIds& ids, itag::Tick now) {
  const core::ProjectId project = ids.projects[op.project];
  switch (w) {
    case Workload::kDashboardRead: {
      bool ok = sys.GetProjectInfo(project).ok();
      if (op.feed) ok = ok && !sys.QualityFeed(project).empty();
      for (itag::tagging::ResourceId r : op.details) {
        ok = ok && sys.GetResourceDetail(project, r).ok();
      }
      return ok;
    }
    case Workload::kTaggingIngest: {
      const core::UserTaggerId tagger = ids.taggers[op.tagger];
      auto acc = sys.AcceptTasks(tagger, project, kCycleTasks);
      if (!acc.ok() || acc.value().size() != kCycleTasks) return false;
      std::vector<core::TagSubmission> subs;
      std::vector<std::pair<core::TaskHandle, bool>> decisions;
      for (size_t j = 0; j < kCycleTasks; ++j) {
        subs.push_back({tagger, acc.value()[j].handle, op.task_tags[j]});
        decisions.emplace_back(acc.value()[j].handle, true);
      }
      bool ok = AllOk(sys.SubmitTagsBatch(subs));
      ok = sys.GetProjectInfo(project).ok() && ok;
      return AllOk(sys.DecideBatch(ids.providers[ids.owner[op.project]],
                                   decisions)) &&
             ok;
    }
    case Workload::kUploadOverflow: {
      std::vector<itag::tagging::ResourceId> out;
      return AllOk(sys.UploadResourceBatch(project, Uploads(op), &out));
    }
    case Workload::kClockPoll:  // Service::Step(0) only reads the clock
      return sys.Now() == now;
  }
  return false;
}

// The op entered at the owning shard's ITagSystem facade (local ids), below
// routing, the shard mutex and snapshot publication.
bool FacadeOp(core::ShardedSystem& sys, Workload w, const Op& op,
              const WorldIds& ids, itag::Tick now) {
  const uint64_t global = ids.projects[op.project];
  const size_t shard = itag::ShardOfId(global, kShards);
  const core::ProjectId local = itag::LocalId(global, kShards);
  core::ITagSystem& f = sys.shard_system(shard);
  switch (w) {
    case Workload::kDashboardRead: {
      bool ok = f.GetProjectInfo(local).ok();
      if (op.feed) {
        std::vector<core::QualityPoint> feed = f.QualityFeed(local);
        ok = ok && !feed.empty();
      }
      for (itag::tagging::ResourceId r : op.details) {
        ok = ok && f.GetResourceDetail(local, r).ok();
      }
      return ok;
    }
    case Workload::kTaggingIngest: {
      const core::UserTaggerId tagger = ids.taggers[op.tagger];
      auto acc = f.AcceptTasks(tagger, local, kCycleTasks);
      if (!acc.ok() || acc.value().size() != kCycleTasks) return false;
      std::vector<core::TagSubmission> subs;
      std::vector<std::pair<core::TaskHandle, bool>> decisions;
      for (size_t j = 0; j < kCycleTasks; ++j) {
        subs.push_back({tagger, acc.value()[j].handle, op.task_tags[j]});
        decisions.emplace_back(acc.value()[j].handle, true);
      }
      bool ok = AllOk(f.SubmitTagsBatch(subs));
      ok = f.GetProjectInfo(local).ok() && ok;
      return AllOk(f.DecideBatch(ids.providers[ids.owner[op.project]],
                                 decisions)) &&
             ok;
    }
    case Workload::kUploadOverflow: {
      std::vector<itag::tagging::ResourceId> out;
      return AllOk(f.UploadResourceBatch(local, Uploads(op), &out));
    }
    case Workload::kClockPoll:
      return f.clock().Now() == now;
  }
  return false;
}

// Encode + decode of the op's own requests and responses.
bool RoundTripCodec(const std::vector<Message>& log) {
  bool ok = true;
  for (const Message& m : log) {
    const std::string req = itag::net::EncodeRequestPayload(m.first);
    api::AnyRequest req_back;
    ok = itag::net::DecodeRequestPayload(itag::net::TypeTagOf(m.first), req,
                                         &req_back)
             .ok() &&
         ok;
    const std::string resp = itag::net::EncodeResponsePayload(m.second);
    api::AnyResponse resp_back;
    ok = itag::net::DecodeResponsePayload(itag::net::TypeTagOf(m.second),
                                          resp, &resp_back)
             .ok() &&
         ok;
  }
  return ok;
}

std::string ChromeJson(const std::vector<SpanRec>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  uint64_t last_op = ~0ull;
  bool first = true;
  char buf[256];
  for (const SpanRec& s : spans) {
    if (s.op != last_op) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%llu,\"args\":{\"name\":\"op %llu\"}}",
                    first ? "" : ",", static_cast<unsigned long long>(s.op),
                    static_cast<unsigned long long>(s.op));
      out += buf;
      first = false;
      last_op = s.op;
    }
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":\"%llu\"}}",
                  s.layer, static_cast<unsigned long long>(s.op),
                  1e-3 * static_cast<double>(s.start_ns), s.us(),
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

Traced RunTraced(Workload w, uint64_t seed, const std::string& base_dir,
                 double timed_p50_us) {
  namespace fs = std::filesystem;
  Traced out;
  const Shape shape = ShapeOf(w);
  const bool writes = IsWrite(w);
  std::error_code ec;
  fs::remove_all(base_dir, ec);
  fs::create_directories(base_dir, ec);

  // Reads meet every layer on one quiesced durable world (d1); writes meet
  // each layer on its own world, all built alike and stepped in lockstep.
  // m1 is the in-memory twin that isolates storage.
  World d1(base_dir + "/d1", shape.page_cache_mb);
  World m1("", shape.page_cache_mb);
  std::unique_ptr<World> d2, m2, m3;
  std::vector<World*> worlds = {&d1, &m1};
  if (writes) {
    d2 = std::make_unique<World>(base_dir + "/d2", shape.page_cache_mb);
    m2 = std::make_unique<World>("", shape.page_cache_mb);
    m3 = std::make_unique<World>("", shape.page_cache_mb);
    worlds.insert(worlds.end(), {d2.get(), m2.get(), m3.get()});
  }
  uint64_t user_bytes = 0;
  for (World* world : worlds) {
    itag::Status built = world->Build(seed, &user_bytes);
    if (!built.ok()) {
      out.failures.push_back("traced setup: " + built.ToString());
      return out;
    }
    if (world->ids().projects != d1.ids().projects) {
      out.failures.push_back("traced setup: worlds got different ids");
      return out;
    }
  }
  World& api_world = writes ? *d2 : d1;
  World& sharded_world = writes ? *m2 : d1;
  World& facade_world = writes ? *m3 : d1;

  itag::Status started = d1.StartServer();
  itag::net::Client client;
  if (started.ok()) started = client.Connect("127.0.0.1", d1.port());
  if (!started.ok()) {
    out.failures.push_back("traced server: " + started.ToString());
    return out;
  }
  NetCaller net{&client};
  ApiCaller api_durable{&api_world.service()};
  ApiCaller api_memory{&m1.service()};
  const WorldIds& ids = d1.ids();
  const itag::Tick now = d1.sharded().Now();

  const uint64_t first = shape.warmup_ops;
  const uint64_t count = shape.traced_ops;
  out.op_digest = OpDigest(w, seed, first, count);
  std::vector<SpanRec> spans;
  std::vector<double> checkpoint_ms;
  StorageCounters counts;
  Tally scratch;
  const uint64_t net_bytes0 = NetBytes();
  for (uint64_t i = first; i < first + count; ++i) {
    const Op op = MakeOp(w, seed, i);
    if (shape.checkpoint_every != 0 && i % shape.checkpoint_every == 0) {
      const StorageCounters c0 = StorageCounters::Read();
      auto cp = client.Checkpoint({});
      counts.AddDelta(c0, StorageCounters::Read());
      const int64_t a = NowNs();
      const bool ok = api_world.sharded().Checkpoint().ok();
      checkpoint_ms.push_back(1e-6 * static_cast<double>(NowNs() - a));
      if (!ok || !cp.ok() || !cp.value().status.ok()) {
        out.failures.push_back("traced checkpoint failed");
      }
    }
    std::vector<Message> log;
    bool ok = true;
    const StorageCounters c0 = StorageCounters::Read();
    int64_t a = NowNs();
    ok = ExecuteOp(net, w, op, ids, now, &scratch, &log) && ok;
    spans.push_back({i, "net.client", a, NowNs()});
    counts.AddDelta(c0, StorageCounters::Read());

    a = NowNs();
    ok = ExecuteOp(api_durable, w, op, ids, now, &scratch) && ok;
    spans.push_back({i, "api.durable", a, NowNs()});
    a = NowNs();
    ok = ExecuteOp(api_memory, w, op, ids, now, &scratch) && ok;
    spans.push_back({i, "api.memory", a, NowNs()});
    a = NowNs();
    ok = ShardedOp(sharded_world.sharded(), w, op, ids, now) && ok;
    spans.push_back({i, "itag.sharded", a, NowNs()});
    a = NowNs();
    ok = FacadeOp(facade_world.sharded(), w, op, ids, now) && ok;
    spans.push_back({i, "itag.facade", a, NowNs()});

    // Probes on the op's project, on the worlds the lower spans used.
    const uint64_t global = ids.projects[op.project];
    core::QualityManager& qm =
        facade_world.sharded()
            .shard_system(itag::ShardOfId(global, kShards))
            .quality_manager();
    const core::ProjectId local = itag::LocalId(global, kShards);
    a = NowNs();
    ok = sharded_world.sharded().PeekQuality(global).ok() && ok;
    spans.push_back({i, "itag.sharded.peek", a, NowNs()});
    a = NowNs();
    ok = qm.ProjectedGain(local).ok() && ok;
    spans.push_back({i, "itag.facade.projected_gain", a, NowNs()});
    a = NowNs();
    ok = qm.GetInfo(local).ok() && ok;
    spans.push_back({i, "itag.facade.get_info", a, NowNs()});
    a = NowNs();
    ok = RoundTripCodec(log) && ok;
    spans.push_back({i, "net.codec", a, NowNs()});

    ++out.tally.attempted;
    if (!ok) ++out.tally.failed;
  }
  {
    const int64_t a = NowNs();
    if (!api_world.sharded().Checkpoint().ok()) {
      out.failures.push_back("traced final checkpoint failed");
    }
    checkpoint_ms.push_back(1e-6 * static_cast<double>(NowNs() - a));
  }
  d1.StopServer();
  const uint64_t net_bytes = NetBytes() - net_bytes0;

  // Lockstep check: every world saw the same ops in the same order.
  const std::vector<std::string> reference =
      EncodedProjectPayloads(d1.service(), ids);
  for (World* world : worlds) {
    if (EncodedProjectPayloads(world->service(), ids) != reference) {
      out.failures.push_back("traced worlds diverged");
      break;
    }
  }

  // Per-op layer spans, then self time = span - next-lower span.
  std::map<std::string, std::vector<double>> by_layer;
  for (const SpanRec& s : spans) by_layer[s.layer].push_back(s.us());
  auto diff = [&](const char* upper, const char* lower) {
    const std::vector<double>& u = by_layer[upper];
    const std::vector<double>& l = by_layer[lower];
    std::vector<double> d(u.size());
    for (size_t k = 0; k < u.size(); ++k) d[k] = u[k] - l[k];
    return Median(d);
  };
  const double n = static_cast<double>(count);
  auto per_op = [n](uint64_t v) { return static_cast<double>(v) / n; };
  const double projected_gain_us =
      Median(by_layer["itag.facade.projected_gain"]);
  const uint64_t lookups = counts.hits + counts.misses;
  out.metrics = {
      {"net.self_us", diff("net.client", "api.durable"), "us"},
      {"net.codec_us", Median(by_layer["net.codec"]), "us"},
      {"net.bytes_per_op", per_op(net_bytes), "B/op"},
      {"api.self_us",
       diff(writes ? "api.memory" : "api.durable", "itag.sharded"), "us"},
      {"itag.sharded.self_us", diff("itag.sharded", "itag.facade"), "us"},
      {"itag.sharded.wait_us", timed_p50_us - Median(by_layer["net.client"]),
       "us"},
      {"itag.sharded.peek_us", Median(by_layer["itag.sharded.peek"]), "us"},
      {"itag.facade.projected_gain_us", projected_gain_us, "us"},
      {"itag.facade.projected_gain_share",
       projected_gain_us / Median(by_layer["api.durable"]), "ratio"},
      {"itag.facade.get_info_us", Median(by_layer["itag.facade.get_info"]),
       "us"},
      {"itag.facade.write_us", writes ? Median(by_layer["itag.facade"]) : 0.0,
       "us"},
      {"storage.self_us", diff("api.durable", "api.memory"), "us"},
      {"storage.wal_bytes_per_op", per_op(counts.wal_bytes), "B/op"},
      {"storage.wal_appends_per_op", per_op(counts.wal_appends), "count/op"},
      {"storage.page_hit_ratio",
       lookups == 0 ? 1.0 : static_cast<double>(counts.hits) / lookups,
       "ratio"},
      {"storage.page_misses_per_op", per_op(counts.misses), "count/op"},
      {"storage.evictions_per_op", per_op(counts.evictions), "count/op"},
      {"storage.page_writes_per_op", per_op(counts.page_writes), "count/op"},
      {"storage.checkpoint_ms", Median(checkpoint_ms), "ms"},
  };
  out.chrome_json = ChromeJson(spans);
  out.tally.failed += out.failures.size();
  return out;
}

}  // namespace perfbench
