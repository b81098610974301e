// itag_loadgen — scenario-driven load generator for a running itag_server.
//
//   ./itag_loadgen [port] [--scenario NAME] [--threads N] [--seconds S]
//                  [--projects P] [--page-cache-mb N] [--idle-conns N]
//                  [--hot-project-pct P] [--list]
//
// Drives the server with a named traffic shape from N concurrent
// pipelined net::Clients, then prints a metrics-backed summary: the
// client-side op counts next to the server's own api.* request counters
// and latency histograms (fetched via the v3 MetricsQuery endpoint), so
// the two sides can be cross-checked at a glance. The CI smoke runs the
// mixed scenario for ~2 s and asserts the server counted the load.
//
// When every connection stays healthy, the run ends with an exact
// reconciliation: the per-endpoint request counts the clients sent must
// equal the server's api.<Endpoint>.requests deltas between a snapshot
// taken before the drive and one taken after. A mismatch means a frame
// was dropped or double-counted somewhere in the wire tier and the run
// FAILS — this is the zero-dropped-frames check the soak CI relies on.
//
// --idle-conns N models a fleet: N extra connections are opened before
// the hot phase and parked (the scenario threads remain the hot Zipf
// subset). Each idle connection must answer a Step(0) ping when opened
// and again after the hot phase — proving the server holds N+threads
// sockets concurrently and its reaper only ever kills stalled writers,
// never parked-idle peers. Idle pings participate in the reconciliation.
//
// Scenarios model what tagging-system studies report rather than uniform
// noise: project/resource popularity is Zipf-skewed (self-organizing
// heavy tails — Golder & Huberman; Liu et al.), and tag choice draws from
// a Zipf-ranked vocabulary (rank-frequency skew). `--scenario uniform` is
// the control shape with the skew turned off.
//
// --hot-project-pct P overrides the scenario's project sampler with a
// single-hotspot shape: P% of every project-routed op lands on project 0
// and the rest spread uniformly — the skew the sharded core's rebalancer
// is built to dissolve. The run then adds a second reconciliation: each
// worker attributes its project-routed op units (1 per accept and per
// query view read, one per query detail and per submit/decide item) to the
// project it targeted,
// the summary maps
// projects to shards via the server's core.placement.project.<id> gauges,
// and the per-shard client totals must equal the server's
// core.shard.<i>.ops deltas exactly — proving routed-op attribution (the
// rebalancer's input signal) is not just monotone but exact. The check
// FAILS the run on any per-shard mismatch; it needs stable placement and
// no pre-routing rejections, so it downgrades itself to skipped when the
// server's placement version moved during the run (rebalancer fired) or
// typed errors occurred (e.g. --admission-rps throttling).
//
// --page-cache-mb N declares that the server was started with the paged
// storage engine and an N-MiB page cache: the summary then includes the
// storage.page.* counters and the run FAILS unless the server actually
// wrote pages — and, for a tiny cache (N <= 4), unless the load forced
// evictions. This is how the CI smoke proves the paged path (and its
// eviction machinery) ran under concurrent traffic, not just that the
// server stayed up.
//
// Exit status: 0 when every worker completed and at least one request
// succeeded; 1 on transport failure or a dead server.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/requests.h"
#include "common/logging.h"
#include "common/random.h"
#include "net/client.h"
#include "obs/metrics.h"

using namespace itag;  // NOLINT

namespace {

// ------------------------------------------------------------- scenarios

/// One named traffic shape. Weights are percentages (sum <= 100; the
/// remainder is idle-free — the loop just redraws).
struct ScenarioConfig {
  const char* name;
  const char* description;
  /// Zipf skew of project popularity (0 = uniform).
  double project_zipf_s;
  /// Zipf skew of the tag vocabulary ranks workers draw tags from.
  double tag_zipf_s = 1.05;
  int query_weight;         ///< pipelined ProjectQuery reads
  int tag_weight;           ///< accept → submit → decide cycles
  int step_weight;          ///< Step(1) simulated-time advances
  size_t accept_batch;      ///< tasks drawn per tag cycle
  size_t query_pipeline;    ///< reads in flight per query op
  /// Thread 0 issues a Checkpoint every this many of its ops (0 = never).
  size_t checkpoint_every;
  size_t num_projects = 8;
  size_t resources_per_project = 12;
};

const ScenarioConfig kScenarios[] = {
    {"uniform",
     "control shape: uniform project popularity, balanced read/write",
     /*project_zipf_s=*/0.0, /*tag_zipf_s=*/1.05,
     /*query=*/60, /*tag=*/40, /*step=*/0,
     /*accept_batch=*/8, /*query_pipeline=*/8, /*checkpoint_every=*/0},
    {"zipf",
     "balanced read/write with Zipf(1.1) project popularity (hot heads)",
     1.1, 1.05, 60, 40, 0, 8, 8, 0},
    {"read_heavy",
     "monitoring-dominated: 96% pipelined ProjectQuery reads",
     1.1, 1.05, 96, 4, 0, 8, 16, 0},
    {"submit_heavy",
     "ingest burst: 90% accept/submit/decide cycles, bigger task batches",
     0.8, 1.05, 10, 90, 0, 16, 4, 0},
    {"mixed",
     "steady state: reads + tagging + occasional Step and periodic "
     "Checkpoint",
     1.1, 1.05, 50, 44, 1, 8, 8, 50},
};

const ScenarioConfig* FindScenario(const std::string& name) {
  for (const ScenarioConfig& s : kScenarios) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

void ListScenarios() {
  std::printf("scenarios:\n");
  for (const ScenarioConfig& s : kScenarios) {
    std::printf("  %-12s %s\n", s.name, s.description);
  }
}

// ------------------------------------------------------------- worker side

/// Client-side tallies of one worker thread.
struct WorkerCounts {
  uint64_t queries = 0;        ///< ProjectQuery replies received OK
  uint64_t tag_cycles = 0;     ///< completed accept→submit→decide cycles
  uint64_t tasks_submitted = 0;
  uint64_t tasks_approved = 0;
  uint64_t steps = 0;
  uint64_t checkpoints = 0;
  uint64_t starved = 0;        ///< accepts refused (budget/strategy empty)
  uint64_t typed_errors = 0;   ///< typed error replies (overload etc.)
  bool transport_ok = true;    ///< false once the connection broke
  /// Requests this worker put on the wire, by api request-type index —
  /// the client side of the end-of-run reconciliation against the
  /// server's api.<Endpoint>.requests counters.
  uint64_t sent[api::kRequestTypeCount] = {};
  /// Routed op units attributed per project index (1 per accept and per
  /// query section, one per submit/decide item) — the client side of the
  /// per-shard core.shard.<i>.ops reconciliation in hotspot runs. Sized
  /// by main.
  std::vector<uint64_t> project_ops;
};

/// Exits the worker loop on transport failure; typed errors just count.
template <typename T>
bool CheckTransport(const Result<T>& r, WorkerCounts* counts) {
  if (r.ok()) return true;
  counts->transport_ok = false;
  return false;
}

void RunWorker(uint16_t port, const ScenarioConfig& cfg, size_t thread_index,
               size_t hot_pct, core::ProviderId provider,
               core::UserTaggerId tagger,
               const std::vector<core::ProjectId>& projects,
               std::chrono::steady_clock::time_point deadline,
               WorkerCounts* counts) {
  net::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    counts->transport_ok = false;
    return;
  }
  Rng rng(0x10ad0000 + thread_index, 2 * thread_index + 1);
  ZipfSampler project_pick(static_cast<uint32_t>(projects.size()),
                           cfg.project_zipf_s);
  ZipfSampler tag_pick(200, cfg.tag_zipf_s);
  // --hot-project-pct replaces the scenario's Zipf shape with a single
  // hotspot: hot_pct% of picks land on project 0, the rest uniform.
  auto pick_project = [&]() -> size_t {
    if (hot_pct == 0 || projects.size() < 2) {
      return hot_pct != 0 ? 0 : project_pick.Sample(&rng);
    }
    if (rng.Uniform(100) < hot_pct) return 0;
    return 1 + rng.Uniform(static_cast<uint32_t>(projects.size() - 1));
  };
  uint64_t ops = 0;

  while (std::chrono::steady_clock::now() < deadline) {
    ++ops;
    if (cfg.checkpoint_every != 0 && thread_index == 0 &&
        ops % cfg.checkpoint_every == 0) {
      Result<api::CheckpointResponse> ck = client.Checkpoint({});
      if (!CheckTransport(ck, counts)) return;
      ++counts->checkpoints;
      ++counts->sent[api::kRequestTypeIndex<api::CheckpointRequest>];
      continue;
    }
    int draw = static_cast<int>(rng.Uniform(100));
    if (draw < cfg.query_weight) {
      // Pipelined monitoring reads: a flight of independent queries rides
      // the socket back-to-back; Await matches out-of-order replies.
      std::vector<uint64_t> flight;
      for (size_t i = 0; i < cfg.query_pipeline; ++i) {
        size_t pidx = pick_project();
        api::ProjectQueryRequest q;
        q.project = projects[pidx];
        q.include_feed = (i % 4 == 0);
        Result<uint64_t> c = client.DispatchAsync(api::AnyRequest{q});
        if (!CheckTransport(c, counts)) return;
        ++counts->sent[api::kRequestTypeIndex<api::ProjectQueryRequest>];
        // One routed op for the view read (info and feed together), plus
        // one per detail resource.
        counts->project_ops[pidx] += 1 + q.detail_resources.size();
        flight.push_back(*c);
      }
      for (uint64_t c : flight) {
        Result<api::AnyResponse> r = client.Await(c);
        if (!CheckTransport(r, counts)) return;
        ++counts->queries;
      }
    } else if (draw < cfg.query_weight + cfg.tag_weight) {
      // One tagging cycle. The submit is pipelined with an independent
      // monitoring peek (never with the decide that depends on it).
      size_t pidx = pick_project();
      core::ProjectId project = projects[pidx];
      Result<api::BatchAcceptTasksResponse> accepted = client.BatchAcceptTasks(
          {tagger, project, cfg.accept_batch});
      if (!CheckTransport(accepted, counts)) return;
      ++counts->sent[api::kRequestTypeIndex<api::BatchAcceptTasksRequest>];
      ++counts->project_ops[pidx];
      if (!accepted.value().status.ok() || accepted.value().tasks.empty()) {
        // Budget exhausted / project paused — expected under long runs.
        ++counts->starved;
        continue;
      }
      api::BatchSubmitTagsRequest submit;
      api::BatchDecideRequest decide;
      decide.provider = provider;
      for (const core::AcceptedTask& task : accepted.value().tasks) {
        submit.items.push_back(
            {tagger, task.handle,
             {"tag-" + std::to_string(tag_pick.Sample(&rng)),
              "tag-" + std::to_string(tag_pick.Sample(&rng))}});
        decide.items.push_back({task.handle, true});
      }
      api::ProjectQueryRequest peek;
      peek.project = project;
      Result<uint64_t> c1 = client.DispatchAsync(api::AnyRequest{submit});
      if (!CheckTransport(c1, counts)) return;
      ++counts->sent[api::kRequestTypeIndex<api::BatchSubmitTagsRequest>];
      counts->project_ops[pidx] += submit.items.size();
      Result<uint64_t> c2 = client.DispatchAsync(api::AnyRequest{peek});
      if (!CheckTransport(c2, counts)) return;
      ++counts->sent[api::kRequestTypeIndex<api::ProjectQueryRequest>];
      ++counts->project_ops[pidx];
      Result<api::AnyResponse> submitted = client.Await(*c1);
      if (!CheckTransport(submitted, counts)) return;
      Result<api::AnyResponse> peeked = client.Await(*c2);
      if (!CheckTransport(peeked, counts)) return;
      ++counts->queries;
      const auto* sub = std::get_if<api::BatchSubmitTagsResponse>(
          &submitted.value());
      if (sub == nullptr) {
        ++counts->typed_errors;
        continue;
      }
      counts->tasks_submitted += sub->outcome.ok_count;
      Result<api::BatchDecideResponse> decided = client.BatchDecide(decide);
      if (!CheckTransport(decided, counts)) return;
      ++counts->sent[api::kRequestTypeIndex<api::BatchDecideRequest>];
      counts->project_ops[pidx] += decide.items.size();
      counts->tasks_approved += decided.value().outcome.ok_count;
      ++counts->tag_cycles;
    } else if (draw < cfg.query_weight + cfg.tag_weight + cfg.step_weight) {
      Result<api::StepResponse> stepped = client.Step({1});
      if (!CheckTransport(stepped, counts)) return;
      ++counts->steps;
      ++counts->sent[api::kRequestTypeIndex<api::StepRequest>];
    }
    // Remainder of the weight space: redraw immediately.
  }
}

// ------------------------------------------------------------- idle fleet

/// Outcome of one shepherd thread's slice of the idle fleet.
struct IdleCounts {
  uint64_t pings = 0;   ///< Step(0) round trips answered OK
  bool ok = true;       ///< false on connect/ping failure anywhere
};

/// Holds `conns` connections open across the hot phase. Every connection
/// answers a Step(0) ping right after connecting (fleet is live before the
/// hot subset starts) and again after `drain` is raised (the soak may not
/// have dropped a single parked peer — the server's reaper is only allowed
/// to kill stalled writers). `ready` is bumped exactly once per shepherd,
/// success or not, so main never waits forever.
void RunIdleShepherd(uint16_t port, size_t conns, std::atomic<size_t>* ready,
                     const std::atomic<bool>* drain, IdleCounts* counts) {
  std::vector<std::unique_ptr<net::Client>> fleet;
  fleet.reserve(conns);
  for (size_t i = 0; i < conns && counts->ok; ++i) {
    auto c = std::make_unique<net::Client>();
    if (!c->Connect("127.0.0.1", port).ok() || !c->Step({0}).ok()) {
      counts->ok = false;
      break;
    }
    ++counts->pings;
    fleet.push_back(std::move(c));
  }
  ready->fetch_add(1, std::memory_order_acq_rel);
  if (!counts->ok) return;
  while (!drain->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::unique_ptr<net::Client>& c : fleet) {
    if (!c->Step({0}).ok()) {
      counts->ok = false;
      return;
    }
    ++counts->pings;
  }
}

// -------------------------------------------------------------- summaries

const obs::MetricSample* FindMetric(
    const std::vector<obs::MetricSample>& samples, const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t MetricCount(const std::vector<obs::MetricSample>& samples,
                     const std::string& name) {
  const obs::MetricSample* s = FindMetric(samples, name);
  return s == nullptr ? 0 : s->count;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7421;
  std::string scenario_name = "mixed";
  size_t threads = 4;
  double seconds = 5.0;
  size_t projects_override = 0;
  long page_cache_mb = -1;  // >=0: server runs the paged engine; verify it
  size_t idle_conns = 0;
  size_t hot_project_pct = 0;  // >0: single-hotspot shape + shard-op check
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--projects") == 0 && i + 1 < argc) {
      projects_override = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--page-cache-mb") == 0 && i + 1 < argc) {
      page_cache_mb = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--idle-conns") == 0 && i + 1 < argc) {
      idle_conns = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--hot-project-pct") == 0 &&
               i + 1 < argc) {
      hot_project_pct = static_cast<size_t>(std::atol(argv[++i]));
      if (hot_project_pct > 100) {
        std::fprintf(stderr, "--hot-project-pct must be in [0, 100]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      LogLevel level;
      if (!ParseLogLevel(argv[++i], &level)) {
        std::fprintf(stderr, "bad --log-level %s (debug|info|warn|error)\n",
                     argv[i]);
        return 2;
      }
      Logger::SetLevel(level);
    } else if (std::strcmp(argv[i], "--list") == 0) {
      ListScenarios();
      return 0;
    } else if (positional == 0) {
      port = static_cast<uint16_t>(std::atoi(argv[i]));
      ++positional;
    } else {
      std::fprintf(stderr,
                   "usage: %s [port] [--scenario NAME] [--threads N] "
                   "[--seconds S] [--projects P] [--page-cache-mb N] "
                   "[--idle-conns N] [--hot-project-pct P] "
                   "[--log-level LEVEL] [--list]\n",
                   argv[0]);
      return 2;
    }
  }
  const ScenarioConfig* found = FindScenario(scenario_name);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario_name.c_str());
    ListScenarios();
    return 2;
  }
  ScenarioConfig cfg = *found;
  if (projects_override != 0) cfg.num_projects = projects_override;
  if (threads == 0) threads = 1;

  // --- setup: one admin client provisions the workload --------------------
  net::Client admin;
  if (!admin.Connect("127.0.0.1", port).ok()) {
    std::fprintf(stderr, "connect 127.0.0.1:%u failed — is itag_server up?\n",
                 port);
    return 1;
  }
  auto MustOk = [](auto r, const char* what) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(r).value();
  };
  core::ProviderId provider =
      MustOk(admin.RegisterProvider({"loadgen-provider"}), "RegisterProvider")
          .provider;
  std::vector<core::UserTaggerId> taggers;
  for (size_t t = 0; t < threads; ++t) {
    taggers.push_back(
        MustOk(admin.RegisterTagger({"loadgen-" + std::to_string(t)}),
               "RegisterTagger")
            .tagger);
  }
  std::vector<core::ProjectId> projects;
  for (size_t p = 0; p < cfg.num_projects; ++p) {
    api::CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "loadgen-" + std::string(cfg.name) + "-" +
                       std::to_string(p);
    create.spec.kind = tagging::ResourceKind::kImage;
    create.spec.budget = 4u << 20;  // never the bottleneck in a timed run
    create.spec.pay_cents = 1;
    create.spec.platform = core::PlatformChoice::kAudience;
    api::CreateProjectResponse created =
        MustOk(admin.CreateProject(create), "CreateProject");
    if (!created.status.ok()) {
      std::fprintf(stderr, "CreateProject: %s\n",
                   created.status.ToString().c_str());
      return 1;
    }
    projects.push_back(created.project);

    api::BatchUploadResourcesRequest upload;
    upload.project = created.project;
    for (size_t r = 0; r < cfg.resources_per_project; ++r) {
      api::UploadResourceItem item;
      item.kind = tagging::ResourceKind::kImage;
      item.uri = "res-" + std::to_string(p) + "-" + std::to_string(r) + ".jpg";
      upload.items.push_back(std::move(item));
    }
    MustOk(admin.BatchUploadResources(upload), "BatchUploadResources");
    MustOk(admin.BatchControl(
               {created.project, {{api::ControlAction::kStart, 0, 0, {}}}}),
           "BatchControl(start)");
  }
  std::printf(
      "itag_loadgen: scenario '%s' (%s)\n"
      "  %zu threads x %.1fs against 127.0.0.1:%u — %zu projects x %zu "
      "resources, project zipf s=%.2f, %zu idle conns\n",
      cfg.name, cfg.description, threads, seconds, port, cfg.num_projects,
      cfg.resources_per_project, cfg.project_zipf_s, idle_conns);
  if (hot_project_pct != 0) {
    std::printf(
        "  hotspot shape: %zu%% of project-routed ops on project %llu, "
        "rest uniform (per-shard op reconciliation armed)\n",
        hot_project_pct, static_cast<unsigned long long>(projects[0]));
  }

  // The reconciliation baseline: server counters after provisioning but
  // before any load. Everything the run sends from here on is inside the
  // snapshot window (no other client may be attached).
  api::MetricsQueryResponse before_metrics =
      MustOk(admin.Metrics({""}), "MetricsQuery(before)");

  // --- idle fleet ---------------------------------------------------------
  // Open and ping the whole fleet before the hot subset starts, so the
  // server holds idle_conns + threads live sockets for the entire drive.
  size_t shepherds = idle_conns == 0 ? 0 : std::min<size_t>(idle_conns, 8);
  std::vector<IdleCounts> idle_counts(shepherds);
  std::vector<std::thread> idle_threads;
  std::atomic<size_t> idle_ready{0};
  std::atomic<bool> idle_drain{false};
  for (size_t s = 0; s < shepherds; ++s) {
    size_t share = idle_conns / shepherds + (s < idle_conns % shepherds);
    idle_threads.emplace_back(RunIdleShepherd, port, share, &idle_ready,
                              &idle_drain, &idle_counts[s]);
  }
  while (idle_ready.load(std::memory_order_acquire) < shepherds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (shepherds != 0) {
    std::printf("  idle fleet connected and pinged\n");
  }

  // --- drive --------------------------------------------------------------
  auto start = std::chrono::steady_clock::now();
  auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<WorkerCounts> counts(threads);
  for (WorkerCounts& c : counts) c.project_ops.assign(projects.size(), 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(RunWorker, port, std::cref(cfg), t, hot_project_pct,
                         provider, taggers[t], std::cref(projects), deadline,
                         &counts[t]);
  }
  for (std::thread& w : workers) w.join();
  idle_drain.store(true, std::memory_order_release);
  for (std::thread& s : idle_threads) s.join();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // --- client-side summary ------------------------------------------------
  WorkerCounts total;
  total.project_ops.assign(projects.size(), 0);
  bool all_ok = true;
  for (const WorkerCounts& c : counts) {
    total.queries += c.queries;
    total.tag_cycles += c.tag_cycles;
    total.tasks_submitted += c.tasks_submitted;
    total.tasks_approved += c.tasks_approved;
    total.steps += c.steps;
    total.checkpoints += c.checkpoints;
    total.starved += c.starved;
    total.typed_errors += c.typed_errors;
    all_ok = all_ok && c.transport_ok;
    for (size_t i = 0; i < api::kRequestTypeCount; ++i) {
      total.sent[i] += c.sent[i];
    }
    for (size_t p = 0; p < projects.size(); ++p) {
      total.project_ops[p] += c.project_ops[p];
    }
  }
  uint64_t idle_pings = 0;
  bool idle_ok = true;
  for (const IdleCounts& c : idle_counts) {
    idle_pings += c.pings;
    idle_ok = idle_ok && c.ok;
  }
  // Idle pings are Step(0) requests — they ride the same reconciliation.
  total.sent[api::kRequestTypeIndex<api::StepRequest>] += idle_pings;
  all_ok = all_ok && idle_ok;
  std::printf("\nclient side (%.2fs):\n", elapsed);
  std::printf("  %-18s %10s %10s\n", "op", "count", "rate/s");
  auto row = [&](const char* op, uint64_t n) {
    std::printf("  %-18s %10llu %10.0f\n", op,
                static_cast<unsigned long long>(n),
                static_cast<double>(n) / elapsed);
  };
  row("query", total.queries);
  row("tag-cycle", total.tag_cycles);
  row("task-submitted", total.tasks_submitted);
  row("task-approved", total.tasks_approved);
  row("step", total.steps);
  row("checkpoint", total.checkpoints);
  row("accept-starved", total.starved);
  row("typed-error", total.typed_errors);
  if (idle_conns != 0) {
    std::printf("  idle fleet: %zu conns, %llu/%llu pings ok (%s)\n",
                idle_conns, static_cast<unsigned long long>(idle_pings),
                static_cast<unsigned long long>(2 * idle_conns),
                idle_ok ? "healthy" : "FAILED");
  }

  // --- server-side summary (MetricsQuery) ---------------------------------
  api::MetricsQueryResponse metrics =
      MustOk(admin.Metrics({""}), "MetricsQuery");
  const std::vector<obs::MetricSample>& samples = metrics.metrics;
  std::printf("\nserver side (api.* request counters + latency):\n");
  std::printf("  %-22s %10s %8s %8s %8s\n", "endpoint", "requests",
              "p50_us", "p95_us", "p99_us");
  for (size_t i = 0; i < api::kRequestTypeCount; ++i) {
    std::string base = std::string("api.") + api::RequestTypeName(i);
    uint64_t n = MetricCount(samples, base + ".requests");
    if (n == 0) continue;
    const obs::MetricSample* lat = FindMetric(samples, base + ".latency_us");
    std::printf("  %-22s %10llu %8llu %8llu %8llu\n",
                api::RequestTypeName(i), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(
                    lat != nullptr ? obs::ApproxQuantile(*lat, 0.50) : 0),
                static_cast<unsigned long long>(
                    lat != nullptr ? obs::ApproxQuantile(*lat, 0.95) : 0),
                static_cast<unsigned long long>(
                    lat != nullptr ? obs::ApproxQuantile(*lat, 0.99) : 0));
  }
  std::printf("\nserver side (other layers):\n");
  for (const char* name :
       {"core.route.items", "core.route.fanouts", "core.step.ticks",
        "net.connections", "net.frames", "net.bytes_in", "net.bytes_out",
        "net.overload_rejections", "storage.wal.appends",
        "storage.checkpoint.count", "storage.page.reads",
        "storage.page.writes", "storage.page.cache_hits",
        "storage.page.cache_misses", "storage.page.evictions",
        "storage.page.cache_resident"}) {
    const obs::MetricSample* s = FindMetric(samples, name);
    if (s != nullptr) {
      std::printf("  %-26s %llu\n", name,
                  static_cast<unsigned long long>(
                      s->kind == obs::MetricKind::kGauge
                          ? static_cast<uint64_t>(s->gauge)
                          : s->count));
    }
  }

  uint64_t total_ok = total.queries + total.tag_cycles + total.steps +
                      total.checkpoints + idle_pings;
  if (!all_ok) {
    std::fprintf(stderr, "\nFAIL: a worker or idle connection broke\n");
    return 1;
  }
  if (total_ok == 0) {
    std::fprintf(stderr, "\nFAIL: no request succeeded\n");
    return 1;
  }

  // --- reconciliation: zero dropped frames --------------------------------
  // Every transport stayed healthy, so each request a client dispatched got
  // exactly one reply — the server's per-endpoint counters must therefore
  // have advanced by exactly what the clients sent. Any difference is a
  // frame dropped or double-counted in the wire tier. MetricsQuery is
  // excluded (the snapshots themselves issue it), and a run with typed
  // errors skips the check: an overload rejection is answered at the net
  // layer without reaching the api counters.
  if (total.typed_errors == 0) {
    std::printf("\nreconciliation (client sends vs server api.* deltas):\n");
    bool reconciled = true;
    for (size_t i = 0; i < api::kRequestTypeCount; ++i) {
      if (i == api::kRequestTypeIndex<api::MetricsQueryRequest>) continue;
      std::string name =
          std::string("api.") + api::RequestTypeName(i) + ".requests";
      uint64_t delta = MetricCount(samples, name) -
                       MetricCount(before_metrics.metrics, name);
      if (total.sent[i] == 0 && delta == 0) continue;
      bool match = total.sent[i] == delta;
      std::printf("  %-22s sent %10llu  counted %10llu%s\n",
                  api::RequestTypeName(i),
                  static_cast<unsigned long long>(total.sent[i]),
                  static_cast<unsigned long long>(delta),
                  match ? "" : "  MISMATCH");
      reconciled = reconciled && match;
    }
    if (!reconciled) {
      std::fprintf(stderr,
                   "\nFAIL: client sends and server api.* counters disagree "
                   "— the wire tier dropped or duplicated frames\n");
      return 1;
    }
    std::printf("  zero dropped frames: every request counted exactly once\n");
  } else {
    std::printf(
        "\nreconciliation skipped: %llu typed errors (rejected frames never "
        "reach the api counters)\n",
        static_cast<unsigned long long>(total.typed_errors));
  }
  if (hot_project_pct != 0) {
    // --- per-shard routed-op reconciliation -------------------------------
    // Map each project to its shard via the server's placement gauges, sum
    // the client-side op units per shard, and compare against the
    // core.shard.<i>.ops counter deltas. Exact only when placement never
    // changed mid-run and no request was rejected before routing, so this
    // path expects a server without --rebalance-interval-ms or
    // --admission-rps; a typed-error run skips the check like the frame
    // reconciliation above.
    size_t num_shards = 0;
    while (FindMetric(samples, "core.shard." + std::to_string(num_shards) +
                                   ".ops") != nullptr) {
      ++num_shards;
    }
    if (num_shards == 0) {
      std::fprintf(stderr,
                   "\nFAIL: --hot-project-pct needs a sharded server — no "
                   "core.shard.<i>.ops counters reported\n");
      return 1;
    }
    uint64_t all_units = 0;
    for (uint64_t n : total.project_ops) all_units += n;
    std::printf("\nhotspot shape observed: project %llu took %.1f%% of "
                "%llu routed op units (target %zu%%)\n",
                static_cast<unsigned long long>(projects[0]),
                all_units == 0 ? 0.0
                               : 100.0 * static_cast<double>(
                                             total.project_ops[0]) /
                                     static_cast<double>(all_units),
                static_cast<unsigned long long>(all_units), hot_project_pct);
    const obs::MetricSample* v0 =
        FindMetric(before_metrics.metrics, "core.placement.version");
    const obs::MetricSample* v1 =
        FindMetric(samples, "core.placement.version");
    if (total.typed_errors != 0) {
      std::printf("per-shard reconciliation skipped: typed errors\n");
    } else if (v0 == nullptr || v1 == nullptr || v0->gauge != v1->gauge) {
      // A rebalancing server moved a project mid-run; ops the migration
      // raced are attributed to whichever shard served them, so exactness
      // only holds under a stable placement.
      std::printf(
          "per-shard reconciliation skipped: placement changed during the "
          "run (version %llu -> %llu)\n",
          static_cast<unsigned long long>(
              v0 == nullptr ? 0 : static_cast<uint64_t>(v0->gauge)),
          static_cast<unsigned long long>(
              v1 == nullptr ? 0 : static_cast<uint64_t>(v1->gauge)));
    } else {
      std::vector<uint64_t> expected(num_shards, 0);
      bool placed_ok = true;
      for (size_t p = 0; p < projects.size(); ++p) {
        const obs::MetricSample* g = FindMetric(
            samples,
            "core.placement.project." + std::to_string(projects[p]));
        // Never-moved projects may predate the gauge; their home is the
        // id codec (global % shards).
        size_t shard = g != nullptr
                           ? static_cast<size_t>(g->gauge)
                           : static_cast<size_t>(projects[p] % num_shards);
        if (shard >= num_shards) {
          placed_ok = false;
          break;
        }
        expected[shard] += total.project_ops[p];
      }
      std::printf("per-shard reconciliation (client op units vs "
                  "core.shard.<i>.ops deltas):\n");
      bool shard_ok = placed_ok;
      for (size_t s = 0; s < num_shards; ++s) {
        std::string name = "core.shard." + std::to_string(s) + ".ops";
        uint64_t delta = MetricCount(samples, name) -
                         MetricCount(before_metrics.metrics, name);
        bool match = placed_ok && expected[s] == delta;
        std::printf("  shard %zu: client %10llu  server %10llu%s\n", s,
                    static_cast<unsigned long long>(
                        placed_ok ? expected[s] : 0),
                    static_cast<unsigned long long>(delta),
                    match ? "" : "  MISMATCH");
        shard_ok = shard_ok && match;
      }
      if (!shard_ok) {
        std::fprintf(stderr,
                     "\nFAIL: per-shard op attribution disagrees with the "
                     "server — routing counted ops on the wrong shard, or "
                     "placement moved mid-run\n");
        return 1;
      }
      std::printf("  routed-op attribution exact on every shard\n");
    }
  }
  if (page_cache_mb >= 0) {
    // The server was declared paged: the load must have driven actual page
    // IO, and a tiny cache must have been forced to evict.
    uint64_t page_writes = MetricCount(samples, "storage.page.writes");
    uint64_t evictions = MetricCount(samples, "storage.page.evictions");
    if (page_writes == 0) {
      std::fprintf(stderr,
                   "\nFAIL: --page-cache-mb given but the server reported "
                   "zero storage.page.writes (paged engine not active?)\n");
      return 1;
    }
    if (page_cache_mb <= 4 && evictions == 0) {
      std::fprintf(stderr,
                   "\nFAIL: %ld MiB page cache saw zero evictions — the "
                   "smoke did not exercise eviction\n",
                   page_cache_mb);
      return 1;
    }
    std::printf(
        "\npaged engine verified: %llu page writes, %llu evictions "
        "(%ld MiB cache)\n",
        static_cast<unsigned long long>(page_writes),
        static_cast<unsigned long long>(evictions), page_cache_mb);
  }
  std::printf("\nitag_loadgen: ok (%llu client ops)\n",
              static_cast<unsigned long long>(total_ok));
  return 0;
}
