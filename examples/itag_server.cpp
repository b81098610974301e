// itag_server — a standalone iTag daemon: the sharded, thread-safe core
// behind the binary wire protocol, serving any number of TCP clients.
//
//   ./itag_server [port] [max_seconds] [--db-dir=DIR] [--shards=N]
//                 [--page-cache-mb=N] [--reactors=N] [--follow=HOST:PORT]
//                 [--rebalance-interval-ms=N] [--admission-rps=N]
//                 [--log-level=LEVEL]
//                 [--trace-sample-n=N] [--trace-slow-us=N]
//                 [--trace-export=FILE]
//
// Defaults: port 7421, run until SIGINT/SIGTERM, 4 shards, 1 reactor,
// in-memory, log level info, tracing 1-in-1024 + slow capture at 10ms.
// A non-zero max_seconds self-terminates after that long (handy for CI
// smoke runs). Port 0 binds an ephemeral port; the "listening on" line
// reports the real one.
//
// --db-dir makes the daemon durable: every shard persists to
// DIR/shard-<i>, so a restart (or a kill -9 — the WAL replays to the last
// complete record) on the same directory resumes serving the same state.
// --page-cache-mb=N additionally switches storage to the paged engine
// (storage/pager): shard state lives in fixed-size-page B+tree files with
// an N-MiB page cache per shard, so tables may exceed RAM and a clean
// restart reads only the page-file meta + catalog instead of replaying
// the WAL (see docs/paged-storage.md). Requires --db-dir.
// --follow=HOST:PORT starts the daemon as a WAL-shipping read replica of
// the primary at HOST:PORT (which must be durable): writes answer a typed
// FailedPrecondition naming the leader, reads serve locally, and the
// follower reconnects with backoff if the stream drops. Requires --db-dir
// (the follower's own durable state is its resume cursor) and the same
// --shards as the primary. `itag_client PORT --promote` flips it into a
// writable primary after replaying the received tail. Every durable
// server retains its WAL across checkpoints and accepts subscribers, so
// a promoted follower can immediately feed the next replica. See
// docs/replication.md.
// --reactors=N runs N IO reactor threads (epoll loops), each owning a
// disjoint, round-robin-assigned subset of the connections — the knob for
// many-connection fleets; 0 picks one reactor per hardware thread.
// --rebalance-interval-ms=N turns on the background shard rebalancer: it
// samples per-shard op-rate every N ms and live-migrates a hot shard's
// busiest project when that shard carried at least 45% of the ops of two
// windows in a row. 0 (the default) leaves placement static. Watch it
// work with `itag_client PORT --placement`.
// --admission-rps=N caps each project at N request units per second at
// the api tier; over-limit requests fail with ResourceExhausted instead
// of queueing behind a hot project's shard mutex. 0 (default) disables.
// See docs/rebalancing.md for both subsystems.
// --log-level=LEVEL (debug|info|warn|error) sets the stderr log threshold.
// --trace-sample-n=N head-samples every Nth request into the trace ring
// (0 disables the coin, 1 traces everything); --trace-slow-us=N
// additionally retains any request whose root span took >= N µs even when
// it lost the coin (0 disables slow capture). Read traces back live with
// `itag_client PORT --traces`, or pass --trace-export=FILE to dump the
// ring as Chrome trace-event JSON (chrome://tracing, Perfetto) on
// shutdown. See docs/observability.md.
// On SIGINT/SIGTERM the daemon shuts down gracefully: stop accepting,
// drain in-flight requests, checkpoint (snapshot + WAL truncate, bounding
// the next start's recovery time), exit 0.
//
// Pair with: ./itag_client [port]   (or any net::Client program)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <fstream>

#include "api/service.h"
#include "common/logging.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repl/repl.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  using namespace itag;  // NOLINT
  uint16_t port = 7421;
  long max_seconds = 0;
  std::string db_dir;
  size_t shards = 4;
  long page_cache_mb = -1;  // <0 = snapshot engine, >=0 = paged engine
  size_t reactors = 1;
  size_t rebalance_interval_ms = 0;  // 0 = static placement
  uint64_t admission_rps = 0;  // 0 = no per-project admission cap
  std::string follow;          // empty = primary, HOST:PORT = read replica
  uint64_t trace_sample_n = 1024;
  uint64_t trace_slow_us = 10000;
  std::string trace_export;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--db-dir=", 9) == 0) {
      db_dir = arg + 9;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = static_cast<size_t>(std::atol(arg + 9));
    } else if (std::strncmp(arg, "--page-cache-mb=", 16) == 0) {
      page_cache_mb = std::atol(arg + 16);
    } else if (std::strncmp(arg, "--reactors=", 11) == 0) {
      reactors = static_cast<size_t>(std::atol(arg + 11));
    } else if (std::strncmp(arg, "--rebalance-interval-ms=", 24) == 0) {
      rebalance_interval_ms = static_cast<size_t>(std::atol(arg + 24));
    } else if (std::strncmp(arg, "--follow=", 9) == 0) {
      follow = arg + 9;
    } else if (std::strncmp(arg, "--admission-rps=", 16) == 0) {
      admission_rps = static_cast<uint64_t>(std::atoll(arg + 16));
    } else if (std::strncmp(arg, "--log-level=", 12) == 0) {
      LogLevel level;
      if (!ParseLogLevel(arg + 12, &level)) {
        std::fprintf(stderr,
                     "bad --log-level %s (debug|info|warn|error)\n", arg + 12);
        return 2;
      }
      Logger::SetLevel(level);
    } else if (std::strncmp(arg, "--trace-sample-n=", 17) == 0) {
      trace_sample_n = static_cast<uint64_t>(std::atoll(arg + 17));
    } else if (std::strncmp(arg, "--trace-slow-us=", 16) == 0) {
      trace_slow_us = static_cast<uint64_t>(std::atoll(arg + 16));
    } else if (std::strncmp(arg, "--trace-export=", 15) == 0) {
      trace_export = arg + 15;
    } else if (positional == 0) {
      port = static_cast<uint16_t>(std::atoi(arg));
      ++positional;
    } else if (positional == 1) {
      max_seconds = std::atol(arg);
      ++positional;
    } else {
      std::fprintf(stderr,
                   "usage: %s [port] [max_seconds] [--db-dir=DIR] "
                   "[--shards=N] [--page-cache-mb=N] [--reactors=N] "
                   "[--follow=HOST:PORT] "
                   "[--rebalance-interval-ms=N] "
                   "[--admission-rps=N] [--log-level=LEVEL] "
                   "[--trace-sample-n=N] [--trace-slow-us=N] "
                   "[--trace-export=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (page_cache_mb >= 0 && db_dir.empty()) {
    std::fprintf(stderr, "--page-cache-mb requires --db-dir\n");
    return 2;
  }
  std::string follow_host;
  uint16_t follow_port = 0;
  if (!follow.empty()) {
    if (db_dir.empty()) {
      std::fprintf(stderr, "--follow requires --db-dir\n");
      return 2;
    }
    size_t colon = follow.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow.size()) {
      std::fprintf(stderr, "--follow wants HOST:PORT, got %s\n",
                   follow.c_str());
      return 2;
    }
    follow_host = follow.substr(0, colon);
    follow_port = static_cast<uint16_t>(std::atoi(follow.c_str() + colon + 1));
  }
  obs::Tracer::Default().Configure(trace_sample_n, trace_slow_us);

  // The server front is concurrent, so the backend must be the sharded,
  // thread-safe core. With --db-dir, Init() is the recovery path: each
  // shard reopens its directory (snapshot + WAL replay) in parallel.
  core::ShardedSystemOptions shard_opts;
  shard_opts.num_shards = shards == 0 ? 1 : shards;
  shard_opts.shard.db.directory = db_dir;
  // Durable servers keep their WAL across checkpoints: the log is the
  // replication feed, and recovery stays exact via the checkpoint LSN.
  shard_opts.shard.db.retain_wal = !db_dir.empty();
  shard_opts.read_only = !follow.empty();
  if (page_cache_mb >= 0) {
    shard_opts.shard.db.paged = true;
    shard_opts.shard.db.page_cache_mb = static_cast<size_t>(page_cache_mb);
  }
  shard_opts.rebalance_interval_ms = rebalance_interval_ms;
  api::Service service(shard_opts);
  Status init = service.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "init failed: %s\n", init.ToString().c_str());
    return 1;
  }
  service.SetAdmissionLimit(admission_rps);

  // Every durable server accepts replication subscribers (so a promoted
  // follower can feed the next replica without a restart); a --follow
  // server additionally runs the receive side until promoted.
  std::unique_ptr<repl::Primary> primary;
  std::unique_ptr<repl::Follower> follower;
  if (!db_dir.empty()) {
    primary = std::make_unique<repl::Primary>(service.sharded());
  }
  if (!follow.empty()) {
    service.SetReplicaMode(follow);
    repl::FollowerOptions fopts;
    fopts.primary_host = follow_host;
    fopts.primary_port = follow_port;
    follower = std::make_unique<repl::Follower>(service.sharded(), fopts);
    service.SetPromoteHandler([&service, &follower] {
      follower->Stop();
      return service.sharded()->Promote();
    });
    Status fstart = follower->Start();
    if (!fstart.ok()) {
      std::fprintf(stderr, "follower start failed: %s\n",
                   fstart.ToString().c_str());
      return 1;
    }
  }

  net::ServerOptions opts;
  opts.port = port;
  opts.reactors = reactors;
  net::Server server(&service, opts);
  if (primary != nullptr) server.SetReplHooks(primary->Hooks());
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::string backend =
      db_dir.empty() ? std::string("in-memory")
                     : (page_cache_mb >= 0
                            ? "durable (paged, " +
                                  std::to_string(page_cache_mb) +
                                  " MiB cache): " + db_dir
                            : "durable: " + db_dir);
  if (!follow.empty()) backend += ", following " + follow;
  char placement[64];
  if (rebalance_interval_ms == 0) {
    std::snprintf(placement, sizeof(placement), "static placement");
  } else {
    std::snprintf(placement, sizeof(placement),
                  "rebalancing every %zu ms", rebalance_interval_ms);
  }
  std::printf(
      "itag_server listening on 127.0.0.1:%u (api v%u, %zu shards, "
      "%zu reactors, %s, %s%s)\n",
      server.port(), api::kApiVersion, shard_opts.num_shards,
      server.reactor_count(), backend.c_str(), placement,
      admission_rps == 0
          ? ""
          : (", admission " + std::to_string(admission_rps) + " rps/project")
                .c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(max_seconds > 0 ? max_seconds : 0);
  while (!g_stop.load(std::memory_order_acquire)) {
    if (max_seconds > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful shutdown: sever the replication stream first (a mid-apply
  // burst finishes; the cursor is durable either way), drain the wire
  // (Stop joins in-flight dispatches), then checkpoint what they wrote.
  if (follower != nullptr) follower->Stop();
  if (primary != nullptr) primary->Stop();
  server.Stop();
  api::CheckpointResponse checkpoint = service.Checkpoint({});
  if (!checkpoint.status.ok()) {
    std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                 checkpoint.status.ToString().c_str());
    return 1;
  }
  if (checkpoint.durable) {
    std::printf("itag_server: checkpointed %llu rows in %llu tables\n",
                static_cast<unsigned long long>(checkpoint.rows),
                static_cast<unsigned long long>(checkpoint.tables));
  }
  net::ServerStats stats = server.stats();
  std::printf(
      "itag_server: served %llu connections, %llu frames "
      "(%llu responses, %llu errors)\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.responses_sent),
      static_cast<unsigned long long>(stats.errors_sent));
  // Plain-text metrics dump — the same rendering `itag_client --metrics`
  // prints while the server is live (see docs/observability.md).
  std::printf("--- metrics ---\n%s",
              obs::RenderText(obs::MetricsRegistry::Default().Snapshot())
                  .c_str());
  if (!trace_export.empty()) {
    // The retained trace ring as Chrome trace-event JSON — load it in
    // chrome://tracing or Perfetto's legacy importer.
    std::ofstream out(trace_export, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write --trace-export file %s\n",
                   trace_export.c_str());
      return 1;
    }
    out << obs::Tracer::Default().ExportChromeJson();
    std::printf("itag_server: exported %llu traces to %s\n",
                static_cast<unsigned long long>(
                    obs::Tracer::Default().traces_retained()),
                trace_export.c_str());
  }
  return 0;
}
