// WAL-shipping replication, proven in-process over a real TCP stream
// (docs/replication.md):
//  - convergence: after EVERY request of the shared full-coverage Dispatch
//    script lands on the primary, the follower — once its applied LSNs
//    match the primary's — answers the canonical state queries with
//    byte-identical response payloads;
//  - resume-from-LSN: a follower torn down mid-stream and rebuilt from its
//    own directory subscribes from its durable cursor, replays only the
//    unseen suffix, and converges byte-equal;
//  - write fencing: every write endpoint on a replica answers the typed
//    FailedPrecondition naming the leader (per-item on batch endpoints)
//    while reads keep serving;
//  - handshake: a follower with a mismatched topology gets a typed error
//    frame, never a stream.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "itag/sharded_system.h"
#include "net/server.h"
#include "net/wire.h"
#include "net_test_scenario.h"
#include "obs/metrics.h"
#include "repl/repl.h"

namespace itag {
namespace {

namespace fs = std::filesystem;

using core::ShardedSystemOptions;

constexpr size_t kShards = 2;

std::string Bytes(const api::AnyResponse& resp) {
  return net::EncodeResponsePayload(resp);
}

ShardedSystemOptions PrimaryOpts(const std::string& dir) {
  ShardedSystemOptions opts;
  opts.num_shards = kShards;
  opts.pool_threads = 1;
  opts.shard.db.directory = dir;
  opts.shard.db.retain_wal = true;  // the WAL is the replication feed
  return opts;
}

ShardedSystemOptions FollowerOpts(const std::string& dir) {
  ShardedSystemOptions opts = PrimaryOpts(dir);
  opts.read_only = true;
  return opts;
}

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("itag_repl_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& leaf) { return root_ + "/" + leaf; }

  std::string root_;
};

/// The canonical read probes: every plausible global project id, full feed
/// and per-resource details — deterministic bytes on any backend that holds
/// the same state (MetricsQuery/TraceQuery are wall-clock-dependent and
/// deliberately not part of the yardstick).
std::vector<api::ProjectQueryRequest> StateProbes() {
  std::vector<api::ProjectQueryRequest> probes;
  for (uint64_t id = 0; id < 8; ++id) {
    api::ProjectQueryRequest q;
    q.project = id;
    q.include_feed = true;
    for (uint32_t r = 0; r < 6; ++r) q.detail_resources.push_back(r);
    probes.push_back(std::move(q));
  }
  return probes;
}

void ExpectSameState(api::Service& primary, api::Service& follower,
                     const std::string& when) {
  for (api::ProjectQueryRequest& probe : StateProbes()) {
    SCOPED_TRACE(when + ", project " + std::to_string(probe.project));
    EXPECT_EQ(Bytes(api::AnyResponse{primary.ProjectQuery(probe)}),
              Bytes(api::AnyResponse{follower.ProjectQuery(probe)}));
  }
}

/// Polls until the follower has published exactly the primary's LSNs.
[[nodiscard]] bool WaitCaughtUp(const repl::Follower& follower,
                                core::ShardedSystem& primary,
                                int timeout_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  std::vector<uint64_t> want = primary.ReplLsns();
  while (std::chrono::steady_clock::now() < deadline) {
    if (follower.applied_lsns() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A primary service + wire server with streaming hooks, ready for
/// followers. Writes go straight to `service` (in-process); only the
/// replication stream crosses TCP — exactly the part under test.
struct PrimaryHarness {
  explicit PrimaryHarness(const std::string& dir)
      : service(PrimaryOpts(dir)) {
    EXPECT_TRUE(service.Init().ok());
    streamer = std::make_unique<repl::Primary>(service.sharded());
    server = std::make_unique<net::Server>(&service);
    server->SetReplHooks(streamer->Hooks());
    EXPECT_TRUE(server->Start().ok());
  }
  ~PrimaryHarness() {
    streamer->Stop();
    server->Stop();
  }

  api::Service service;
  std::unique_ptr<repl::Primary> streamer;
  std::unique_ptr<net::Server> server;
};

/// A follower system + replica-mode service + stream client.
struct FollowerHarness {
  FollowerHarness(const std::string& dir, uint16_t primary_port)
      : service(FollowerOpts(dir)) {
    EXPECT_TRUE(service.Init().ok());
    service.SetReplicaMode("127.0.0.1:" + std::to_string(primary_port));
    repl::FollowerOptions fopts;
    fopts.primary_port = primary_port;
    fopts.reconnect_backoff_ms = 5;
    follower = std::make_unique<repl::Follower>(service.sharded(), fopts);
    EXPECT_TRUE(follower->Start().ok());
  }
  ~FollowerHarness() { follower->Stop(); }

  api::Service service;
  std::unique_ptr<repl::Follower> follower;
};

TEST_F(ReplTest, FollowerConvergesByteEqualAfterEveryRequest) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);

  PrimaryHarness primary(Dir("primary"));
  FollowerHarness follower(Dir("follower"), primary.server->port());

  for (size_t i = 0; i < script.size(); ++i) {
    primary.service.Dispatch(script[i]);
    ASSERT_TRUE(WaitCaughtUp(*follower.follower, *primary.service.sharded()))
        << "follower never caught up after request #" << i << " ("
        << api::RequestTypeName(script[i].index()) << ")";
    ExpectSameState(primary.service, follower.service,
                    "after request #" + std::to_string(i) + " (" +
                        api::RequestTypeName(script[i].index()) + ")");
  }

  // The stream reported progress the obs surface can see.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  EXPECT_GT(reg.GetCounter("repl.batches_applied")->value(), 0u);
  EXPECT_EQ(reg.GetGauge("repl.lag_batches")->value(), 0);
}

TEST_F(ReplTest, FollowerResumesFromDurableCursorAfterRestart) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);
  size_t cut = script.size() / 2;

  PrimaryHarness primary(Dir("primary"));

  std::vector<uint64_t> cursor_at_cut;
  {
    FollowerHarness follower(Dir("follower"), primary.server->port());
    for (size_t i = 0; i < cut; ++i) primary.service.Dispatch(script[i]);
    ASSERT_TRUE(WaitCaughtUp(*follower.follower, *primary.service.sharded()));
    cursor_at_cut = follower.follower->applied_lsns();
    // Teardown: Follower::Stop + Service/ShardedSystem destruction — the
    // follower's only surviving cursor is its own WAL directory.
  }

  // The primary keeps writing while no follower is listening.
  for (size_t i = cut; i < script.size(); ++i) {
    primary.service.Dispatch(script[i]);
  }

  FollowerHarness reborn(Dir("follower"), primary.server->port());
  // The rebuilt follower recovered at least the pre-restart cursor (its
  // durable WAL), so the primary only streams the unseen suffix.
  std::vector<uint64_t> recovered = reborn.service.sharded()->ReplLsns();
  ASSERT_EQ(recovered.size(), cursor_at_cut.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_GE(recovered[i], cursor_at_cut[i]) << "db " << i;
  }
  ASSERT_TRUE(WaitCaughtUp(*reborn.follower, *primary.service.sharded()));
  ExpectSameState(primary.service, reborn.service, "after resume");
}

TEST_F(ReplTest, ReplicaRejectsWritesTypedWhileReadsServe) {
  PrimaryHarness primary(Dir("primary"));
  // Seed the primary so reads have something to serve.
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);
  for (const api::AnyRequest& req : script) primary.service.Dispatch(req);

  FollowerHarness follower(Dir("follower"), primary.server->port());
  ASSERT_TRUE(WaitCaughtUp(*follower.follower, *primary.service.sharded()));
  const std::string leader =
      "leader=127.0.0.1:" + std::to_string(primary.server->port());

  // Whole-call writes: typed FailedPrecondition naming the leader.
  {
    api::RegisterProviderResponse r =
        follower.service.RegisterProvider({"mallory"});
    EXPECT_TRUE(r.status.IsFailedPrecondition()) << r.status.ToString();
    EXPECT_NE(r.status.message().find(leader), std::string::npos)
        << r.status.ToString();
  }
  {
    api::CreateProjectRequest req;
    req.provider = 0;
    req.spec.name = "nope";
    req.spec.budget = 1;
    api::CreateProjectResponse r = follower.service.CreateProject(req);
    EXPECT_TRUE(r.status.IsFailedPrecondition());
    EXPECT_NE(r.status.message().find(leader), std::string::npos);
  }
  {
    api::BatchAcceptTasksRequest req;
    req.tagger = 1;
    req.project = 0;
    req.count = 3;
    api::BatchAcceptTasksResponse r = follower.service.BatchAcceptTasks(req);
    EXPECT_TRUE(r.status.IsFailedPrecondition());
    EXPECT_NE(r.status.message().find(leader), std::string::npos);
  }
  {
    api::StepResponse r = follower.service.Step({4});
    EXPECT_TRUE(r.status.IsFailedPrecondition());
    EXPECT_NE(r.status.message().find(leader), std::string::npos);
  }
  // Batch writes: the rejection is per item, so clients reconciling
  // item-by-item see every slot accounted for.
  {
    api::BatchSubmitTagsRequest req;
    req.items.resize(3);
    for (auto& item : req.items) {
      item.tagger = 1;
      item.handle = 1;
      item.tags = {"t"};
    }
    api::BatchSubmitTagsResponse r = follower.service.BatchSubmitTags(req);
    ASSERT_EQ(r.outcome.statuses.size(), 3u);
    EXPECT_EQ(r.outcome.ok_count, 0u);
    for (const Status& s : r.outcome.statuses) {
      EXPECT_TRUE(s.IsFailedPrecondition());
      EXPECT_NE(s.message().find(leader), std::string::npos);
    }
  }
  {
    api::BatchUploadResourcesRequest req;
    req.project = 0;
    req.items.resize(2);
    for (auto& item : req.items) item.uri = "file:///x";
    api::BatchUploadResourcesResponse r =
        follower.service.BatchUploadResources(req);
    ASSERT_EQ(r.outcome.statuses.size(), 2u);
    EXPECT_EQ(r.outcome.ok_count, 0u);
    for (const Status& s : r.outcome.statuses) {
      EXPECT_TRUE(s.IsFailedPrecondition());
    }
  }

  // Reads and local durability still serve.
  api::ProjectQueryRequest probe;
  probe.project = 0;
  EXPECT_FALSE(
      follower.service.ProjectQuery(probe).status.IsFailedPrecondition());
  EXPECT_TRUE(follower.service.Checkpoint({}).status.ok());
  EXPECT_TRUE(follower.service.MetricsQuery({"repl."}).status.ok());

  // And nothing leaked into the replicated state: still byte-equal.
  ASSERT_TRUE(WaitCaughtUp(*follower.follower, *primary.service.sharded()));
  ExpectSameState(primary.service, follower.service, "after rejections");
}

TEST_F(ReplTest, MismatchedTopologyGetsTypedErrorNeverAStream) {
  PrimaryHarness primary(Dir("primary"));
  obs::Counter* rejects =
      obs::MetricsRegistry::Default().GetCounter("repl.handshake_rejects");
  uint64_t rejects_before = rejects->value();

  // A follower with a different shard count: its deterministic init wrote
  // a different history, so the primary must refuse the subscription.
  ShardedSystemOptions wrong = FollowerOpts(Dir("follower"));
  wrong.num_shards = kShards + 1;
  api::Service service(wrong);
  ASSERT_TRUE(service.Init().ok());
  repl::FollowerOptions fopts;
  fopts.primary_port = primary.server->port();
  fopts.reconnect_backoff_ms = 5;
  repl::Follower follower(service.sharded(), fopts);
  ASSERT_TRUE(follower.Start().ok());

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rejects->value() == rejects_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(rejects->value(), rejects_before);
  EXPECT_EQ(primary.streamer->subscriber_count(), 0u);
  follower.Stop();
}

}  // namespace
}  // namespace itag
