// Promote-on-failure, proven against single-process oracles:
//  - a fully-caught-up replica promoted after the primary dies byte-matches
//    a fresh process restarted on the dead primary's directory (the state
//    an operator would have recovered by hand);
//  - a replica promoted MID-STREAM (stream severed before the primary's
//    last writes) byte-matches an oracle recovered from the primary's WALs
//    truncated at exactly the follower's applied-LSN frame boundaries — a
//    never-replicated replay of the same prefix;
//  - promotion flips writability (writes succeed after, and applying the
//    same post-promote write to replica and oracle keeps them byte-equal);
//  - a promoted replica that served a tagging cycle restarts on its own
//    directory to the state it served;
//  - a second Promote is the typed refusal, not a double-flip.
//
// The kill here is in-process (destroy the primary's server + streamer);
// the real SIGKILL variant runs in CI against the example binaries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "itag/sharded_system.h"
#include "net/server.h"
#include "net/wire.h"
#include "net_test_scenario.h"
#include "repl/repl.h"
#include "storage/wal.h"

namespace itag {
namespace {

namespace fs = std::filesystem;

using core::ShardedSystemOptions;

constexpr size_t kShards = 2;

std::string Bytes(const api::AnyResponse& resp) {
  return net::EncodeResponsePayload(resp);
}

ShardedSystemOptions WritableOpts(const std::string& dir) {
  ShardedSystemOptions opts;
  opts.num_shards = kShards;
  opts.pool_threads = 1;
  opts.shard.db.directory = dir;
  opts.shard.db.retain_wal = true;
  return opts;
}

ShardedSystemOptions ReplicaOpts(const std::string& dir) {
  ShardedSystemOptions opts = WritableOpts(dir);
  opts.read_only = true;
  return opts;
}

class ReplFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("itag_failover_" +
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

void ExpectSameState(api::Service& oracle, api::Service& promoted,
                     const std::string& when) {
  for (api::ProjectQueryRequest& probe : StateProbes()) {
    SCOPED_TRACE(when + ", project " + std::to_string(probe.project));
    EXPECT_EQ(Bytes(api::AnyResponse{oracle.ProjectQuery(probe)}),
              Bytes(api::AnyResponse{promoted.ProjectQuery(probe)}));
  }
}

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

struct PrimaryHarness {
  explicit PrimaryHarness(const std::string& dir)
      : service(WritableOpts(dir)) {
    EXPECT_TRUE(service.Init().ok());
    streamer = std::make_unique<repl::Primary>(service.sharded());
    server = std::make_unique<net::Server>(&service);
    server->SetReplHooks(streamer->Hooks());
    EXPECT_TRUE(server->Start().ok());
  }
  ~PrimaryHarness() { Kill(); }

  /// The in-process stand-in for kill -9: the wire and the stream go away;
  /// the directory stays behind for the oracle.
  void Kill() {
    if (streamer != nullptr) streamer->Stop();
    if (server != nullptr) server->Stop();
  }

  api::Service service;
  std::unique_ptr<repl::Primary> streamer;
  std::unique_ptr<net::Server> server;
};

/// A replica with the promote handler wired the way itag_server wires it:
/// stop the stream, then flip the backend.
struct ReplicaHarness {
  ReplicaHarness(const std::string& dir, uint16_t primary_port)
      : service(ReplicaOpts(dir)) {
    EXPECT_TRUE(service.Init().ok());
    service.SetReplicaMode("127.0.0.1:" + std::to_string(primary_port));
    repl::FollowerOptions fopts;
    fopts.primary_port = primary_port;
    fopts.reconnect_backoff_ms = 5;
    follower = std::make_unique<repl::Follower>(service.sharded(), fopts);
    service.SetPromoteHandler([this] {
      follower->Stop();
      return service.sharded()->Promote();
    });
    EXPECT_TRUE(follower->Start().ok());
  }
  ~ReplicaHarness() { follower->Stop(); }

  api::Service service;
  std::unique_ptr<repl::Follower> follower;
};

/// Copies the primary's per-DB WALs into `oracle_dir` (same relative
/// layout Database::Open expects), truncated at the frame boundary of the
/// last record with lsn <= applied[db] — the never-replicated prefix the
/// follower claims to have applied.
void BuildTruncatedOracle(const std::vector<std::string>& wal_paths,
                          const std::vector<uint64_t>& applied,
                          const std::string& oracle_dir) {
  ASSERT_EQ(wal_paths.size(), applied.size());
  for (size_t db = 0; db < wal_paths.size(); ++db) {
    std::string leaf = db + 1 == wal_paths.size()
                           ? "placement"
                           : "shard-" + std::to_string(db);
    fs::create_directories(fs::path(oracle_dir) / leaf);

    storage::WalTailer tailer(wal_paths[db]);
    uint64_t cut = 0;
    while (true) {
      storage::WalRecord rec;
      bool have = false;
      ASSERT_TRUE(tailer.Next(&rec, &have).ok()) << wal_paths[db];
      if (!have || rec.lsn > applied[db]) break;
      cut = tailer.offset();
    }

    std::ifstream in(wal_paths[db], std::ios::binary);
    ASSERT_TRUE(in.good()) << wal_paths[db];
    std::string bytes(cut, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(cut));
    ASSERT_EQ(static_cast<uint64_t>(in.gcount()), cut);
    std::ofstream out(fs::path(oracle_dir) / leaf / "wal.log",
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
}

/// The shared epilogue: promoted replica must accept writes, stay
/// byte-equal with the oracle under an identical post-promote write, and
/// refuse a second Promote.
void ExpectPromotedAndWritable(api::Service& oracle, api::Service& promoted) {
  EXPECT_FALSE(promoted.replica_mode());
  api::RegisterProviderResponse o =
      oracle.RegisterProvider({"post-promote-provider"});
  api::RegisterProviderResponse p =
      promoted.RegisterProvider({"post-promote-provider"});
  ASSERT_TRUE(p.status.ok()) << p.status.ToString();
  EXPECT_EQ(o.provider, p.provider);
  ExpectSameState(oracle, promoted, "after post-promote write");

  api::PromoteResponse again = promoted.Promote({});
  EXPECT_TRUE(again.status.IsFailedPrecondition()) << again.status.ToString();
  EXPECT_FALSE(again.was_replica);
}

TEST_F(ReplFailoverTest, CaughtUpReplicaMatchesRestartedPrimaryAfterKill) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);

  auto primary = std::make_unique<PrimaryHarness>(Dir("primary"));
  ReplicaHarness replica(Dir("replica"), primary->server->port());
  for (const api::AnyRequest& req : script) primary->service.Dispatch(req);
  ASSERT_TRUE(WaitCaughtUp(*replica.follower, *primary->service.sharded()));

  // kill -9 the primary; its directory survives as the recovery oracle.
  primary.reset();

  api::PromoteResponse resp = replica.service.Promote({});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.was_replica);

  api::Service oracle(WritableOpts(Dir("primary")));
  ASSERT_TRUE(oracle.Init().ok());
  ExpectSameState(oracle, replica.service, "after promote");
  ExpectPromotedAndWritable(oracle, replica.service);
}

/// One accept/submit/approve cycle on the script's open project, by its
/// first tagger and its provider (id 0 each). Between them the three calls
/// write the project, provider, tagger, ledger and sys rows.
void RunTaggingCycle(api::Service& service) {
  std::vector<core::ProjectInfo> open = service.sharded()->ListOpenProjects();
  ASSERT_EQ(open.size(), 1u);
  api::BatchAcceptTasksResponse accepted =
      service.BatchAcceptTasks({0, open[0].id, 1});
  ASSERT_TRUE(accepted.status.ok()) << accepted.status.ToString();
  ASSERT_EQ(accepted.tasks.size(), 1u);
  const core::TaskHandle handle = accepted.tasks[0].handle;
  api::BatchSubmitTagsRequest submit;
  submit.items.push_back({0, handle, {"after", "promote"}});
  ASSERT_TRUE(service.BatchSubmitTags(submit).outcome.all_ok());
  api::BatchDecideRequest decide;
  decide.provider = 0;
  decide.items.push_back({handle, true});
  ASSERT_TRUE(service.BatchDecide(decide).outcome.all_ok());
}

// Promote re-derives the replica's state from the replicated tables, and
// its first keyed writes must land on the rows it replicated. A restart on
// its directory then reads back the state it served.
TEST_F(ReplFailoverTest, PromotedReplicaRestartsToTheStateItServed) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);

  auto primary = std::make_unique<PrimaryHarness>(Dir("primary"));
  auto replica = std::make_unique<ReplicaHarness>(Dir("replica"),
                                                  primary->server->port());
  for (const api::AnyRequest& req : script) primary->service.Dispatch(req);
  ASSERT_TRUE(WaitCaughtUp(*replica->follower, *primary->service.sharded()));
  primary.reset();
  api::PromoteResponse resp = replica->service.Promote({});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();

  api::Service oracle(WritableOpts(Dir("primary")));
  ASSERT_TRUE(oracle.Init().ok());
  RunTaggingCycle(oracle);
  RunTaggingCycle(replica->service);
  ExpectSameState(oracle, replica->service, "after the cycle");

  replica.reset();
  api::Service reopened(WritableOpts(Dir("replica")));
  ASSERT_TRUE(reopened.Init().ok());
  ExpectSameState(oracle, reopened, "after restarting the promoted replica");
  core::ShardedSystem& want = *oracle.sharded();
  core::ShardedSystem& got = *reopened.sharded();
  Result<core::ProviderProfile> want_provider = want.GetProvider(0);
  Result<core::ProviderProfile> got_provider = got.GetProvider(0);
  ASSERT_TRUE(want_provider.ok() && got_provider.ok());
  EXPECT_EQ(got_provider.value().approvals_given,
            want_provider.value().approvals_given);
  EXPECT_EQ(got_provider.value().rejections_given,
            want_provider.value().rejections_given);
  Result<core::TaggerProfile> want_tagger = want.GetTagger(0);
  Result<core::TaggerProfile> got_tagger = got.GetTagger(0);
  ASSERT_TRUE(want_tagger.ok() && got_tagger.ok());
  EXPECT_EQ(got_tagger.value().submitted, want_tagger.value().submitted);
  EXPECT_EQ(got_tagger.value().approved, want_tagger.value().approved);
  EXPECT_EQ(got_tagger.value().rejected, want_tagger.value().rejected);
  EXPECT_EQ(got_tagger.value().earned_cents,
            want_tagger.value().earned_cents);
  EXPECT_EQ(got.TotalPaidCents(), want.TotalPaidCents());
}

TEST_F(ReplFailoverTest, MidStreamPromoteMatchesTruncatedWalOracle) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);
  size_t cut = script.size() / 2;

  PrimaryHarness primary(Dir("primary"));
  ReplicaHarness replica(Dir("replica"), primary.server->port());

  for (size_t i = 0; i < cut; ++i) primary.service.Dispatch(script[i]);
  ASSERT_TRUE(WaitCaughtUp(*replica.follower, *primary.service.sharded()));

  // Sever the stream, then let the primary race ahead: the replica's
  // applied cursor is now frozen strictly behind the primary's head.
  replica.follower->Stop();
  std::vector<uint64_t> applied = replica.follower->applied_lsns();
  for (size_t i = cut; i < script.size(); ++i) {
    primary.service.Dispatch(script[i]);
  }
  ASSERT_NE(applied, primary.service.sharded()->ReplLsns());

  // Oracle: the primary's WALs truncated at the replica's cursor — what a
  // single process that only ever saw the replicated prefix would hold.
  BuildTruncatedOracle(primary.service.sharded()->ReplWalPaths(), applied,
                       Dir("oracle"));
  primary.Kill();

  api::PromoteResponse resp = replica.service.Promote({});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.was_replica);

  api::Service oracle(WritableOpts(Dir("oracle")));
  ASSERT_TRUE(oracle.Init().ok());
  ExpectSameState(oracle, replica.service, "after mid-stream promote");
  ExpectPromotedAndWritable(oracle, replica.service);
}

TEST_F(ReplFailoverTest, PromoteWithoutHandlerIsTypedRefusal) {
  // A replica-mode service with no handler (no follower wired yet) must
  // refuse rather than silently flip with a stale backend.
  api::Service service(ReplicaOpts(Dir("replica")));
  ASSERT_TRUE(service.Init().ok());
  service.SetReplicaMode("127.0.0.1:1");
  api::PromoteResponse resp = service.Promote({});
  EXPECT_TRUE(resp.status.IsFailedPrecondition()) << resp.status.ToString();
  EXPECT_FALSE(resp.was_replica);
  EXPECT_TRUE(service.replica_mode());
}

}  // namespace
}  // namespace itag
