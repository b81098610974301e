// End-to-end coverage of the net tier: a real net::Server on a loopback
// ephemeral port, driven by net::Client. Properties held:
//  - the full-coverage script (every AnyRequest alternative) answered over
//    the wire is byte-identical to an in-process Service::Dispatch replay,
//    per-item Status vectors (codes AND messages) included;
//  - >= 4 client threads hammering the sharded backend concurrently end in
//    the same state as a single-threaded in-process replay (bit-equal
//    ProjectQuery responses) — runs under the TSan CI job;
//  - a frame with the wrong api version gets a typed FailedPrecondition
//    reply and the connection survives (bump-safe negotiation);
//  - requests beyond max_in_flight get a typed ResourceExhausted reply;
//  - unparseable bytes close only the offending connection;
//  - a detail-free ProjectQuery runs on the reactor only when its view's
//    projected gain is planned; the read that plans it runs on a worker.
//
// The load-bearing guarantees run parameterized at reactors ∈ {1, 4}
// (NetServerReactorTest / NetServerHammerTest): the multi-reactor server
// must be observationally identical to the single-IO-thread original —
// same bytes, same typed errors, same backpressure — with only the thread
// topology changing. Reactor-only behaviors (round-robin connection
// spread, merged BatchSubmitTags dispatch) get their own tests below.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "common/socket.h"
#include "itag/sharded_system.h"
#include "net/client.h"
#include "net/wire.h"
#include "net_test_scenario.h"
#include "obs/metrics.h"

namespace itag::net {
namespace {

using core::AcceptedTask;
using core::ProjectId;
using core::ProviderId;
using core::UserTaggerId;

core::ShardedSystemOptions ShardOpts(size_t shards, size_t pool_threads) {
  core::ShardedSystemOptions opts;
  opts.num_shards = shards;
  opts.pool_threads = pool_threads;
  return opts;
}

/// Serialized response payload — the bit-equality yardstick.
std::string Bytes(const api::AnyResponse& resp) {
  return EncodeResponsePayload(resp);
}

TEST(NetServerTest, StartsOnEphemeralPortAndStops) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.Start().IsFailedPrecondition());  // double start
  server.Stop();
  server.Stop();  // idempotent
}

/// The guarantee suite that must hold unchanged at every reactor count.
class NetServerReactorTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Reactors, NetServerReactorTest,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "reactor" +
                                  (info.param == 1 ? "" : "s");
                         });

TEST_P(NetServerReactorTest, FullScriptOverLoopbackBitEqualToInProcess) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript();

  // Two identically-configured backends: one behind the server, one driven
  // in-process as the oracle.
  api::Service served(ShardOpts(1, 1));
  api::Service oracle(ShardOpts(1, 1));
  ASSERT_TRUE(served.Init().ok());
  ASSERT_TRUE(oracle.Init().ok());

  ServerOptions opts;
  opts.workers = 2;
  opts.reactors = GetParam();
  Server server(&served, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.reactor_count(), GetParam());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("request #" + std::to_string(i) + " (" +
                 api::RequestTypeName(script[i].index()) + ")");
    Result<api::AnyResponse> over_wire = client.Dispatch(script[i]);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    api::AnyResponse in_process = oracle.Dispatch(script[i]);
    ASSERT_EQ(over_wire.value().index(), in_process.index());
    EXPECT_EQ(Bytes(over_wire.value()), Bytes(in_process));
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_received, script.size());
  EXPECT_EQ(stats.responses_sent, script.size());
  EXPECT_EQ(stats.errors_sent, 0u);
  server.Stop();
}

// Per-item error fidelity, spelled out: the wire client sees the exact
// Status codes and messages an in-process caller gets.
TEST(NetServerTest, StatusMessagesSurviveTheWire) {
  api::Service served(ShardOpts(1, 1));
  api::Service oracle(ShardOpts(1, 1));
  ASSERT_TRUE(served.Init().ok());
  ASSERT_TRUE(oracle.Init().ok());
  Server server(&served);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  api::BatchSubmitTagsRequest bad;
  bad.items.push_back({1, 0, {"x"}});       // zero handle
  bad.items.push_back({1, 5, {}});          // no tags
  bad.items.push_back({1, 123456, {"x"}});  // unknown handle
  Result<api::BatchSubmitTagsResponse> got = client.BatchSubmitTags(bad);
  ASSERT_TRUE(got.ok());
  api::BatchSubmitTagsResponse want = oracle.BatchSubmitTags(bad);
  ASSERT_EQ(got.value().outcome.statuses.size(),
            want.outcome.statuses.size());
  for (size_t i = 0; i < want.outcome.statuses.size(); ++i) {
    const Status& g = got.value().outcome.statuses[i];
    const Status& w = want.outcome.statuses[i];
    EXPECT_EQ(g.code(), w.code()) << "item " << i;
    EXPECT_EQ(g.message(), w.message()) << "item " << i;
    EXPECT_FALSE(w.message().empty()) << "item " << i;
  }
  server.Stop();
}

TEST(NetServerTest, VersionMismatchGetsTypedReplyAndConnectionSurvives) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Bump-safe both directions: a future client and a stale client.
  for (uint32_t wrong :
       {api::kApiVersion + 1, api::kApiVersion + 1000, uint32_t{0}}) {
    SCOPED_TRACE("version " + std::to_string(wrong));
    client.set_wire_version(wrong);
    Result<api::AnyResponse> r =
        client.Dispatch(api::AnyRequest{api::StepRequest{0}});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsFailedPrecondition())
        << r.status().ToString();
    // The reply names both versions, so a stale client can log why.
    EXPECT_NE(r.status().message().find(std::to_string(api::kApiVersion)),
              std::string::npos);
  }

  // Same connection, right version: served normally.
  client.set_wire_version(api::kApiVersion);
  Result<api::StepResponse> ok = client.Step({0});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value().status.ok());
  EXPECT_EQ(server.stats().version_rejections, 3u);
  server.Stop();
}

// Stale-frame negotiation across the version history: a v1 frame (any
// pre-durability client), a v2 frame (any pre-observability client), a v3
// frame (any pre-tracing client), and a v4 frame (any pre-replication
// client) each get the typed FailedPrecondition reply naming both
// versions, never a hangup, and the negotiation hooks cover the newest
// variant.
TEST(NetServerTest, StaleVersionFramesGetTypedReplyAfterBump) {
  static_assert(api::kApiVersion == 5,
                "update this test alongside the next version bump");
  static_assert(!api::IsCompatibleApiVersion(1),
                "v1 frames must be refused by a v5 server");
  static_assert(!api::IsCompatibleApiVersion(2),
                "v2 frames must be refused by a v5 server");
  static_assert(!api::IsCompatibleApiVersion(3),
                "v3 frames must be refused by a v5 server");
  static_assert(!api::IsCompatibleApiVersion(4),
                "v4 frames must be refused by a v5 server");
  static_assert(api::IsCompatibleApiVersion(api::kApiVersion));
  EXPECT_STREQ(api::RequestTypeName(10), "Checkpoint");
  EXPECT_STREQ(api::RequestTypeName(11), "MetricsQuery");
  EXPECT_STREQ(api::RequestTypeName(12), "TraceQuery");
  EXPECT_STREQ(api::RequestTypeName(13), "Promote");
  EXPECT_EQ(api::kRequestTypeCount, 14u);

  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (uint32_t stale : {uint32_t{1}, uint32_t{2}, uint32_t{3}, uint32_t{4}}) {
    SCOPED_TRACE("stale version " + std::to_string(stale));
    client.set_wire_version(stale);
    Result<api::AnyResponse> r =
        client.Dispatch(api::AnyRequest{api::CheckpointRequest{}});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
    EXPECT_NE(r.status().message().find(std::to_string(stale)),
              std::string::npos);
    EXPECT_NE(r.status().message().find(std::to_string(api::kApiVersion)),
              std::string::npos);
  }

  // Same connection, current version: the newer endpoints are served.
  client.set_wire_version(api::kApiVersion);
  Result<api::CheckpointResponse> ck = client.Checkpoint({});
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  EXPECT_TRUE(ck.value().status.ok());
  EXPECT_FALSE(ck.value().durable);  // in-memory backend
  Result<api::MetricsQueryResponse> mq = client.Metrics({"api."});
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  EXPECT_TRUE(mq.value().status.ok());
  EXPECT_FALSE(mq.value().metrics.empty());
  Result<api::TraceQueryResponse> tq = client.Traces({});
  ASSERT_TRUE(tq.ok()) << tq.status().ToString();
  EXPECT_TRUE(tq.value().status.ok());  // ring may be empty; the call works
  EXPECT_EQ(server.stats().version_rejections, 4u);
  server.Stop();
}

TEST_P(NetServerReactorTest, OverloadAnswersTypedResourceExhausted) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());

  // Two workers, both parked in before_dispatch; capacity 2. The third
  // pipelined request must be refused immediately — deterministically.
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  ServerOptions opts;
  opts.workers = 2;
  opts.max_in_flight = 2;
  opts.reactors = GetParam();
  opts.before_dispatch = [&](const api::AnyRequest&) {
    ++arrived;
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<uint64_t> c1 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  Result<uint64_t> c2 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  while (arrived.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both slots held → the next frame is refused at arrival. (The typed
  // reply itself rides the pool behind the parked workers, so it is
  // awaited after the release below — the *decision* was already made.)
  Result<uint64_t> c3 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  ASSERT_TRUE(c3.ok());
  while (server.stats().overload_rejections < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Backpressure is advisory, not fatal: release the workers; the two
  // parked requests complete, the refused one reports ResourceExhausted,
  // and the connection keeps serving.
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(client.Await(c1.value()).ok());
  EXPECT_TRUE(client.Await(c2.value()).ok());
  Result<api::AnyResponse> refused = client.Await(c3.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_TRUE(client.Step({0}).ok());
  EXPECT_EQ(server.stats().overload_rejections, 1u);
  server.Stop();
}

TEST_P(NetServerReactorTest, SlowReaderIsTimedOutNotAllowedToWedgeWorkers) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  ServerOptions opts;
  opts.workers = 1;  // one wedged worker would freeze the whole pool
  opts.write_timeout_ms = 250;
  opts.reactors = GetParam();
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  // A client that pipelines requests with multi-megabyte responses and
  // never reads: each request carries 60k bad submit items, whose response
  // echoes 60k Status messages (~2 MB). A few of those overflow the
  // loopback buffers, so the worker's write must hit write_timeout_ms
  // instead of parking forever.
  Result<Socket> hog = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(hog.ok());
  api::BatchSubmitTagsRequest big;
  big.items.resize(60000);  // all zero handles -> per-item InvalidArgument
  std::string frame = EncodeRequestFrame(1, api::AnyRequest{big});
  for (uint64_t c = 0; c < 5; ++c) {
    ASSERT_TRUE(hog->WriteAll(frame.data(), frame.size()).ok());
  }

  // The worker must shake free and serve a healthy client promptly. Allow
  // generous wall time (TSan CI) but far less than "forever".
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  Result<api::StepResponse> served = healthy.Step({0});
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
  server.Stop();  // must not hang on a wedged pool
}

TEST(NetServerTest, FramesSentRightBeforeCloseAreStillDispatched) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  // Fire-and-forget: one valid frame, then an immediate close. The EOF
  // may land in the same readable event as the bytes; the request must
  // still execute.
  {
    Result<Socket> raw = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(raw.ok());
    std::string frame = EncodeRequestFrame(
        1, api::AnyRequest{api::RegisterProviderRequest{"parting-shot"}});
    ASSERT_TRUE(raw->WriteAll(frame.data(), frame.size()).ok());
  }  // socket closes here
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().frames_received < 1 ||
         server.stats().responses_sent < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The registration really happened: the next registration gets the id
  // an in-process oracle hands out *second*, not first.
  api::Service oracle(ShardOpts(1, 1));
  ASSERT_TRUE(oracle.Init().ok());
  (void)oracle.RegisterProvider({"parting-shot"});
  core::ProviderId want = oracle.RegisterProvider({"after"}).provider;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<api::RegisterProviderResponse> second =
      client.RegisterProvider({"after"});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().status.ok());
  EXPECT_EQ(second.value().provider, want);
  server.Stop();
}

TEST_P(NetServerReactorTest, GarbageBytesCloseOnlyTheOffendingConnection) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  ServerOptions opts;
  opts.reactors = GetParam();
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  // A raw socket spews non-protocol bytes.
  Result<Socket> raw = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  std::string garbage(64, 'Z');
  ASSERT_TRUE(raw->WriteAll(garbage.data(), garbage.size()).ok());
  char buf[16];
  Result<size_t> read = raw->ReadSome(buf, sizeof(buf));  // expect EOF
  EXPECT_FALSE(read.ok());

  // Healthy clients are unaffected, before and after.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Step({0}).ok());
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.Stop();
}

TEST(NetServerTest, PipelinedRepliesArriveOutOfOrderByCorrelation) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());

  // Hold ONLY the first request hostage; later pipelined ones must overtake
  // it on the wire and still land on the right Await.
  std::atomic<bool> release{false};
  std::atomic<int> arrived{0};
  ServerOptions opts;
  opts.workers = 3;
  opts.before_dispatch = [&](const api::AnyRequest& req) {
    if (std::holds_alternative<api::RegisterProviderRequest>(req)) {
      ++arrived;
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<uint64_t> slow = client.DispatchAsync(
      api::AnyRequest{api::RegisterProviderRequest{"slow"}});
  ASSERT_TRUE(slow.ok());
  while (arrived.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<uint64_t> fast =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  ASSERT_TRUE(fast.ok());

  // The fast reply is readable while the slow one is still parked.
  Result<api::AnyResponse> fast_resp = client.Await(fast.value());
  ASSERT_TRUE(fast_resp.ok());
  EXPECT_TRUE(std::holds_alternative<api::StepResponse>(fast_resp.value()));
  EXPECT_EQ(client.ready_count(), 0u);

  release.store(true, std::memory_order_release);
  Result<api::AnyResponse> slow_resp = client.Await(slow.value());
  ASSERT_TRUE(slow_resp.ok());
  const auto& reg =
      std::get<api::RegisterProviderResponse>(slow_resp.value());
  EXPECT_TRUE(reg.status.ok());
  server.Stop();
}

TEST_P(NetServerReactorTest, ViewOnlyQueryIsAnsweredWithoutAWorker) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  ProviderId provider = service.RegisterProvider({"prov"}).provider;
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec.name = "dash";
  create.spec.platform = core::PlatformChoice::kAudience;
  ProjectId project = service.CreateProject(create).project;
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  upload.items.push_back({tagging::ResourceKind::kWebUrl, "u", "", {"seed"}});
  ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
  // The first read of a version plans its projected gain, and that read
  // goes to a worker; this one leaves the view planned.
  ASSERT_TRUE(service.ProjectQuery({project, false, {}}).status.ok());

  // Both workers parked on Step requests; nothing else is held.
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  ServerOptions opts;
  opts.workers = 2;
  opts.reactors = GetParam();
  opts.before_dispatch = [&](const api::AnyRequest& req) {
    if (!std::holds_alternative<api::StepRequest>(req)) return;
    ++arrived;
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<uint64_t> step1 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  Result<uint64_t> step2 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  ASSERT_TRUE(step1.ok());
  ASSERT_TRUE(step2.ok());
  while (arrived.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A query with details needs a worker, so it waits behind the parked
  // Steps; a detail-free one is answered on the reactor meanwhile.
  Result<uint64_t> detailed = client.DispatchAsync(
      api::AnyRequest{api::ProjectQueryRequest{project, false, {0}}});
  ASSERT_TRUE(detailed.ok());
  Result<api::ProjectQueryResponse> view =
      client.ProjectQuery({project, true, {}});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_TRUE(view.value().status.ok());
  EXPECT_EQ(view.value().info.id, project);
  EXPECT_EQ(view.value().info.num_resources, 1u);
  EXPECT_TRUE(view.value().details.empty());
  EXPECT_EQ(client.ready_count(), 0u);  // nothing else was answered

  release.store(true, std::memory_order_release);
  EXPECT_TRUE(client.Await(step1.value()).ok());
  EXPECT_TRUE(client.Await(step2.value()).ok());
  Result<api::AnyResponse> details = client.Await(detailed.value());
  ASSERT_TRUE(details.ok());
  const auto& resp = std::get<api::ProjectQueryResponse>(details.value());
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.details.size(), 1u);
  server.Stop();
}

// A detail-free query of a view nobody has read yet would plan the view's
// projected gain, so it runs on a worker, not the reactor; once that read
// planned the version, the next one is answered on the reactor.
TEST_P(NetServerReactorTest, UnplannedViewQueryRunsOnAWorker) {
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  ProviderId provider = service.RegisterProvider({"prov"}).provider;
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec.name = "dash";
  create.spec.platform = core::PlatformChoice::kAudience;
  ProjectId project = service.CreateProject(create).project;
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  upload.items.push_back({tagging::ResourceKind::kWebUrl, "u", "", {"seed"}});
  ASSERT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
  ASSERT_TRUE(service.sharded()->ViewReadPlans(project));

  // Both workers parked on Step requests, which names their threads.
  std::mutex mu;
  std::set<std::thread::id> workers;
  std::vector<std::thread::id> queries;
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  ServerOptions opts;
  opts.workers = 2;
  opts.reactors = GetParam();
  opts.before_dispatch = [&](const api::AnyRequest& req) {
    if (std::holds_alternative<api::ProjectQueryRequest>(req)) {
      std::lock_guard<std::mutex> lock(mu);
      queries.push_back(std::this_thread::get_id());
      return;
    }
    if (!std::holds_alternative<api::StepRequest>(req)) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      workers.insert(std::this_thread::get_id());
    }
    ++arrived;
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  obs::Counter* plans =
      obs::MetricsRegistry::Default().GetCounter("core.projection.plans");
  const uint64_t plans0 = plans->value();
  Result<uint64_t> step1 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  Result<uint64_t> step2 =
      client.DispatchAsync(api::AnyRequest{api::StepRequest{0}});
  ASSERT_TRUE(step1.ok());
  ASSERT_TRUE(step2.ok());
  while (arrived.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Unplanned: the query waits for a worker behind the parked Steps.
  Result<uint64_t> first = client.DispatchAsync(
      api::AnyRequest{api::ProjectQueryRequest{project, false, {}}});
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(client.ready_count(), 0u);
  EXPECT_EQ(plans->value() - plans0, 0u);
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(client.Await(step1.value()).ok());
  EXPECT_TRUE(client.Await(step2.value()).ok());
  Result<api::AnyResponse> answered = client.Await(first.value());
  ASSERT_TRUE(answered.ok());
  const auto& resp = std::get<api::ProjectQueryResponse>(answered.value());
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(plans->value() - plans0, 1u);

  // Planned: the same query is answered on the reactor, and plans nothing.
  Result<api::ProjectQueryResponse> second =
      client.ProjectQuery({project, false, {}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second.value().status.ok());
  EXPECT_EQ(second.value().info.projected_gain, resp.info.projected_gain);
  EXPECT_EQ(plans->value() - plans0, 1u);
  server.Stop();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(workers.size(), 2u);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(workers.count(queries[0]), 1u) << "unplanned read on the reactor";
  EXPECT_EQ(workers.count(queries[1]), 0u) << "planned read on a worker";
}

// ------------------------------------------------------------- the hammer

core::ProjectSpec HammerSpec(uint32_t budget) {
  core::ProjectSpec spec;
  spec.name = "hammer";
  spec.budget = budget;
  spec.pay_cents = 5;
  spec.platform = core::PlatformChoice::kAudience;
  // Deterministic per-project allocation order → a single-threaded replay
  // of the same per-project traffic must reach a bit-equal end state.
  spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  return spec;
}

std::vector<std::string> TagsFor(const AcceptedTask& task) {
  return {"tag-" + std::to_string(task.resource % 5), "common"};
}

template <typename T>
T Unwrap(Result<T> r) {  // net::Client returns Result<Resp>
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : T{};
}
template <typename T>
T Unwrap(T value) {  // api::Service returns Resp directly
  return value;
}

/// Drives one project to exhaustion: accept / submit / decide, batch-first.
/// `accept` draws tasks, `submit`+`decide` consume them; every per-item
/// status must be OK. Templated so the same traffic runs over a
/// net::Client and over an in-process api::Service.
template <typename Backend>
uint32_t DriveProject(Backend& backend, ProviderId provider,
                      UserTaggerId tagger, ProjectId project) {
  uint32_t completed = 0;
  for (;;) {
    api::BatchAcceptTasksResponse accepted =
        Unwrap(backend.BatchAcceptTasks({tagger, project, 7}));
    if (!accepted.status.ok() || accepted.tasks.empty()) break;
    api::BatchSubmitTagsRequest submit;
    api::BatchDecideRequest decide;
    decide.provider = provider;
    for (const AcceptedTask& task : accepted.tasks) {
      submit.items.push_back({tagger, task.handle, TagsFor(task)});
      decide.items.push_back({task.handle, true});
    }
    EXPECT_TRUE(Unwrap(backend.BatchSubmitTags(submit)).outcome.all_ok());
    api::BatchDecideResponse decided = Unwrap(backend.BatchDecide(decide));
    EXPECT_TRUE(decided.outcome.all_ok());
    completed += static_cast<uint32_t>(decided.outcome.ok_count);
  }
  return completed;
}

/// Identical world setup on both sides: one provider, one tagger per
/// thread, `projects` audience projects uploaded and started.
struct World {
  ProviderId provider = 0;
  std::vector<UserTaggerId> taggers;
  std::vector<ProjectId> projects;
};

World BuildWorld(api::Service& service, size_t threads, size_t projects,
                 uint32_t budget, size_t resources) {
  World w;
  w.provider = service.RegisterProvider({"prov"}).provider;
  for (size_t t = 0; t < threads; ++t) {
    w.taggers.push_back(
        service.RegisterTagger({"tagger-" + std::to_string(t)}).tagger);
  }
  for (size_t p = 0; p < projects; ++p) {
    api::CreateProjectRequest create;
    create.provider = w.provider;
    create.spec = HammerSpec(budget);
    api::CreateProjectResponse resp = service.CreateProject(create);
    EXPECT_TRUE(resp.status.ok());
    api::BatchUploadResourcesRequest upload;
    upload.project = resp.project;
    for (size_t r = 0; r < resources; ++r) {
      api::UploadResourceItem item;
      item.uri = "res-" + std::to_string(r);
      upload.items.push_back(std::move(item));
    }
    EXPECT_TRUE(service.BatchUploadResources(upload).outcome.all_ok());
    EXPECT_TRUE(service
                    .BatchControl(
                        {resp.project, {{api::ControlAction::kStart, 0, 0, {}}}})
                    .outcome.all_ok());
    w.projects.push_back(resp.project);
  }
  return w;
}

// Acceptance gate: >= 4 concurrent wire clients against the sharded
// backend, asserting the end state is bit-equal (full ProjectQuery
// responses, per-item vectors and doubles included) to a single-threaded
// in-process replay of the same per-project traffic. Runs at 1 and 4
// reactors: with 4, the clients' connections spread across every reactor
// and their concurrent submits exercise the shard-grouped and merged
// dispatch paths, which must not change a single byte of backend state.
class NetServerHammerTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Reactors, NetServerHammerTest,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "reactor" +
                                  (info.param == 1 ? "" : "s");
                         });

TEST_P(NetServerHammerTest, FourClientThreadsMatchInProcessReplayBitExact) {
  constexpr size_t kThreads = 4;
  constexpr size_t kProjectsPerThread = 2;
  constexpr size_t kProjects = kThreads * kProjectsPerThread;
  constexpr uint32_t kBudget = 42;
  constexpr size_t kResources = 6;

  // --- wire side: 4 Clients hammer one server concurrently --------------
  api::Service served(ShardOpts(4, 2));
  ASSERT_TRUE(served.Init().ok());
  World world = BuildWorld(served, kThreads, kProjects, kBudget, kResources);
  ServerOptions opts;
  opts.workers = 4;
  opts.reactors = GetParam();
  Server server(&served, opts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<uint32_t> completed(kProjects, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      for (size_t j = 0; j < kProjectsPerThread; ++j) {
        size_t idx = t * kProjectsPerThread + j;
        completed[idx] = DriveProject(client, world.provider,
                                      world.taggers[t], world.projects[idx]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // --- reference: same traffic, one thread, in-process -------------------
  api::Service reference(ShardOpts(4, 2));
  ASSERT_TRUE(reference.Init().ok());
  World ref_world =
      BuildWorld(reference, kThreads, kProjects, kBudget, kResources);
  ASSERT_EQ(ref_world.projects, world.projects);  // same global ids
  std::vector<uint32_t> ref_completed(kProjects, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < kProjectsPerThread; ++j) {
      size_t idx = t * kProjectsPerThread + j;
      ref_completed[idx] =
          DriveProject(reference, ref_world.provider, ref_world.taggers[t],
                       ref_world.projects[idx]);
    }
  }

  // --- equivalence: whole wire responses, byte for byte ------------------
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
  for (size_t p = 0; p < kProjects; ++p) {
    SCOPED_TRACE("project " + std::to_string(p));
    EXPECT_EQ(completed[p], ref_completed[p]);
    EXPECT_EQ(completed[p], kBudget);
    api::ProjectQueryRequest query;
    query.project = world.projects[p];
    query.include_feed = true;
    Result<api::AnyResponse> over_wire = probe.Dispatch(query);
    ASSERT_TRUE(over_wire.ok());
    EXPECT_EQ(Bytes(over_wire.value()),
              Bytes(reference.Dispatch(query)));
  }
  EXPECT_EQ(served.sharded()->TotalPaidCents(),
            reference.sharded()->TotalPaidCents());
  server.Stop();
}

// ------------------------------------------------- reactor-only behaviors

// The accept handoff is strict round-robin, so 8 sequential connections
// against 4 reactors land exactly 2 on each — verified through the
// per-reactor registry counters (net.reactor.<i>.*), which are also the
// operator's balance check in production.
TEST(NetServerReactorSpreadTest, RoundRobinSpreadsConnectionsAcrossReactors) {
  constexpr size_t kReactors = 4;
  constexpr size_t kClientsPerReactor = 2;
  api::Service service(ShardOpts(1, 1));
  ASSERT_TRUE(service.Init().ok());
  ServerOptions opts;
  opts.reactors = kReactors;
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  uint64_t conns_before[kReactors];
  uint64_t frames_before[kReactors];
  for (size_t i = 0; i < kReactors; ++i) {
    const std::string prefix = "net.reactor." + std::to_string(i) + ".";
    conns_before[i] = reg.GetCounter(prefix + "connections")->value();
    frames_before[i] = reg.GetCounter(prefix + "frames")->value();
  }

  // One served round trip per client proves its connection is registered
  // on *some* reactor before we count.
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kReactors * kClientsPerReactor; ++c) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(clients.back()->Step({0}).ok());
  }
  for (size_t i = 0; i < kReactors; ++i) {
    SCOPED_TRACE("reactor " + std::to_string(i));
    const std::string prefix = "net.reactor." + std::to_string(i) + ".";
    EXPECT_EQ(reg.GetCounter(prefix + "connections")->value() -
                  conns_before[i],
              kClientsPerReactor);
    EXPECT_EQ(reg.GetCounter(prefix + "frames")->value() - frames_before[i],
              kClientsPerReactor);  // one Step frame per client
  }
  server.Stop();
}

// Pipelined BatchSubmitTags from one connection arrive in one read burst
// and ride the merged dispatch path (one backend batch for the whole
// group). The merge is an optimization, not a semantic: every response —
// and the project end state — must be bit-identical to a single-threaded
// in-process replay submitting one request at a time.
TEST(NetServerMergeTest, PipelinedSubmitsMergeBitExactWithSequentialReplay) {
  constexpr uint32_t kBudget = 24;
  constexpr size_t kResources = 6;
  api::Service served(ShardOpts(2, 2));
  api::Service oracle(ShardOpts(2, 2));
  ASSERT_TRUE(served.Init().ok());
  ASSERT_TRUE(oracle.Init().ok());
  World world = BuildWorld(served, 1, 1, kBudget, kResources);
  World ref_world = BuildWorld(oracle, 1, 1, kBudget, kResources);
  ASSERT_EQ(world.projects, ref_world.projects);

  ServerOptions opts;
  opts.workers = 2;
  opts.reactors = 2;
  Server server(&served, opts);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Draw the same tasks on both sides (allocation is deterministic).
  api::BatchAcceptTasksResponse tasks = Unwrap(
      client.BatchAcceptTasks({world.taggers[0], world.projects[0], 20}));
  api::BatchAcceptTasksResponse ref_tasks = oracle.BatchAcceptTasks(
      {ref_world.taggers[0], ref_world.projects[0], 20});
  ASSERT_TRUE(tasks.status.ok());
  ASSERT_EQ(tasks.tasks.size(), ref_tasks.tasks.size());

  // Fire every submit before awaiting any: the frames land back-to-back,
  // so the server is free to merge them (and must merge invisibly).
  std::vector<uint64_t> correlations;
  for (const AcceptedTask& task : tasks.tasks) {
    api::BatchSubmitTagsRequest submit;
    submit.items.push_back({world.taggers[0], task.handle, TagsFor(task)});
    Result<uint64_t> c = client.DispatchAsync(api::AnyRequest{submit});
    ASSERT_TRUE(c.ok());
    correlations.push_back(c.value());
  }
  std::vector<api::AnyResponse> replies;
  for (uint64_t c : correlations) {
    Result<api::AnyResponse> r = client.Await(c);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    replies.push_back(std::move(r).value());
  }
  for (size_t i = 0; i < ref_tasks.tasks.size(); ++i) {
    SCOPED_TRACE("submit #" + std::to_string(i));
    api::BatchSubmitTagsRequest submit;
    submit.items.push_back({ref_world.taggers[0], ref_tasks.tasks[i].handle,
                            TagsFor(ref_tasks.tasks[i])});
    EXPECT_EQ(Bytes(replies[i]), Bytes(oracle.BatchSubmitTags(submit)));
  }

  // End state, byte for byte.
  api::ProjectQueryRequest query;
  query.project = world.projects[0];
  query.include_feed = true;
  Result<api::AnyResponse> over_wire = client.Dispatch(query);
  ASSERT_TRUE(over_wire.ok());
  EXPECT_EQ(Bytes(over_wire.value()), Bytes(oracle.Dispatch(query)));
  server.Stop();
}

}  // namespace
}  // namespace itag::net
