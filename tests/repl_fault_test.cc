// The replication fault wall: a byte-level TCP proxy sits between follower
// and primary and injects deterministic stream faults — dropped ReplBatch
// frames, duplicated frames, frames truncated mid-payload, and connections
// severed at every frame boundary. Under every schedule the follower must
// reconnect, resubscribe from its durable cursor, dedupe by LSN, and end
// byte-identical to the primary — duplicates never double-apply (budget and
// task-ledger conservation fall out of the byte equality, since budgets and
// handles ride ProjectQuery), and drops never wedge the stream (fresh
// traffic exposes the gap, which resyncs).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "common/socket.h"
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

// ------------------------------------------------------------ fault proxy

/// What to do with one complete primary→follower frame.
enum class Fault {
  kPass,      ///< forward verbatim
  kDrop,      ///< swallow the frame
  kDuplicate, ///< forward it twice
  kTruncate,  ///< forward half the frame's bytes, then sever
  kSever,     ///< sever at this frame boundary (frame not sent)
};

/// Byte-level TCP proxy. The follower connects here; each accepted
/// connection gets its own upstream connection to the real primary.
/// follower→primary bytes pass through verbatim (subscribes and acks are
/// never faulted — the faults under test are stream faults). Each COMPLETE
/// primary→follower frame is parsed off the byte stream and run through the
/// schedule; severing closes both sides so the follower's reconnect path
/// runs for real.
class FaultProxy {
 public:
  /// schedule(conn_index, frame_in_conn, global_frame, kind) — conn_index
  /// counts accepted connections from 0; frame counters count only frames
  /// of FrameKind kReplBatch (everything else always passes).
  using Schedule =
      std::function<Fault(uint64_t conn, uint64_t frame, uint64_t global)>;

  FaultProxy(uint16_t upstream_port, Schedule schedule)
      : upstream_port_(upstream_port), schedule_(std::move(schedule)) {}
  ~FaultProxy() { Stop(); }

  Status Start() {
    auto listener = Socket::Listen("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(listener).value();
    auto port = listener_.LocalPort();
    if (!port.ok()) return port.status();
    port_ = port.value();
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  void Stop() {
    if (stop_.exchange(true)) return;
    ::shutdown(listener_.fd(), SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> pumps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pumps.swap(pumps_);
    }
    for (std::thread& t : pumps) {
      if (t.joinable()) t.join();
    }
  }

  uint16_t port() const { return port_; }
  uint64_t connections() const {
    return conn_count_.load(std::memory_order_acquire);
  }

 private:
  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      auto down = listener_.Accept();
      if (!down.ok()) return;  // listener shut down
      auto up = Socket::Connect("127.0.0.1", upstream_port_);
      if (!up.ok()) continue;  // primary gone; follower will retry
      uint64_t conn = conn_count_.fetch_add(1, std::memory_order_acq_rel);
      auto pair = std::make_shared<ConnPair>();
      pair->down = std::move(down).value();
      pair->up = std::move(up).value();
      {
        std::lock_guard<std::mutex> lock(mu_);
        live_fds_.push_back(pair->down.fd());
        live_fds_.push_back(pair->up.fd());
        pumps_.emplace_back([this, pair] { PumpUpstream(pair); });
        pumps_.emplace_back([this, pair, conn] { PumpDownstream(pair, conn); });
      }
    }
  }

  struct ConnPair {
    Socket down;  // follower side
    Socket up;    // primary side
    void Sever() {
      ::shutdown(down.fd(), SHUT_RDWR);
      ::shutdown(up.fd(), SHUT_RDWR);
    }
  };

  /// follower → primary, verbatim.
  void PumpUpstream(std::shared_ptr<ConnPair> pair) {
    char buf[4096];
    while (!stop_.load(std::memory_order_acquire)) {
      auto n = pair->down.ReadSome(buf, sizeof buf);
      if (!n.ok() || n.value() == 0) break;
      if (!pair->up.WriteAll(buf, n.value()).ok()) break;
    }
    pair->Sever();
  }

  /// primary → follower, frame-parsed and faulted.
  void PumpDownstream(std::shared_ptr<ConnPair> pair, uint64_t conn) {
    std::string buf;
    char chunk[4096];
    uint64_t frame_in_conn = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      auto n = pair->up.ReadSome(chunk, sizeof chunk);
      if (!n.ok() || n.value() == 0) break;
      buf.append(chunk, n.value());
      bool severed = false;
      while (buf.size() >= net::kHeaderSize) {
        uint32_t payload_size;
        std::memcpy(&payload_size, buf.data() + 20, sizeof payload_size);
        size_t total = net::kHeaderSize + payload_size;
        if (buf.size() < total) break;
        uint8_t kind = static_cast<uint8_t>(buf[8]);
        std::string frame = buf.substr(0, total);
        buf.erase(0, total);
        Fault fault = Fault::kPass;
        if (kind == static_cast<uint8_t>(net::FrameKind::kReplBatch)) {
          uint64_t global =
              global_frames_.fetch_add(1, std::memory_order_acq_rel);
          fault = schedule_(conn, frame_in_conn++, global);
        }
        switch (fault) {
          case Fault::kPass:
            if (!pair->down.WriteAll(frame.data(), frame.size()).ok()) {
              severed = true;
            }
            break;
          case Fault::kDrop:
            break;
          case Fault::kDuplicate:
            if (!pair->down.WriteAll(frame.data(), frame.size()).ok() ||
                !pair->down.WriteAll(frame.data(), frame.size()).ok()) {
              severed = true;
            }
            break;
          case Fault::kTruncate:
            (void)pair->down.WriteAll(frame.data(), frame.size() / 2);
            severed = true;
            break;
          case Fault::kSever:
            severed = true;
            break;
        }
        if (severed) break;
      }
      if (severed) break;
    }
    pair->Sever();
  }

  const uint16_t upstream_port_;
  const Schedule schedule_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> conn_count_{0};
  std::atomic<uint64_t> global_frames_{0};
  std::mutex mu_;
  std::vector<int> live_fds_;
  std::vector<std::thread> pumps_;
};

/// Pass-through proxy whose upstream port is re-read on every accepted
/// connection (0 = refuse: close the follower's connection immediately).
/// Gives the follower one stable address across primary restarts.
class RedialProxy {
 public:
  explicit RedialProxy(std::atomic<uint16_t>* upstream)
      : upstream_(upstream) {}
  ~RedialProxy() { Stop(); }

  Status Start() {
    auto listener = Socket::Listen("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(listener).value();
    auto port = listener_.LocalPort();
    if (!port.ok()) return port.status();
    port_ = port.value();
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  void Stop() {
    if (stop_.exchange(true)) return;
    ::shutdown(listener_.fd(), SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> pumps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pumps.swap(pumps_);
    }
    for (std::thread& t : pumps) {
      if (t.joinable()) t.join();
    }
  }

  uint16_t port() const { return port_; }

 private:
  struct ConnPair {
    Socket down, up;
    void Sever() {
      ::shutdown(down.fd(), SHUT_RDWR);
      ::shutdown(up.fd(), SHUT_RDWR);
    }
  };

  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      auto down = listener_.Accept();
      if (!down.ok()) return;
      uint16_t port = upstream_->load(std::memory_order_acquire);
      if (port == 0) continue;  // outage: drop the follower's connection
      auto up = Socket::Connect("127.0.0.1", port);
      if (!up.ok()) continue;
      auto pair = std::make_shared<ConnPair>();
      pair->down = std::move(down).value();
      pair->up = std::move(up).value();
      std::lock_guard<std::mutex> lock(mu_);
      live_fds_.push_back(pair->down.fd());
      live_fds_.push_back(pair->up.fd());
      pumps_.emplace_back([pair] { Pump(&pair->down, &pair->up, *pair); });
      pumps_.emplace_back([pair] { Pump(&pair->up, &pair->down, *pair); });
    }
  }

  static void Pump(Socket* from, Socket* to, ConnPair& pair) {
    char buf[4096];
    while (true) {
      auto n = from->ReadSome(buf, sizeof buf);
      if (!n.ok() || n.value() == 0) break;
      if (!to->WriteAll(buf, n.value()).ok()) break;
    }
    pair.Sever();
  }

  std::atomic<uint16_t>* upstream_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<int> live_fds_;
  std::vector<std::thread> pumps_;
};

// ----------------------------------------------------------- test harness

class ReplFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("itag_replfault_" +
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

struct PrimaryHarness {
  explicit PrimaryHarness(const std::string& dir)
      : service(WritableOpts(dir)) {
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

struct FollowerHarness {
  FollowerHarness(const std::string& dir, uint16_t connect_port)
      : service(ReplicaOpts(dir)) {
    EXPECT_TRUE(service.Init().ok());
    service.SetReplicaMode("127.0.0.1:" + std::to_string(connect_port));
    repl::FollowerOptions fopts;
    fopts.primary_port = connect_port;
    fopts.reconnect_backoff_ms = 5;
    follower = std::make_unique<repl::Follower>(service.sharded(), fopts);
    EXPECT_TRUE(follower->Start().ok());
  }
  ~FollowerHarness() { follower->Stop(); }

  api::Service service;
  std::unique_ptr<repl::Follower> follower;
};

/// Converges under faults. A dropped frame with no successor is invisible
/// to the follower (there is no gap to detect until the NEXT record
/// arrives), so convergence under a lossy stream requires fresh traffic:
/// when the follower stalls, issue a flush write (RegisterProvider stamps
/// every shard WAL; CreateProject stamps the placement WAL) and re-check
/// against the new head. Returns true once applied == head exactly.
/// One write touching every WAL: RegisterProvider stamps each shard WAL
/// (broadcast), CreateProject stamps the placement WAL.
void FlushWrite(api::Service& primary, int n) {
  api::AnyResponse reg = primary.Dispatch(api::AnyRequest{
      api::RegisterProviderRequest{"flush-" + std::to_string(n)}});
  api::CreateProjectRequest create;
  create.provider = std::get<api::RegisterProviderResponse>(reg).provider;
  create.spec.name = "flush-project-" + std::to_string(n);
  create.spec.budget = 1;
  primary.Dispatch(api::AnyRequest{create});
}

[[nodiscard]] bool ConvergeWithFlushes(api::Service& primary,
                                       const repl::Follower& follower,
                                       int timeout_ms = 60000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  int flush = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto settle = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < settle) {
      if (follower.applied_lsns() == primary.sharded()->ReplLsns()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FlushWrite(primary, flush++);
  }
  return false;
}

void ExpectByteEqualState(api::Service& primary, api::Service& follower) {
  for (uint64_t id = 0; id < 12; ++id) {
    api::ProjectQueryRequest probe;
    probe.project = id;
    probe.include_feed = true;
    for (uint32_t r = 0; r < 6; ++r) probe.detail_resources.push_back(r);
    SCOPED_TRACE("project " + std::to_string(id));
    EXPECT_EQ(Bytes(api::AnyResponse{primary.ProjectQuery(probe)}),
              Bytes(api::AnyResponse{follower.ProjectQuery(probe)}));
  }
}

TEST_F(ReplFaultTest, DropDuplicateTruncateStillConvergesByteEqual) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t dups_before = reg.GetCounter("repl.duplicate_skips")->value();
  const uint64_t gaps_before = reg.GetCounter("repl.gap_resyncs")->value();

  PrimaryHarness primary(Dir("primary"));
  // Deterministic mixed schedule over the global ReplBatch counter: every
  // 7th frame dropped, every 5th duplicated, every 11th truncated
  // mid-payload (which severs). Priorities disambiguate overlaps.
  FaultProxy proxy(primary.server->port(),
                   [](uint64_t, uint64_t, uint64_t global) {
                     if (global % 11 == 10) return Fault::kTruncate;
                     if (global % 7 == 3) return Fault::kDrop;
                     if (global % 5 == 2) return Fault::kDuplicate;
                     return Fault::kPass;
                   });
  ASSERT_TRUE(proxy.Start().ok());
  FollowerHarness follower(Dir("follower"), proxy.port());

  for (const api::AnyRequest& req :
       nettest::FullCoverageScript(kShards)) {
    primary.service.Dispatch(req);
  }
  ASSERT_TRUE(ConvergeWithFlushes(primary.service, *follower.follower))
      << "follower never converged through the faulty proxy";

  // Byte equality implies conservation: budgets, task handles, pending
  // queues all ride ProjectQuery — a double-applied or lost record would
  // diverge some project's bytes.
  ExpectByteEqualState(primary.service, follower.service);

  // The faults actually happened and were survived, not avoided.
  EXPECT_GT(reg.GetCounter("repl.duplicate_skips")->value(), dups_before);
  EXPECT_GT(reg.GetCounter("repl.gap_resyncs")->value(), gaps_before);
  EXPECT_GT(follower.follower->reconnects(), 0u);

  follower.follower->Stop();
  proxy.Stop();
}

TEST_F(ReplFaultTest, SeverAtEveryFrameBoundaryStillConvergesByteEqual) {
  PrimaryHarness primary(Dir("primary"));
  // Connection c is severed at frame boundary c: the first connection dies
  // before any batch arrives, the second after one, ... — every prefix
  // length through 12 is exercised; later connections pass clean so the
  // run terminates.
  FaultProxy proxy(primary.server->port(),
                   [](uint64_t conn, uint64_t frame, uint64_t) {
                     if (conn <= 12 && frame >= conn) return Fault::kSever;
                     return Fault::kPass;
                   });
  ASSERT_TRUE(proxy.Start().ok());
  FollowerHarness follower(Dir("follower"), proxy.port());

  for (const api::AnyRequest& req :
       nettest::FullCoverageScript(kShards)) {
    primary.service.Dispatch(req);
  }
  // A connection whose remaining tail is shorter than its sever threshold
  // completes without severing — so keep traffic flowing until the proxy
  // has actually cycled through all 13 boundary connections.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  int flush = 1000;  // distinct names from ConvergeWithFlushes's
  while (proxy.connections() <= 12 &&
         std::chrono::steady_clock::now() < deadline) {
    FlushWrite(primary.service, flush++);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GT(proxy.connections(), 12u) << "sever schedule never ran out";
  ASSERT_TRUE(ConvergeWithFlushes(primary.service, *follower.follower))
      << "follower never converged through boundary severs";

  ExpectByteEqualState(primary.service, follower.service);
  // Every sever forced a real reconnect cycle through the proxy.
  EXPECT_GT(follower.follower->reconnects(), 10u);

  follower.follower->Stop();
  proxy.Stop();
}

TEST_F(ReplFaultTest, FollowerRetriesWhilePrimaryIsDown) {
  // The other half of reconnect resilience: the primary is simply GONE for
  // a while (connection refused, not a mid-stream fault). The follower
  // must keep retrying without crashing or corrupting its cursor, and
  // converge once a primary is reachable again.
  auto primary = std::make_unique<PrimaryHarness>(Dir("primary"));
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(kShards);
  size_t cut = script.size() / 2;
  for (size_t i = 0; i < cut; ++i) primary->service.Dispatch(script[i]);

  // The proxy is the follower's stable address across the primary restart
  // (the reborn primary gets a fresh ephemeral port; the proxy re-dials
  // the current one on each new follower connection).
  std::atomic<uint16_t> upstream{primary->server->port()};
  auto proxy = std::make_unique<RedialProxy>(&upstream);
  ASSERT_TRUE(proxy->Start().ok());
  FollowerHarness follower(Dir("follower"), proxy->port());
  ASSERT_TRUE(ConvergeWithFlushes(primary->service, *follower.follower));

  // Primary dies; the follower's retry loop spins against refusals.
  primary.reset();
  upstream.store(0, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  uint64_t retries_during_outage = follower.follower->reconnects();
  EXPECT_GT(retries_during_outage, 0u);

  // Primary reborn on the same directory, with more history.
  primary = std::make_unique<PrimaryHarness>(Dir("primary"));
  for (size_t i = cut; i < script.size(); ++i) {
    primary->service.Dispatch(script[i]);
  }
  upstream.store(primary->server->port(), std::memory_order_release);
  ASSERT_TRUE(ConvergeWithFlushes(primary->service, *follower.follower));
  ExpectByteEqualState(primary->service, follower.service);

  follower.follower->Stop();
  proxy->Stop();
}

}  // namespace
}  // namespace itag
