#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "repl/repl.h"

namespace itag::repl {

namespace {

/// A ReplAck is sent after every burst that applied at least one record,
/// and at most once per this many applied records within a burst.
constexpr size_t kAckEveryRecords = 512;

/// Interruptible backoff: sleeps `ms` total in small slices so Stop() is
/// honored within ~5ms instead of a full backoff window.
void SleepUnless(const std::atomic<bool>& stop, int ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stop.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}
}  // namespace

Follower::Follower(core::ShardedSystem* system, FollowerOptions options)
    : system_(system), options_(std::move(options)) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reconnects_ = reg.GetCounter("repl.stream_reconnects");
  batches_applied_ = reg.GetCounter("repl.batches_applied");
  dup_skips_ = reg.GetCounter("repl.duplicate_skips");
  gap_resyncs_ = reg.GetCounter("repl.gap_resyncs");
  lag_batches_ = reg.GetGauge("repl.lag_batches");
  lag_bytes_ = reg.GetGauge("repl.lag_bytes");
  applied_gauges_.reserve(system_->NumReplDbs());
  for (size_t i = 0; i < system_->NumReplDbs(); ++i) {
    applied_gauges_.push_back(
        reg.GetGauge("repl.db." + std::to_string(i) + ".applied_lsn"));
  }
}

Follower::~Follower() { Stop(); }

Status Follower::Start() {
  if (started_) return Status::FailedPrecondition("follower already started");
  if (!system_->read_only()) {
    return Status::FailedPrecondition(
        "follower system must be Init()ed with read_only = true");
  }
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    // Kick the thread out of a blocking read; the fd stays owned by the
    // Socket in RunOnce, we only shut it down.
    std::lock_guard<std::mutex> lock(sock_mu_);
    if (live_fd_ >= 0) ::shutdown(live_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

std::vector<uint64_t> Follower::applied_lsns() const {
  std::lock_guard<std::mutex> lock(lsns_mu_);
  return published_lsns_;
}

void Follower::Run() {
  bool first = true;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!first) {
      reconnects_->Inc();
      reconnects_count_.fetch_add(1, std::memory_order_relaxed);
      SleepUnless(stop_, options_.reconnect_backoff_ms);
      if (stop_.load(std::memory_order_acquire)) break;
    }
    first = false;
    RunOnce();
  }
}

void Follower::RunOnce() {
  Result<Socket> sock =
      Socket::Connect(options_.primary_host, options_.primary_port);
  if (!sock.ok()) return;
  {
    std::lock_guard<std::mutex> lock(sock_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    live_fd_ = sock->fd();
  }
  (void)sock->SetNoDelay(true);

  const size_t num_dbs = system_->NumReplDbs();
  const size_t num_shards = system_->num_shards();

  // Subscribe from our own durable cursor — after a restart this is
  // whatever our recovered WALs prove we applied, so the primary resends
  // exactly the unseen suffix (anything duplicated is skipped by LSN).
  net::ReplSubscribe sub;
  sub.num_dbs = static_cast<uint32_t>(num_dbs);
  sub.num_shards = static_cast<uint32_t>(num_shards);
  sub.seed = system_->options().shard.seed;
  sub.from_lsns = system_->ReplLsns();
  std::vector<uint64_t> lsns = sub.from_lsns;
  {
    std::lock_guard<std::mutex> lock(lsns_mu_);
    published_lsns_ = lsns;
  }
  for (size_t i = 0; i < num_dbs; ++i) {
    applied_gauges_[i]->Set(static_cast<int64_t>(lsns[i]));
  }
  std::string hello = net::EncodeReplSubscribeFrame(1, sub);
  if (!sock->WriteAll(hello.data(), hello.size()).ok()) {
    std::lock_guard<std::mutex> lock(sock_mu_);
    live_fd_ = -1;
    return;
  }

  // Byte cursor per DB for lag_bytes: the stream is byte-identical to the
  // primary's log, so our own WAL sizes are the exact resume offsets.
  std::vector<uint64_t> applied_bytes(num_dbs, 0);
  {
    std::vector<std::string> paths = system_->ReplWalPaths();
    for (size_t i = 0; i < num_dbs; ++i) {
      std::error_code ec;
      uint64_t size = std::filesystem::file_size(paths[i], ec);
      if (!ec) applied_bytes[i] = size;
    }
  }
  std::vector<uint64_t> head_lsns(num_dbs, 0);
  std::vector<uint64_t> head_bytes(num_dbs, 0);
  std::vector<bool> dirty(num_shards, false);
  bool placement_dirty = false;

  std::string inbuf;
  char buf[65536];
  uint64_t since_ack = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    Result<size_t> got = sock->ReadSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    inbuf.append(buf, *got);

    size_t parsed = 0;
    size_t burst_applied = 0;
    bool sever = false;
    for (;;) {
      net::Frame frame;
      size_t consumed = 0;
      Status s = net::TryDecodeFrame(std::string_view(inbuf).substr(parsed),
                                     &frame, &consumed);
      if (!s.ok()) {
        sever = true;
        break;
      }
      if (consumed == 0) break;
      parsed += consumed;
      if (frame.kind == net::FrameKind::kError) {
        // Typed refusal (handshake mismatch, truncated primary history):
        // nothing to do on this connection; retry with backoff.
        sever = true;
        break;
      }
      if (frame.kind != net::FrameKind::kReplBatch) continue;
      net::ReplBatch batch;
      if (!net::DecodeReplBatch(frame, &batch).ok() ||
          batch.db_index >= num_dbs) {
        sever = true;
        break;
      }
      storage::WalRecord rec;
      if (!storage::DecodeWalRecord(batch.record, &rec)) {
        sever = true;
        break;
      }
      head_lsns[batch.db_index] = batch.head_lsn;
      head_bytes[batch.db_index] = batch.head_bytes;
      Status applied = system_->ApplyReplicated(batch.db_index, rec);
      if (applied.IsOutOfRange()) {
        // A gap (dropped frame): the stream is no longer contiguous.
        // Resubscribe from our durable cursor rather than guess.
        gap_resyncs_->Inc();
        sever = true;
        break;
      }
      if (!applied.ok()) {
        sever = true;
        break;
      }
      if (rec.lsn > lsns[batch.db_index]) {
        lsns[batch.db_index] = rec.lsn;
        // 8 bytes of [len][crc] framing + the payload, mirroring Wal::Append.
        applied_bytes[batch.db_index] += 8 + batch.record.size();
        batches_applied_->Inc();
        ++burst_applied;
        ++since_ack;
        if (batch.db_index < num_shards) {
          dirty[batch.db_index] = true;
        } else {
          placement_dirty = true;
        }
        if (since_ack >= kAckEveryRecords) {
          std::string ack = net::EncodeReplAckFrame(0, net::ReplAck{lsns});
          (void)sock->WriteAll(ack.data(), ack.size());
          since_ack = 0;
        }
      } else {
        dup_skips_->Inc();
      }
    }
    inbuf.erase(0, parsed);

    // End of burst: re-derive the touched shards' in-memory state, THEN
    // publish the cursors — readers that see an LSN see its state.
    if (burst_applied > 0) {
      Status pub = PublishBurst(burst_applied, &dirty, &placement_dirty, lsns,
                                head_lsns, head_bytes, applied_bytes);
      if (!pub.ok()) break;
      if (since_ack > 0) {
        std::string ack = net::EncodeReplAckFrame(0, net::ReplAck{lsns});
        (void)sock->WriteAll(ack.data(), ack.size());
        since_ack = 0;
      }
    }
    if (sever) break;
  }
  std::lock_guard<std::mutex> lock(sock_mu_);
  live_fd_ = -1;
}

Status Follower::PublishBurst(size_t records, std::vector<bool>* dirty,
                              bool* placement_dirty,
                              const std::vector<uint64_t>& lsns,
                              const std::vector<uint64_t>& head_lsns,
                              const std::vector<uint64_t>& head_bytes,
                              const std::vector<uint64_t>& applied_bytes) {
  obs::Span span("repl.apply");
  span.Annotate("records", static_cast<uint64_t>(records));
  size_t reattached = 0;
  for (size_t i = 0; i < dirty->size(); ++i) {
    if (!(*dirty)[i]) continue;
    ITAG_RETURN_IF_ERROR(system_->ReattachShard(i));
    (*dirty)[i] = false;
    ++reattached;
  }
  if (*placement_dirty) {
    ITAG_RETURN_IF_ERROR(system_->ReloadPlacement());
    *placement_dirty = false;
  }
  span.Annotate("shards", static_cast<uint64_t>(reattached));

  {
    std::lock_guard<std::mutex> lock(lsns_mu_);
    published_lsns_ = lsns;
  }
  int64_t lag_b = 0;
  int64_t lag_y = 0;
  for (size_t i = 0; i < lsns.size(); ++i) {
    applied_gauges_[i]->Set(static_cast<int64_t>(lsns[i]));
    if (head_lsns[i] > lsns[i]) {
      lag_b += static_cast<int64_t>(head_lsns[i] - lsns[i]);
    }
    if (head_bytes[i] > applied_bytes[i]) {
      lag_y += static_cast<int64_t>(head_bytes[i] - applied_bytes[i]);
    }
  }
  lag_batches_->Set(lag_b);
  lag_bytes_->Set(lag_y);
  return Status::OK();
}

}  // namespace itag::repl
