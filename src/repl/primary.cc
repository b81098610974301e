#include <chrono>
#include <thread>
#include <utility>

#include "repl/repl.h"

namespace itag::repl {

namespace {

/// How often an idle streamer re-polls the WAL files for new frames.
constexpr int kPollIntervalMs = 2;

/// Records drained from one DB before the streamer rotates to the next, so
/// one hot shard cannot starve the placement DB of the same stream.
constexpr size_t kBurstRecords = 256;

}  // namespace

Primary::Primary(core::ShardedSystem* system) : system_(system) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  subscribers_ = reg.GetGauge("repl.subscribers");
  batches_sent_ = reg.GetCounter("repl.batches_sent");
  bytes_sent_ = reg.GetCounter("repl.bytes_sent");
  handshake_rejects_ = reg.GetCounter("repl.handshake_rejects");
}

Primary::~Primary() { Stop(); }

net::ReplHooks Primary::Hooks() {
  net::ReplHooks hooks;
  hooks.on_frame = [this](uint64_t conn_id, net::Frame frame,
                          net::ReplHooks::Sender sender) {
    OnFrame(conn_id, std::move(frame), std::move(sender));
  };
  hooks.on_close = [this](uint64_t conn_id) { OnClose(conn_id); };
  return hooks;
}

size_t Primary::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& sub : subs_) {
    if (!sub->done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void Primary::OnFrame(uint64_t conn_id, net::Frame frame,
                      net::ReplHooks::Sender sender) {
  switch (frame.kind) {
    case net::FrameKind::kReplSubscribe: {
      net::ReplSubscribe msg;
      Status s = net::DecodeReplSubscribe(frame, &msg);
      // The handshake must prove the follower replays the same universe:
      // same DB layout, same shard count, same deterministic seed. A
      // mismatch cannot be papered over — the follower's own init wrote
      // different LSN-1..k records — so it gets a typed error and no
      // stream.
      if (s.ok() && msg.num_dbs != system_->NumReplDbs()) {
        s = Status::FailedPrecondition(
            "subscriber speaks " + std::to_string(msg.num_dbs) +
            " DBs, primary has " + std::to_string(system_->NumReplDbs()));
      }
      if (s.ok() && msg.num_shards != system_->num_shards()) {
        s = Status::FailedPrecondition(
            "subscriber has " + std::to_string(msg.num_shards) +
            " shards, primary has " + std::to_string(system_->num_shards()));
      }
      if (s.ok() && msg.seed != system_->options().shard.seed) {
        s = Status::FailedPrecondition("subscriber seed mismatch");
      }
      if (s.ok() && msg.from_lsns.size() != system_->NumReplDbs()) {
        s = Status::InvalidArgument("from_lsns must cover every DB");
      }
      if (s.ok()) {
        for (const std::string& path : system_->ReplWalPaths()) {
          if (path.empty()) {
            s = Status::FailedPrecondition(
                "primary is not durable; nothing to ship");
            break;
          }
        }
      }
      if (!s.ok()) {
        handshake_rejects_->Inc();
        sender(net::EncodeErrorFrame(frame.correlation, s));
        return;
      }
      auto sub = std::make_shared<Subscriber>();
      sub->conn_id = conn_id;
      sub->sender = std::move(sender);
      sub->from_lsns = std::move(msg.from_lsns);
      sub->acked_lsns.assign(system_->NumReplDbs(), 0);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
        // A resubscribe on the same connection (post-gap) replaces the old
        // streamer; it notices its stop flag within one poll interval.
        for (const auto& old : subs_) {
          if (old->conn_id == conn_id) {
            old->stop.store(true, std::memory_order_release);
          }
        }
        ReapLocked();
        sub->thread = std::thread([this, sub] { StreamTo(sub); });
        subs_.push_back(sub);
        subscribers_->Set(static_cast<int64_t>(subs_.size()));
      }
      return;
    }
    case net::FrameKind::kReplAck: {
      net::ReplAck ack;
      if (!net::DecodeReplAck(frame, &ack).ok()) return;
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& sub : subs_) {
        if (sub->conn_id == conn_id &&
            ack.applied_lsns.size() == sub->acked_lsns.size()) {
          sub->acked_lsns = ack.applied_lsns;
        }
      }
      return;
    }
    default:
      // A primary never receives batches; anything else on a repl kind is
      // a peer bug worth a typed answer.
      sender(net::EncodeErrorFrame(
          frame.correlation,
          Status::InvalidArgument("unexpected replication frame kind")));
      return;
  }
}

void Primary::OnClose(uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sub : subs_) {
    if (sub->conn_id == conn_id) {
      sub->stop.store(true, std::memory_order_release);
    }
  }
  ReapLocked();
  subscribers_->Set(static_cast<int64_t>(subs_.size()));
}

void Primary::ReapLocked() {
  for (auto it = subs_.begin(); it != subs_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
}

void Primary::StreamTo(const std::shared_ptr<Subscriber>& sub) {
  // Local copies: the tailers and cursors are this streamer's alone, and
  // the sender closure is immutable after subscribe — no shared state with
  // the reactor beyond the stop/done flags.
  net::ReplHooks::Sender sender = sub->sender;
  std::vector<std::string> paths = system_->ReplWalPaths();
  std::vector<storage::WalTailer> tailers;
  tailers.reserve(paths.size());
  for (std::string& path : paths) tailers.emplace_back(std::move(path));
  std::vector<uint64_t> cursors = sub->from_lsns;

  while (!sub->stop.load(std::memory_order_acquire)) {
    bool sent_any = false;
    for (size_t db = 0; db < tailers.size(); ++db) {
      for (size_t n = 0; n < kBurstRecords; ++n) {
        storage::WalRecord rec;
        bool have = false;
        Status s = tailers[db].Next(&rec, &have);
        if (!s.ok()) {
          // History vanished under the tailer (truncation) or the log is
          // corrupt: this stream cannot continue honestly. Tell the
          // follower why and end the streamer; the follower must resync
          // from a fresh copy.
          sender(net::EncodeErrorFrame(0, s));
          sub->done.store(true, std::memory_order_release);
          return;
        }
        if (!have) break;
        if (rec.lsn != 0 && rec.lsn <= cursors[db]) continue;
        net::ReplBatch batch;
        batch.db_index = static_cast<uint32_t>(db);
        batch.head_lsn = tailers[db].head_lsn();
        batch.head_bytes = tailers[db].head_bytes();
        batch.record = storage::EncodeWalRecord(rec);
        bytes_sent_->Inc(batch.record.size());
        batches_sent_->Inc();
        sender(net::EncodeReplBatchFrame(0, batch));
        if (rec.lsn != 0) cursors[db] = rec.lsn;
        sent_any = true;
      }
    }
    if (!sent_any) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    }
  }
  sub->done.store(true, std::memory_order_release);
}

void Primary::Stop() {
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    subs.swap(subs_);
    subscribers_->Set(0);
  }
  for (const auto& sub : subs) {
    sub->stop.store(true, std::memory_order_release);
  }
  for (const auto& sub : subs) {
    if (sub->thread.joinable()) sub->thread.join();
  }
}

}  // namespace itag::repl
