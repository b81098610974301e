#ifndef ITAG_REPL_REPL_H_
#define ITAG_REPL_REPL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "itag/sharded_system.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace itag::repl {

// WAL-shipping replication (docs/replication.md). The primary tails its
// committed WAL files and streams each record as a kReplBatch frame; a
// follower applies them into its own ShardedSystem (WAL-first, original
// LSNs), re-derives in-memory state per touched shard, and serves reads.
// LSNs make the stream idempotent: duplicates are skipped, gaps trigger a
// resubscribe, so any cut/replayed prefix of the stream converges.

// --------------------------------------------------------------- primary

/// The send side: owns one streamer thread per subscribed follower, each
/// tailing every WAL of `system` (shards + placement) from the follower's
/// resume cursors. Installed into a net::Server via Hooks(); the server
/// routes kReplSubscribe/kReplAck frames here and reports connection
/// closes so dead subscribers are reaped.
///
/// The wrapped system must be durable and opened with
/// `shard.db.retain_wal = true` — checkpoints on a truncating primary
/// would cut history out from under the tailers (subscribers then get a
/// typed error and must resync from a fresh copy).
class Primary {
 public:
  explicit Primary(core::ShardedSystem* system);
  ~Primary();

  Primary(const Primary&) = delete;
  Primary& operator=(const Primary&) = delete;

  /// The hook pair to install on the serving net::Server before Start().
  net::ReplHooks Hooks();

  /// Stops and joins every streamer thread. Idempotent; the destructor
  /// calls it.
  void Stop();

  /// Live subscriber count (streamers not yet reaped are excluded).
  size_t subscriber_count() const;

 private:
  struct Subscriber {
    uint64_t conn_id = 0;
    net::ReplHooks::Sender sender;
    std::vector<uint64_t> from_lsns;
    std::thread thread;
    std::atomic<bool> stop{false};
    std::atomic<bool> done{false};
    /// Last ReplAck cursors (advisory; mu-guarded).
    std::vector<uint64_t> acked_lsns;
  };

  void OnFrame(uint64_t conn_id, net::Frame frame,
               net::ReplHooks::Sender sender);
  void OnClose(uint64_t conn_id);
  /// The per-subscriber streamer body: tail every WAL, ship records with
  /// lsn > the subscriber's cursor, round-robin across DBs.
  void StreamTo(const std::shared_ptr<Subscriber>& sub);
  /// Joins and erases subscribers whose streamer has exited. mu_ held.
  void ReapLocked();

  core::ShardedSystem* system_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Subscriber>> subs_;
  bool stopping_ = false;

  obs::Gauge* subscribers_;      ///< repl.subscribers
  obs::Counter* batches_sent_;   ///< repl.batches_sent
  obs::Counter* bytes_sent_;     ///< repl.bytes_sent (payload bytes)
  obs::Counter* handshake_rejects_;  ///< repl.handshake_rejects
};

// -------------------------------------------------------------- follower

struct FollowerOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Delay before a reconnect attempt after a failed connect, a severed
  /// stream, or a gap-triggered resubscribe.
  int reconnect_backoff_ms = 50;
};

/// The receive side: one thread that connects to the primary, subscribes
/// from its own durable LSNs, applies shipped records into `system`
/// (which must have been Init()ed with `read_only = true` on a durable
/// directory), re-derives the in-memory state of every shard a burst
/// touched, and only then publishes the new applied LSNs — so a reader
/// that observes an LSN also observes the state it implies.
///
/// Resilient by construction: reconnects with backoff on any stream
/// failure, resubscribes from its own cursor after a gap, dedupes
/// duplicates by LSN (storage::Database::ApplyReplicated), and never
/// double-applies a record across restarts (the cursor is the follower's
/// own WAL, recovered like any other database).
class Follower {
 public:
  Follower(core::ShardedSystem* system, FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Spawns the streaming thread. FailedPrecondition when already started.
  Status Start();

  /// Severs the stream and joins the thread. Idempotent; call before
  /// ShardedSystem::Promote().
  void Stop();

  /// The published per-DB applied LSNs (stream-index order, placement
  /// last). Updated only after the matching Reattach, so state queried at
  /// these LSNs is already visible.
  std::vector<uint64_t> applied_lsns() const;

  /// Stream reconnect attempts so far (mirror of repl.stream_reconnects).
  uint64_t reconnects() const {
    return reconnects_count_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  /// One connect → subscribe → apply-until-severed cycle. Returns when the
  /// stream breaks (connect failure, EOF, gap, decode error).
  void RunOnce();
  /// Applies the burst-local dirty set (Reattach touched shards, reload
  /// placement) under a repl.apply span, then publishes cursors + lag
  /// gauges. A Reattach error ends the stream cycle.
  Status PublishBurst(size_t records, std::vector<bool>* dirty,
                      bool* placement_dirty,
                      const std::vector<uint64_t>& lsns,
                      const std::vector<uint64_t>& head_lsns,
                      const std::vector<uint64_t>& head_bytes,
                      const std::vector<uint64_t>& applied_bytes);

  core::ShardedSystem* system_;
  FollowerOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  /// Poked by Stop() to interrupt a blocking read (shutdown on the fd).
  std::mutex sock_mu_;
  int live_fd_ = -1;

  mutable std::mutex lsns_mu_;
  std::vector<uint64_t> published_lsns_;

  std::atomic<uint64_t> reconnects_count_{0};

  obs::Counter* reconnects_;      ///< repl.stream_reconnects
  obs::Counter* batches_applied_; ///< repl.batches_applied
  obs::Counter* dup_skips_;       ///< repl.duplicate_skips
  obs::Counter* gap_resyncs_;     ///< repl.gap_resyncs
  obs::Gauge* lag_batches_;       ///< repl.lag_batches
  obs::Gauge* lag_bytes_;         ///< repl.lag_bytes
  std::vector<obs::Gauge*> applied_gauges_;  ///< repl.db.<i>.applied_lsn
};

}  // namespace itag::repl

#endif  // ITAG_REPL_REPL_H_
