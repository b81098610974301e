#ifndef ITAG_STORAGE_DATABASE_H_
#define ITAG_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace itag::storage {

namespace pager {
class PagedEngine;
}  // namespace pager

/// Durability configuration for a Database.
struct DatabaseOptions {
  /// Directory holding the database files: `snapshot.db`, `wal.log` and,
  /// in paged mode, `pages.db`. Empty means fully in-memory (no
  /// durability) — the mode tests and benchmarks default to.
  std::string directory;

  /// Paged mode: rows live in a fixed-size-page file (storage/pager) instead
  /// of the monolithic snapshot. Checkpoint() flushes dirty pages and a
  /// catalog root rather than serializing every table, and Open() reads only
  /// the page-file meta + catalog — cold start is O(catalog), not O(rows),
  /// and tables may exceed RAM. Ignored when `directory` is empty.
  bool paged = false;

  /// Page-cache budget in MiB (paged mode).
  size_t page_cache_mb = 64;

  /// Page size in bytes when creating the page file; an existing file's
  /// recorded size wins.
  size_t page_size = 4096;

  /// Keep the WAL across checkpoints instead of truncating it. Replication
  /// primaries need this: a follower resumes by asking for "everything after
  /// LSN N", which only works while the log still holds those frames.
  /// Recovery stays exact either way — the snapshot (v2) and the paged
  /// engine both record their checkpoint LSN, and replay skips frames the
  /// checkpoint already contains. Costs unbounded log growth; see
  /// docs/replication.md.
  bool retain_wal = false;
};

/// What the last Open() had to do to reach the recovered state; tests use
/// this to assert that a clean paged restart does not replay the full WAL.
struct RecoveryStats {
  uint64_t wal_records_scanned = 0;   ///< frames read from the WAL file
  uint64_t wal_records_replayed = 0;  ///< frames actually applied
  uint64_t wal_bytes_scanned = 0;     ///< payload bytes across scanned frames
};

/// The embedded relational engine standing in for the MySQL instance in the
/// paper's architecture (Fig. 2). It is a catalog of named Tables with
/// logical write-ahead logging and snapshot checkpointing:
///
///   * every mutation (create/drop/insert/update/delete) is appended to the
///     WAL before being applied to the in-memory tables;
///   * Checkpoint() serializes all tables to the snapshot file and truncates
///     the WAL;
///   * Open() loads the snapshot (if any) and replays the WAL tail, so a
///     process crash between checkpoints loses nothing that was appended.
///
/// Single-writer by design: the simulator and the iTag managers drive it from
/// one event loop, matching the demo system's single MySQL connection.
class Database {
 public:
  Database();
  ~Database();

  /// Opens (and recovers) a database per `options`.
  Status Open(const DatabaseOptions& options);

  /// Creates a table; fails with AlreadyExists on name collision.
  Status CreateTable(const std::string& name, const Schema& schema);

  /// Creates the table unless one of that name exists, which keeps its
  /// schema: the open-time call of every manager, on a fresh or a
  /// recovered database alike.
  Status EnsureTable(const std::string& name, const Schema& schema);

  /// Drops a table and its rows.
  Status DropTable(const std::string& name);

  /// Returns the table or nullptr. The pointer stays valid until the table
  /// is dropped.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  /// Declares a unique index (not WAL-logged: index definitions are part of
  /// the caller's schema-registration code path, re-run on every open).
  Status AddUniqueIndex(const std::string& table, const std::string& column);

  /// Logged mutations. These are the only write paths the managers use.
  Result<RowId> Insert(const std::string& table, const Row& row);
  Status Update(const std::string& table, RowId id, const Row& row);
  Status Delete(const std::string& table, RowId id);

  /// Writes `row` as the row of its unique-key value: updates the row that
  /// holds the key in place, or inserts a new row when none does, and
  /// returns the row id. Logged exactly like that Update or Insert.
  /// FailedPrecondition when the table has no unique index.
  Result<RowId> Upsert(const std::string& table, const Row& row);

  /// Opens an atomic WAL batch: until the matching CommitBatch, logged
  /// mutations are applied to the in-memory tables immediately but buffered
  /// into ONE framed WAL record, so recovery replays the whole group or
  /// none of it. Re-entrant (nested Begin/Commit pairs fold into the
  /// outermost batch); pair every Begin with a Commit — prefer BatchScope.
  ///
  /// The group keeps one sub-record per row: an Update of a row the batch
  /// already inserted or updated replaces that sub-record's image, so an
  /// insert followed by updates logs one insert of the final row. Three
  /// cases are logged as themselves (docs/persistence.md says why):
  ///   * a Delete, which also ends folding for its row;
  ///   * an Update that changes the table's unique-key value;
  ///   * DDL, which ends folding for the whole batch.
  void BeginBatch();

  /// Closes the innermost batch; at depth zero, encodes the buffered
  /// sub-records and appends them as one kBatchV2 record (no-op when nothing
  /// was logged or not durable).
  Status CommitBatch();

  /// Current batch nesting depth (0 = not batching).
  size_t batch_depth() const { return batch_depth_; }

  /// First WAL-append failure, if any. Once an append fails the database
  /// is sticky-poisoned: every further logged mutation and Checkpoint()
  /// returns this status instead of silently diverging the durable state
  /// from memory (a write acknowledged after a lost append would otherwise
  /// vanish on recovery with no error ever surfaced — the RocksDB
  /// "background error" convention).
  const Status& wal_error() const { return wal_error_; }

  /// Writes the snapshot and truncates the WAL. Fails with
  /// FailedPrecondition while a batch is open (the snapshot would split an
  /// atomic group).
  Status Checkpoint();

  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Total rows across all tables (monitoring).
  size_t TotalRows() const;

  bool durable() const { return durable_; }

  /// True when this database runs on the paged engine.
  bool paged() const { return engine_ != nullptr; }

  /// What the last Open() replayed (see RecoveryStats).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// The paged engine underneath, or nullptr in snapshot/in-memory mode
  /// (benchmarks and tests inspect page/cache counters through it).
  pager::PagedEngine* engine() { return engine_.get(); }

  // ------------------------------------------------------------ replication
  /// LSN of the last record appended (or replicated in); 0 when empty.
  /// With `retain_wal` this is the resume cursor a follower subscribes from.
  uint64_t last_lsn() const { return next_lsn_ - 1; }

  /// Highest LSN contained in the last durable checkpoint (snapshot v2 or
  /// paged meta); 0 when never checkpointed or pre-v2.
  uint64_t checkpoint_lsn() const;

  /// Absolute path of the WAL file ("" when in-memory) — what a replication
  /// primary hands to its storage::WalTailer.
  std::string wal_path() const;

  /// Applies one record shipped from a primary. The record keeps its
  /// original LSN: a duplicate (lsn <= last_lsn()) is skipped silently (OK)
  /// so re-delivery after a reconnect can never double-apply, a gap
  /// (lsn > last_lsn() + 1) fails with OutOfRange so the follower knows to
  /// resubscribe from its cursor, and the in-order record is appended to
  /// this database's own WAL verbatim and applied to the tables. AlreadyExists
  /// from replay (a deterministic local init raced the stream's copy of the
  /// same DDL) is tolerated, matching Recover().
  Status ApplyReplicated(const WalRecord& rec);

 private:
  /// One sub-record of the open batch. `key` is the unique-key value of its
  /// image (NULL when the table has no unique index); a later Update folds
  /// into the sub-record only while that value is unchanged.
  struct BatchEntry {
    WalRecord rec;
    Value key;
  };

  /// A row of one table; keys the open batch's foldable sub-records.
  struct RowKey {
    const Table* table;
    RowId id;
    bool operator==(const RowKey& o) const {
      return table == o.table && id == o.id;
    }
  };
  struct RowKeyHash {
    size_t operator()(const RowKey& k) const {
      return std::hash<const Table*>()(k.table) ^
             (std::hash<RowId>()(k.id) * 0x9E3779B97F4A7C15ull);
    }
  };

  Status LogOp(WalOp op, const std::string& table, RowId row_id,
               std::string payload);
  /// Logs an insert or update of row `id` of `t`. Inside a batch, an update
  /// folds into the row's sub-record when the unique key allows it.
  Status LogRow(WalOp op, const Table& t, RowId id, const Row& row);
  Status Recover();
  Status RecoverPaged();
  /// Replays the WAL frames past checkpoint `ckpt_lsn` and sets next_lsn_;
  /// the tail of both Recover paths.
  Status ReplayWal(uint64_t ckpt_lsn);
  Status LoadSnapshot(const std::string& path);
  Status WriteSnapshot(uint64_t ckpt_lsn);
  Status ApplyWalRecord(const WalRecord& rec);
  /// Creates a Table (and, in paged mode, its engine-side tree+catalog
  /// entry); shared by CreateTable and WAL replay.
  Status MakeTable(const std::string& name, const Schema& schema);

  DatabaseOptions options_;
  bool durable_ = false;
  WalWriter wal_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::unique_ptr<pager::PagedEngine> engine_;  ///< set iff paged mode
  uint64_t next_lsn_ = 1;  ///< LSN the next appended WAL frame gets
  uint64_t snapshot_lsn_ = 0;  ///< checkpoint LSN of the loaded/written snapshot
  RecoveryStats recovery_stats_;
  size_t batch_depth_ = 0;
  std::vector<BatchEntry> batch_;  ///< sub-records of the open batch
  /// Row -> index in batch_ of the sub-record a later update may fold into.
  std::unordered_map<RowKey, size_t, RowKeyHash> batch_rows_;
  size_t batch_coalesced_ = 0;  ///< row images folded in the open batch
  Status wal_error_ = Status::OK();  ///< sticky first append failure
};

/// RAII guard for an atomic WAL batch. The destructor commits if Commit()
/// was not called explicitly; a failure there is not lost — it poisons the
/// database (see Database::wal_error), so the next logged mutation or
/// checkpoint surfaces it. Call Commit() where an immediate Status matters.
class BatchScope {
 public:
  explicit BatchScope(Database* db) : db_(db) { db_->BeginBatch(); }
  ~BatchScope() {
    if (!committed_) (void)db_->CommitBatch();
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  Status Commit() {
    committed_ = true;
    return db_->CommitBatch();
  }

 private:
  Database* db_;
  bool committed_ = false;
};

}  // namespace itag::storage

#endif  // ITAG_STORAGE_DATABASE_H_
