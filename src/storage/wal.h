#ifndef ITAG_STORAGE_WAL_H_
#define ITAG_STORAGE_WAL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace itag::storage {

/// Logical redo-log record kinds. The engine logs operations, not pages:
/// replaying the sequence against an empty (or snapshotted) catalog
/// reconstructs the exact table contents.
enum class WalOp : uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kInsert = 3,
  kUpdate = 4,
  kDelete = 5,
  /// Atomic group: the payload is a sequence of u32-length-prefixed encoded
  /// sub-records (each itself an EncodeWalRecord payload, kBatch excluded).
  /// Because the whole group rides one framed record, recovery either
  /// replays all of it or none — a torn tail can never expose half of a
  /// logical mutation (e.g. a budget debit without its task rows).
  kBatch = 6,
};

/// One decoded WAL record.
struct WalRecord {
  WalOp op;
  /// Log sequence number the Database stamps on every appended frame
  /// (monotonic, one per frame — a kBatch group shares one). The paged
  /// engine's checkpoint records the highest LSN it contains, so recovery
  /// replays only frames with lsn > checkpoint_lsn. Sub-records inside a
  /// kBatch payload carry 0 (the frame's LSN covers the group).
  uint64_t lsn = 0;
  std::string table;    ///< table name
  uint64_t row_id = 0;  ///< for insert/update/delete
  std::string payload;  ///< encoded schema (create) or row (insert/update)
};

/// Append-only write-ahead log. Each record is framed as
/// [u32 payload_len][u32 crc32(payload)][payload]; recovery stops cleanly at
/// the first torn or corrupt frame (the RocksDB/LevelDB convention), so a
/// crash mid-write never poisons earlier records.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  /// Opens (creating or appending to) the log at `path`.
  Status Open(const std::string& path);

  /// Appends one record and flushes it to the OS.
  Status Append(const WalRecord& record);

  /// Closes the file (no-op if unopened).
  void Close();

  /// Truncates the log to zero length (after a checkpoint made it redundant).
  Status Reset();

  bool is_open() const { return out_.is_open(); }

 private:
  std::string path_;
  std::ofstream out_;
};

/// Reads every valid record from a WAL file. Returns OK with the records
/// decoded so far even when the tail is torn; returns Corruption only when a
/// frame is malformed in a way that indicates a bug rather than a crash
/// (checksum mismatch on a complete frame). The log ends at the first frame
/// that is not whole: a short header, a length running past the end of the
/// file (checked before the payload is allocated), or an all-zero header —
/// the zero-filled tail a filesystem can leave after a crash, which the
/// writer never produces since no record is empty. `end`, when given,
/// receives the byte offset where the last whole frame ends.
Status ReadWal(const std::string& path, std::vector<WalRecord>* records,
               uint64_t* end = nullptr);

/// Incremental reader over a live, append-only WAL file — the primary side
/// of replication tails each shard's log with one of these. Next() returns
/// complete frames one at a time and remembers the byte offset it has
/// consumed, so a frame whose tail has not hit the file yet (the writer is
/// mid-append) is simply "not there yet": Next() reports no record now and
/// re-reads from the same offset on the next call. The file is reopened on
/// every poll burst, which keeps the tailer correct across the writer's own
/// close/reopen cycles and costs nothing at the poll rates replication runs
/// at.
///
/// A file that *shrinks* below the consumed offset means the history was
/// truncated underneath us (a checkpoint without retain_wal) — that is not
/// recoverable by waiting, so Next() fails with FailedPrecondition and the
/// subscriber must resync from a fresh copy.
class WalTailer {
 public:
  explicit WalTailer(std::string path) : path_(std::move(path)) {}

  /// Reads the next complete record at the cursor. Returns OK with
  /// *have=true and the record in *out when one was available, OK with
  /// *have=false when the tail is (currently) exhausted, Corruption on a
  /// checksum/decode failure of a complete frame, FailedPrecondition when
  /// the file shrank below the cursor.
  Status Next(WalRecord* out, bool* have);

  /// Byte offset of the cursor (start of the next unread frame).
  uint64_t offset() const { return offset_; }

  /// Highest LSN this tailer has observed in the file — including frames
  /// already returned. Streams stamp this on outgoing batches so followers
  /// can compute lag without asking the primary's (locked) database.
  uint64_t head_lsn() const { return head_lsn_; }

  /// Total file bytes behind the last complete frame seen (for lag_bytes).
  uint64_t head_bytes() const { return head_bytes_; }

 private:
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t head_lsn_ = 0;
  uint64_t head_bytes_ = 0;
};

/// Serializes a record payload (everything after the frame header).
std::string EncodeWalRecord(const WalRecord& record);

/// Parses a record payload. Returns false on malformed input.
bool DecodeWalRecord(std::string_view payload, WalRecord* out);

}  // namespace itag::storage

#endif  // ITAG_STORAGE_WAL_H_
