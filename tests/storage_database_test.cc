#include "storage/database.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string_view>

#include "common/binio.h"
#include "common/crc32.h"
#include "obs/metrics.h"

namespace itag::storage {
namespace {

namespace fs = std::filesystem;

Schema KvSchema() {
  return SchemaBuilder().Int("k").Str("v").Build();
}

Row Kv(int64_t k, const std::string& v) {
  return {Value::Int(k), Value::Str(v)};
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One WAL frame laid out as the writer lays it: [u32 len][u32 crc][payload].
/// Tests use it to hand the reader CRC-valid frames with crafted payloads.
std::string Frame(const WalRecord& rec) {
  std::string payload = EncodeWalRecord(rec);
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  w.Raw(payload);
  return w.Take();
}

WalRecord CreateTableRecord(const std::string& table, std::string schema) {
  WalRecord rec;
  rec.op = WalOp::kCreateTable;
  rec.lsn = 1;
  rec.table = table;
  rec.payload = std::move(schema);
  return rec;
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("itag_db_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DatabaseOptions Opts() {
    DatabaseOptions o;
    o.directory = dir_;
    return o;
  }

  std::string dir_;
};

TEST_F(DatabaseTest, InMemoryModeWorksWithoutDirectory) {
  Database db;
  ASSERT_TRUE(db.Open(DatabaseOptions{}).ok());
  EXPECT_FALSE(db.durable());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  ASSERT_TRUE(db.Insert("t", Kv(1, "one")).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 1u);
}

TEST_F(DatabaseTest, CreateDropTable) {
  Database db;
  ASSERT_TRUE(db.Open(DatabaseOptions{}).ok());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  EXPECT_TRUE(db.CreateTable("t", KvSchema()).IsAlreadyExists());
  EXPECT_NE(db.GetTable("t"), nullptr);
  ASSERT_TRUE(db.DropTable("t").ok());
  EXPECT_EQ(db.GetTable("t"), nullptr);
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST_F(DatabaseTest, OpsOnMissingTableFail) {
  Database db;
  ASSERT_TRUE(db.Open(DatabaseOptions{}).ok());
  EXPECT_TRUE(db.Insert("nope", Kv(1, "x")).status().IsNotFound());
  EXPECT_TRUE(db.Update("nope", 1, Kv(1, "x")).IsNotFound());
  EXPECT_TRUE(db.Delete("nope", 1).IsNotFound());
  EXPECT_TRUE(db.AddUniqueIndex("nope", "k").IsNotFound());
}

TEST_F(DatabaseTest, WalReplayRecoversEverything) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "one")).ok());
    RowId two = db.Insert("t", Kv(2, "two")).value();
    ASSERT_TRUE(db.Insert("t", Kv(3, "three")).ok());
    ASSERT_TRUE(db.Update("t", two, Kv(2, "two-updated")).ok());
    ASSERT_TRUE(db.Delete("t", two).ok());
    // no checkpoint: everything lives only in the WAL
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  Table* t = db.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 2u);
  size_t found = 0;
  EXPECT_TRUE(t->Scan([&](RowId, const Row& row) {
    found += row[0] == Value::Int(1) || row[0] == Value::Int(3);
    return true;
  }).ok());
  EXPECT_EQ(found, 2u);
}

TEST_F(DatabaseTest, CheckpointThenRecover) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "v" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    // Post-checkpoint mutations land in the fresh WAL.
    ASSERT_TRUE(db.Insert("t", Kv(100, "after")).ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  Table* t = db.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 51u);
}

TEST_F(DatabaseTest, CheckpointTruncatesWal) {
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Insert("t", Kv(i, "x")).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(fs::file_size(fs::path(dir_) / "wal.log"), 0u);
}

TEST_F(DatabaseTest, RecoveredTablesAcceptIndexes) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "a")).ok());
    ASSERT_TRUE(db.Insert("t", Kv(2, "b")).ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_TRUE(db.AddUniqueIndex("t", "k").ok());
  EXPECT_TRUE(db.Insert("t", Kv(2, "dup")).status().IsAlreadyExists());
  EXPECT_EQ(db.GetTable("t")->FindUnique(Value::Int(1)),
            std::optional<RowId>(1));
}

TEST_F(DatabaseTest, RowIdsContinueAfterRecovery) {
  RowId last;
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    last = db.Insert("t", Kv(1, "a")).value();
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  RowId next = db.Insert("t", Kv(2, "b")).value();
  EXPECT_GT(next, last);
}

TEST_F(DatabaseTest, DropTableSurvivesRecovery) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("gone", KvSchema()).ok());
    ASSERT_TRUE(db.CreateTable("kept", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("gone", Kv(1, "x")).ok());
    ASSERT_TRUE(db.DropTable("gone").ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  EXPECT_EQ(db.GetTable("gone"), nullptr);
  EXPECT_NE(db.GetTable("kept"), nullptr);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"kept"}));
}

TEST_F(DatabaseTest, CorruptSnapshotIsDetected) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "a")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Flip a byte in the middle of the snapshot.
  std::string snap = dir_ + "/snapshot.db";
  {
    std::fstream f(snap, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.put('\x5a');
  }
  Database db;
  Status s = db.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DatabaseTest, TotalRowsAcrossTables) {
  Database db;
  ASSERT_TRUE(db.Open(DatabaseOptions{}).ok());
  ASSERT_TRUE(db.CreateTable("a", KvSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", KvSchema()).ok());
  ASSERT_TRUE(db.Insert("a", Kv(1, "x")).ok());
  ASSERT_TRUE(db.Insert("b", Kv(1, "y")).ok());
  ASSERT_TRUE(db.Insert("b", Kv(2, "z")).ok());
  EXPECT_EQ(db.TotalRows(), 3u);
}

TEST_F(DatabaseTest, EncodeRowDecodeRowRoundtrip) {
  Row row = Kv(77, "roundtrip");
  std::string buf = EncodeRow(row);
  Row out;
  ASSERT_TRUE(DecodeRow(buf, 2, &out));
  EXPECT_EQ(out, row);
  EXPECT_FALSE(DecodeRow(buf, 3, &out));  // arity mismatch
  EXPECT_FALSE(DecodeRow(buf.substr(0, buf.size() - 1), 2, &out));
}

TEST_F(DatabaseTest, ManyCheckpointCyclesStayConsistent) {
  DatabaseOptions opts = Opts();
  for (int cycle = 0; cycle < 5; ++cycle) {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    if (cycle == 0) {
      ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    }
    ASSERT_TRUE(db.Insert("t", Kv(cycle, "cycle")).ok());
    if (cycle % 2 == 0) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
  }
  Database db;
  ASSERT_TRUE(db.Open(opts).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 5u);
}

// ------------------------------------------------------------ WAL batches

TEST_F(DatabaseTest, BatchGroupsMutationsIntoOneWalRecordThatReplays) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    BatchScope batch(&db);
    RowId a = db.Insert("t", Kv(1, "one")).value();
    ASSERT_TRUE(db.Insert("t", Kv(2, "two")).ok());
    ASSERT_TRUE(db.Update("t", a, Kv(1, "uno")).ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  // The group is one framed record after the CreateTable record.
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(dir_ + "/wal.log", &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].op, WalOp::kBatch);
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_EQ(db.GetTable("t")->row_count(), 2u);
  EXPECT_EQ(db.GetTable("t")->Get(1).value()[1].as_string(), "uno");
}

TEST_F(DatabaseTest, NestedBatchesFoldIntoTheOutermost) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    BatchScope outer(&db);
    ASSERT_TRUE(db.Insert("t", Kv(1, "a")).ok());
    {
      BatchScope inner(&db);
      ASSERT_TRUE(db.Insert("t", Kv(2, "b")).ok());
      EXPECT_EQ(db.batch_depth(), 2u);
    }
    EXPECT_EQ(db.batch_depth(), 1u);
    ASSERT_TRUE(db.Insert("t", Kv(3, "c")).ok());
  }
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(dir_ + "/wal.log", &records).ok());
  ASSERT_EQ(records.size(), 2u);  // create + one fused batch
  EXPECT_EQ(records[1].op, WalOp::kBatch);
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 3u);
}

TEST_F(DatabaseTest, TornBatchRecordDropsTheWholeGroup) {
  uint64_t before_batch = 0;
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "keep")).ok());
    before_batch = fs::file_size(dir_ + "/wal.log");
    BatchScope batch(&db);
    ASSERT_TRUE(db.Insert("t", Kv(2, "gone")).ok());
    ASSERT_TRUE(db.Insert("t", Kv(3, "gone-too")).ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  // Tear the tail mid-way through the batch record: recovery must keep the
  // pre-batch state and lose ALL of the group, never half of it.
  uint64_t size = fs::file_size(dir_ + "/wal.log");
  ASSERT_GT(size, before_batch + 1);
  fs::resize_file(dir_ + "/wal.log", before_batch + (size - before_batch) / 2);
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_EQ(db.GetTable("t")->row_count(), 1u);
  EXPECT_EQ(db.GetTable("t")->Get(1).value()[1].as_string(), "keep");
}

TEST_F(DatabaseTest, CheckpointInsideABatchIsRefused) {
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  BatchScope batch(&db);
  ASSERT_TRUE(db.Insert("t", Kv(1, "x")).ok());
  EXPECT_TRUE(db.Checkpoint().IsFailedPrecondition());
  ASSERT_TRUE(batch.Commit().ok());
  EXPECT_TRUE(db.Checkpoint().ok());
}

TEST_F(DatabaseTest, EmptyBatchWritesNothing) {
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  uint64_t before = fs::file_size(dir_ + "/wal.log");
  {
    BatchScope batch(&db);
    ASSERT_TRUE(batch.Commit().ok());
  }
  EXPECT_EQ(fs::file_size(dir_ + "/wal.log"), before);
  EXPECT_TRUE(db.CommitBatch().IsFailedPrecondition());  // none open
}

// ------------------------------------------------------------ coalescing
// Inside a batch each row keeps one sub-record. These tests pin the folding
// rules and check, against the live tables, that whatever folded still
// recovers and replicates to the same state.

/// The sub-records of the kBatch frame at `index` in the WAL at `path`.
std::vector<WalRecord> BatchSubRecords(const std::string& path, size_t index) {
  std::vector<WalRecord> records;
  EXPECT_TRUE(ReadWal(path, &records).ok());
  std::vector<WalRecord> subs;
  if (index >= records.size() || records[index].op != WalOp::kBatch) {
    ADD_FAILURE() << "no batch frame at " << index;
    return subs;
  }
  ByteReader in(records[index].payload);
  while (!in.AtEnd()) {
    std::string bytes;
    WalRecord sub;
    if (!in.Str(&bytes) || !DecodeWalRecord(bytes, &sub)) {
      ADD_FAILURE() << "malformed sub-record";
      break;
    }
    subs.push_back(std::move(sub));
  }
  return subs;
}

TEST_F(DatabaseTest, InsertThenUpdatesLogOneSubRecordWithTheLastImage) {
  const obs::Counter* coalesced =
      obs::MetricsRegistry::Default().GetCounter("storage.wal.coalesced_rows");
  const uint64_t before = coalesced->value();
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    BatchScope batch(&db);
    RowId id = db.Insert("t", Kv(1, "v0")).value();
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db.Update("t", id, Kv(1, "v" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(batch.Commit().ok());
  }
  EXPECT_EQ(coalesced->value() - before, 5u);
  std::vector<WalRecord> subs = BatchSubRecords(dir_ + "/wal.log", 1);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].op, WalOp::kInsert);
  EXPECT_EQ(subs[0].row_id, 1u);
  EXPECT_EQ(subs[0].payload, EncodeRow(Kv(1, "v5")));
}

// Upsert writes a row as the row of its unique-key value and logs what an
// Insert or Update of that row would have logged, so inside a batch it
// folds like an Update.
TEST_F(DatabaseTest, UpsertInsertsNewKeysAndUpdatesKnownOnesInPlace) {
  const obs::Counter* coalesced =
      obs::MetricsRegistry::Default().GetCounter("storage.wal.coalesced_rows");
  RowId first = 0;
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("kv", KvSchema()).ok());
    ASSERT_TRUE(db.AddUniqueIndex("kv", "k").ok());
    ASSERT_TRUE(db.CreateTable("plain", KvSchema()).ok());
    first = db.Upsert("kv", Kv(1, "a")).value();
    EXPECT_EQ(db.Upsert("kv", Kv(1, "b")).value(), first);
    EXPECT_EQ(db.GetTable("kv")->row_count(), 1u);
    EXPECT_EQ(db.GetTable("kv")->Get(first).value(), Kv(1, "b"));

    // Refused before anything is applied or logged.
    const uint64_t lsn = db.last_lsn();
    EXPECT_TRUE(
        db.Upsert("plain", Kv(1, "a")).status().IsFailedPrecondition());
    EXPECT_TRUE(db.Upsert("nope", Kv(1, "a")).status().IsNotFound());
    EXPECT_TRUE(
        db.Upsert("kv", {Value::Int(1)}).status().IsInvalidArgument());
    EXPECT_EQ(db.last_lsn(), lsn);
    EXPECT_EQ(db.GetTable("plain")->row_count(), 0u);

    const uint64_t before = coalesced->value();
    BatchScope batch(&db);
    RowId id = db.Insert("kv", Kv(2, "x")).value();
    EXPECT_EQ(db.Upsert("kv", Kv(2, "y")).value(), id);
    EXPECT_EQ(db.Upsert("kv", Kv(2, "z")).value(), id);
    ASSERT_TRUE(batch.Commit().ok());
    EXPECT_EQ(coalesced->value() - before, 2u);
  }
  // Frames: two creates, the upsert's insert, its update, then the batch.
  std::vector<WalRecord> subs = BatchSubRecords(dir_ + "/wal.log", 4);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].op, WalOp::kInsert);
  EXPECT_EQ(subs[0].payload, EncodeRow(Kv(2, "z")));

  // Index declarations are not logged; a reopen re-runs them, as every
  // manager's Attach does.
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_TRUE(db.AddUniqueIndex("kv", "k").ok());
  EXPECT_EQ(db.Upsert("kv", Kv(1, "c")).value(), first);
  EXPECT_EQ(db.GetTable("kv")->row_count(), 2u);
  EXPECT_EQ(db.GetTable("kv")->Get(first).value(), Kv(1, "c"));
}

TEST_F(DatabaseTest, DdlEndsFoldingForTheWholeBatch) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    BatchScope batch(&db);
    RowId id = db.Insert("t", Kv(1, "a")).value();
    ASSERT_TRUE(db.Update("t", id, Kv(1, "b")).ok());  // folds into the insert
    ASSERT_TRUE(db.CreateTable("u", KvSchema()).ok());
    ASSERT_TRUE(db.Update("t", id, Kv(1, "c")).ok());  // logged as itself
    ASSERT_TRUE(db.Update("t", id, Kv(1, "d")).ok());  // folds into "c"
    ASSERT_TRUE(batch.Commit().ok());
  }
  std::vector<WalRecord> subs = BatchSubRecords(dir_ + "/wal.log", 1);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].op, WalOp::kInsert);
  EXPECT_EQ(subs[0].payload, EncodeRow(Kv(1, "b")));
  EXPECT_EQ(subs[1].op, WalOp::kCreateTable);
  EXPECT_EQ(subs[2].op, WalOp::kUpdate);
  EXPECT_EQ(subs[2].payload, EncodeRow(Kv(1, "d")));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  EXPECT_EQ(db.GetTable("t")->Get(1).value(), Kv(1, "d"));
  EXPECT_NE(db.GetTable("u"), nullptr);
}

// Rows 1 (k=10) and 2 (k=20) swap keys inside one batch through a spare
// key: 1 -> 30, 2 -> 10, 1 -> 20. Folding row 1's last image into its first
// sub-record would replay "1 -> 20" while row 2 still held 20; under the
// unique index both updates would fail with AlreadyExists, which replay
// tolerates, and the rows would come back with their old keys.
TEST_F(DatabaseTest, UniqueKeySwapInsideABatchRecoversAndReplicates) {
  DatabaseOptions opts = Opts();
  opts.retain_wal = true;  // the follower reads every frame from the log
  {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    ASSERT_TRUE(db.CreateTable("kv", KvSchema()).ok());
    ASSERT_TRUE(db.AddUniqueIndex("kv", "k").ok());
    ASSERT_TRUE(db.Insert("kv", Kv(10, "a")).ok());
    ASSERT_TRUE(db.Insert("kv", Kv(20, "b")).ok());
    // The snapshot records the unique index, so the tail replays under it.
    ASSERT_TRUE(db.Checkpoint().ok());
    BatchScope batch(&db);
    ASSERT_TRUE(db.Update("kv", 1, Kv(30, "a")).ok());
    ASSERT_TRUE(db.Update("kv", 2, Kv(10, "b")).ok());
    ASSERT_TRUE(db.Update("kv", 1, Kv(20, "a")).ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  // Every update moved a key, so none of them folded.
  EXPECT_EQ(BatchSubRecords(dir_ + "/wal.log", 3).size(), 3u);
  auto expect_swapped = [](const Database& db) {
    const Table* kv = db.GetTable("kv");
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->Get(1).value(), Kv(20, "a"));
    EXPECT_EQ(kv->Get(2).value(), Kv(10, "b"));
    EXPECT_EQ(kv->LookupUnique("k", Value::Int(20)).value(), 1u);
    EXPECT_EQ(kv->LookupUnique("k", Value::Int(10)).value(), 2u);
  };
  {
    SCOPED_TRACE("recovered");
    Database recovered;
    ASSERT_TRUE(recovered.Open(opts).ok());
    EXPECT_EQ(recovered.recovery_stats().wal_records_replayed, 1u);
    expect_swapped(recovered);
  }
  SCOPED_TRACE("follower");
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(dir_ + "/wal.log", &records).ok());
  Database follower;
  ASSERT_TRUE(follower.Open(DatabaseOptions{}).ok());
  for (const WalRecord& rec : records) {
    ASSERT_TRUE(follower.ApplyReplicated(rec).ok());
    if (rec.op == WalOp::kCreateTable) {
      ASSERT_TRUE(follower.AddUniqueIndex("kv", "k").ok());
    }
  }
  expect_swapped(follower);
}

/// Random batches against one durable database, checked after every commit
/// against a reopened copy of its directory and against a follower fed its
/// frames. The parameter picks the engine (false = snapshot, true = paged).
class CoalescingOracleTest : public DatabaseTest,
                             public ::testing::WithParamInterface<bool> {
 protected:
  static Schema KgSchema() {
    return SchemaBuilder().Int("k").Str("v").Int("g").Build();
  }
  static constexpr int64_t kKeys = 48;   ///< unique keys drawn from [0, kKeys)
  static constexpr int64_t kGroups = 4;  ///< values of column g

  DatabaseOptions EngineOpts(const std::string& sub) const {
    DatabaseOptions o;
    o.directory = dir_ + "/" + sub;
    o.paged = GetParam();
    o.retain_wal = true;  // the follower reads every frame from the log
    return o;
  }

  /// Indexes are not logged: every reader declares them after it opens.
  static void DeclareIndexes(Database* db) {
    for (const std::string& name : db->TableNames()) {
      if (db->GetTable(name)->unique_column() < 0) {
        ASSERT_TRUE(db->AddUniqueIndex(name, "k").ok()) << name;
      }
    }
  }

  /// Everything a reader can observe: per table, the row-id counter, the
  /// row count, every row, and the unique index lookup of its key.
  static std::string Describe(const Database& db) {
    std::ostringstream out;
    for (const std::string& name : db.TableNames()) {
      const Table* t = db.GetTable(name);
      out << name << " next=" << t->next_row_id()
          << " count=" << t->row_count() << "\n";
      EXPECT_TRUE(t->Scan([&](RowId id, const Row& row) {
        out << "  " << id << ":";
        for (const Value& v : row) out << " " << v.ToString();
        Result<RowId> by_key = t->LookupUnique("k", row[0]);
        out << " key->" << (by_key.ok() ? std::to_string(by_key.value()) : "-")
            << "\n";
        return true;
      }).ok());
    }
    return out.str();
  }

  static std::vector<RowId> LiveIds(const Database& db,
                                    const std::string& table) {
    std::vector<RowId> ids;
    EXPECT_TRUE(db.GetTable(table)->Scan([&](RowId id, const Row&) {
      ids.push_back(id);
      return true;
    }).ok());
    return ids;
  }

  Row RandomRow(int64_t key) {
    return {Value::Int(key), Value::Str("v" + std::to_string(rng_() % 1000)),
            Value::Int(static_cast<int64_t>(rng_() % kGroups))};
  }

  int64_t RandomKey() { return static_cast<int64_t>(rng_() % kKeys); }

  /// A table that exists, rows or not.
  std::string PickTable(const Database& db) {
    std::vector<std::string> names = db.TableNames();
    return names[rng_() % names.size()];
  }

  /// One random mutation; failures (duplicate keys, missing rows) are part
  /// of the script and leave nothing in the log.
  void RandomOp(Database* db, int depth) {
    const std::string table = PickTable(*db);
    std::vector<RowId> ids = LiveIds(*db, table);
    // Hot rows: updates aim at the first few ids, so they repeat in a batch.
    auto hot = [&] { return ids[rng_() % std::min<size_t>(ids.size(), 3)]; };
    const unsigned dice = rng_() % 100;
    if (dice < 30 && !ids.empty()) {  // same-key update of a hot row
      RowId id = hot();
      Row row = RandomRow(db->GetTable(table)->Get(id).value()[0].as_int());
      ASSERT_TRUE(db->Update(table, id, row).ok());
    } else if (dice < 40 && !ids.empty()) {  // key-moving update
      (void)db->Update(table, hot(), RandomRow(RandomKey()));
    } else if (dice < 58) {
      (void)db->Insert(table, RandomRow(RandomKey()));
    } else if (dice < 66 && !ids.empty()) {
      ASSERT_TRUE(db->Delete(table, ids[rng_() % ids.size()]).ok());
    } else if (dice < 72) {  // insert, maybe update, then delete
      Result<RowId> id = db->Insert(table, RandomRow(RandomKey()));
      if (id.ok()) {
        if (rng_() % 2) {
          Row row = db->GetTable(table)->Get(id.value()).value();
          row[1] = Value::Str("briefly");
          ASSERT_TRUE(db->Update(table, id.value(), row).ok());
        }
        ASSERT_TRUE(db->Delete(table, id.value()).ok());
      }
    } else if (dice < 80 && ids.size() >= 2) {  // swap two keys via a spare
      RowId a = ids[rng_() % ids.size()];
      RowId b = ids[rng_() % ids.size()];
      const Table* t = db->GetTable(table);
      Row ra = t->Get(a).value();
      Row rb = t->Get(b).value();
      if (a != b && !t->LookupUnique("k", Value::Int(kKeys)).ok()) {
        Value ka = ra[0];
        ra[0] = Value::Int(kKeys);
        ASSERT_TRUE(db->Update(table, a, ra).ok());
        ra[0] = rb[0];
        rb[0] = ka;
        ASSERT_TRUE(db->Update(table, b, rb).ok());
        ASSERT_TRUE(db->Update(table, a, ra).ok());
      }
    } else if (dice < 85) {  // DDL: drop or (re)create a throwaway table
      const std::string name = "d" + std::to_string(rng_() % 2);
      if (db->GetTable(name) != nullptr) {
        ASSERT_TRUE(db->DropTable(name).ok());
      }
      if (db->GetTable(name) == nullptr && rng_() % 3 != 0) {
        ASSERT_TRUE(db->CreateTable(name, KgSchema()).ok());
        DeclareIndexes(db);
        for (unsigned n = rng_() % 3; n > 0; --n) {
          (void)db->Insert(name, RandomRow(RandomKey()));
        }
      }
    } else if (depth < 2) {  // nested scope folding into the outer batch
      BatchScope inner(db);
      for (unsigned n = 1 + rng_() % 4; n > 0; --n) RandomOp(db, depth + 1);
      ASSERT_TRUE(inner.Commit().ok());
    }
  }

  std::mt19937 rng_;
};

TEST_P(CoalescingOracleTest, ReopenAndFollowerMatchTheLiveTables) {
  const obs::Counter* coalesced =
      obs::MetricsRegistry::Default().GetCounter("storage.wal.coalesced_rows");
  const uint64_t coalesced_before = coalesced->value();
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fs::remove_all(dir_);
    rng_.seed(seed);
    Database primary;
    ASSERT_TRUE(primary.Open(EngineOpts("primary")).ok());
    for (const char* name : {"t0", "t1"}) {
      ASSERT_TRUE(primary.CreateTable(name, KgSchema()).ok());
    }
    DeclareIndexes(&primary);
    Database follower;
    ASSERT_TRUE(follower.Open(EngineOpts("follower")).ok());

    for (int batch = 0; batch < 40; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      if (batch % 10 == 9) {
        ASSERT_TRUE(primary.Checkpoint().ok());
      }
      {
        BatchScope scope(&primary);
        for (unsigned n = 1 + rng_() % 12; n > 0; --n) RandomOp(&primary, 0);
        ASSERT_TRUE(scope.Commit().ok());
      }
      const std::string want = Describe(primary);

      fs::remove_all(dir_ + "/copy");
      fs::copy(dir_ + "/primary", dir_ + "/copy");
      Database reopened;
      ASSERT_TRUE(reopened.Open(EngineOpts("copy")).ok());
      DeclareIndexes(&reopened);
      EXPECT_EQ(Describe(reopened), want) << "reopened copy";

      std::vector<WalRecord> records;
      ASSERT_TRUE(ReadWal(primary.wal_path(), &records).ok());
      for (const WalRecord& rec : records) {
        if (rec.lsn <= follower.last_lsn()) continue;
        ASSERT_TRUE(follower.ApplyReplicated(rec).ok());
        DeclareIndexes(&follower);
      }
      EXPECT_EQ(Describe(follower), want) << "follower";
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(coalesced->value(), coalesced_before);
}

INSTANTIATE_TEST_SUITE_P(Engines, CoalescingOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "paged" : "snapshot";
                         });

// ------------------------------------------------------------ golden bytes
// Byte vectors of the storage formats, each checked in both directions: the
// encoder must still write them and the decoder must still read them. Files
// an older build wrote recover unchanged and followers apply a primary's
// frames verbatim, so a change that moves any of these bytes is a format
// change, not a refactor.

/// One value of every FieldType, with edge payloads: a negative int, a
/// multi-byte int, an empty string and a string with an embedded NUL.
Row EveryTypeRow() {
  return {Value::Null(),
          Value::Bool(true),
          Value::Bool(false),
          Value::Int(-2),
          Value::Int(0x0102030405060708),
          Value::Real(1.5),
          Value::Str(""),
          Value::Str(std::string("a\0b", 3))};
}

Schema GoldenSchema() {
  return SchemaBuilder()
      .Int("id")
      .Bool("flag")
      .Real("score", /*nullable=*/true)
      .Str("name")
      .Build();
}

constexpr std::string_view kEveryTypeRowHex =
    "08000000000101010002feffffffffffffff0208070605040302010300000000"
    "0000f83f04000000000403000000610062";

TEST(StorageGoldenBytesTest, RowOfEveryFieldType) {
  EXPECT_EQ(Hex(EncodeRow(EveryTypeRow())), kEveryTypeRowHex);
  Row out;
  ASSERT_TRUE(DecodeRow(Unhex(kEveryTypeRowHex), EveryTypeRow().size(), &out));
  EXPECT_EQ(out, EveryTypeRow());
}

constexpr std::string_view kWalRecordHex =
    "04080706050403020105000000706f7374730201000000000000130000000200"
    "0000020700000000000000040100000078";

TEST(StorageGoldenBytesTest, WalRecord) {
  WalRecord rec;
  rec.op = WalOp::kUpdate;
  rec.lsn = 0x0102030405060708;
  rec.table = "posts";
  rec.row_id = 258;
  rec.payload = EncodeRow(Kv(7, "x"));
  EXPECT_EQ(Hex(EncodeWalRecord(rec)), kWalRecordHex);
  WalRecord out;
  ASSERT_TRUE(DecodeWalRecord(Unhex(kWalRecordHex), &out));
  EXPECT_EQ(out.op, rec.op);
  EXPECT_EQ(out.lsn, rec.lsn);
  EXPECT_EQ(out.table, rec.table);
  EXPECT_EQ(out.row_id, rec.row_id);
  EXPECT_EQ(out.payload, rec.payload);
}

constexpr std::string_view kSchemaHex =
    "04000000020000006964020004000000666c616701000500000073636f726503"
    "01040000006e616d650400";

TEST_F(DatabaseTest, GoldenSchemaBlob) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", GoldenSchema()).ok());
  }
  // The kCreateTable record carries the schema blob as its payload.
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(dir_ + "/wal.log", &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(Hex(records[0].payload), kSchemaHex);

  fs::remove_all(dir_);
  WriteFile(dir_ + "/wal.log",
            Frame(CreateTableRecord("t", Unhex(kSchemaHex))));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_NE(db.GetTable("t"), nullptr);
  const Schema& got = db.GetTable("t")->schema();
  const Schema want = GoldenSchema();
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t i = 0; i < want.num_columns(); ++i) {
    EXPECT_EQ(got.column(i).name, want.column(i).name);
    EXPECT_EQ(got.column(i).type, want.column(i).type);
    EXPECT_EQ(got.column(i).nullable, want.column(i).nullable);
  }
}

/// A create-table frame, then one kBatch frame holding an insert, a second
/// insert, an update and a delete: what a build that logged every row image
/// wrote for the script below. Kept as the read-compatibility vector.
constexpr std::string_view kBatchWalHex =
    "2d0000004ead2291010100000000000000020000006b76000000000000000012"
    "00000002000000010000006b020001000000760400d400000028ce9e1b060200"
    "000000000000000000000000000000000000bb00000030000000030000000000"
    "000000020000006b760100000000000000150000000200000002010000000000"
    "000004030000006f6e6530000000030000000000000000020000006b76020000"
    "00000000001500000002000000020200000000000000040300000074776f3000"
    "0000040000000000000000020000006b76010000000000000015000000020000"
    "000201000000000000000403000000756e6f1b00000005000000000000000002"
    "0000006b76020000000000000000000000";

/// The same script as written today: the update folds into row 1's insert,
/// so the batch frame holds three sub-records (insert "uno", insert, delete).
constexpr std::string_view kCoalescedBatchWalHex =
    "2d0000004ead2291010100000000000000020000006b76000000000000000012"
    "00000002000000010000006b020001000000760400a0000000ce618c04060200"
    "0000000000000000000000000000000000008700000030000000030000000000"
    "000000020000006b760100000000000000150000000200000002010000000000"
    "00000403000000756e6f30000000030000000000000000020000006b76020000"
    "00000000001500000002000000020200000000000000040300000074776f1b00"
    "0000050000000000000000020000006b76020000000000000000000000";

TEST_F(DatabaseTest, GoldenWalFileWithBatchFrame) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("kv", KvSchema()).ok());
    BatchScope batch(&db);
    ASSERT_TRUE(db.Insert("kv", Kv(1, "one")).ok());
    ASSERT_TRUE(db.Insert("kv", Kv(2, "two")).ok());
    ASSERT_TRUE(db.Update("kv", 1, Kv(1, "uno")).ok());
    ASSERT_TRUE(db.Delete("kv", 2).ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  EXPECT_EQ(Hex(ReadFile(dir_ + "/wal.log")), kCoalescedBatchWalHex);

  for (std::string_view hex : {kBatchWalHex, kCoalescedBatchWalHex}) {
    fs::remove_all(dir_);
    WriteFile(dir_ + "/wal.log", Unhex(hex));
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    EXPECT_EQ(db.last_lsn(), 2u);
    const Table* kv = db.GetTable("kv");
    ASSERT_NE(kv, nullptr);
    ASSERT_EQ(kv->row_count(), 1u);
    EXPECT_EQ(kv->Get(1).value(), Kv(1, "uno"));
    EXPECT_EQ(db.Insert("kv", Kv(3, "three")).value(), 3u);
  }
}

/// Two tables, one with a unique index, with an update, a delete and a
/// NULL, checkpointed into one snapshot file.
void BuildGoldenDatabase(Database* db) {
  ASSERT_TRUE(db->CreateTable("users", SchemaBuilder()
                                           .Int("id")
                                           .Str("name")
                                           .Real("score", /*nullable=*/true)
                                           .Bool("active")
                                           .Build())
                  .ok());
  ASSERT_TRUE(db->AddUniqueIndex("users", "id").ok());
  ASSERT_TRUE(db->Insert("users", {Value::Int(10), Value::Str("ann"),
                                   Value::Real(0.5), Value::Bool(true)})
                  .ok());
  ASSERT_TRUE(db->Insert("users", {Value::Int(20), Value::Str("bob"),
                                   Value::Null(), Value::Bool(false)})
                  .ok());
  ASSERT_TRUE(db->Insert("users", {Value::Int(30), Value::Str("ann"),
                                   Value::Real(-2.25), Value::Bool(true)})
                  .ok());
  ASSERT_TRUE(db->Update("users", 2, {Value::Int(20), Value::Str("bob"),
                                      Value::Real(4.0), Value::Bool(true)})
                  .ok());
  ASSERT_TRUE(db->CreateTable("posts", SchemaBuilder()
                                           .Int("project")
                                           .Int("user")
                                           .Str("tags")
                                           .Build())
                  .ok());
  ASSERT_TRUE(db->Insert("posts", {Value::Int(1), Value::Int(10),
                                   Value::Str("red,blue")})
                  .ok());
  ASSERT_TRUE(db->Insert("posts", {Value::Int(2), Value::Int(30),
                                   Value::Str("")})
                  .ok());
  ASSERT_TRUE(db->Insert("posts", {Value::Int(1), Value::Int(20),
                                   Value::Str("green")})
                  .ok());
  ASSERT_TRUE(db->Delete("posts", 2).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
}

constexpr std::string_view kSnapshotHex =
    "ffffffff020000000a000000000000000200000005000000706f737473030000"
    "000700000070726f6a6563740200040000007573657202000400000074616773"
    "0400000000000004000000000000000200000000000000010000000000000002"
    "0100000000000000020a0000000000000004080000007265642c626c75650300"
    "0000000000000201000000000000000214000000000000000405000000677265"
    "656e050000007573657273040000000200000069640200040000006e616d6504"
    "000500000073636f726503010600000061637469766501000100000000040000"
    "000000000003000000000000000100000000000000020a000000000000000403"
    "000000616e6e03000000000000e03f0101020000000000000002140000000000"
    "00000403000000626f6203000000000000104001010300000000000000021e00"
    "0000000000000403000000616e6e0300000000000002c001012717f55b";

/// The same state in a snapshot written while tables kept ordered indexes:
/// `users` lists column 1 (name) and `posts` column 0 (project) as
/// ordered-index columns, where kSnapshotHex lists none.
constexpr std::string_view kOrderedIndexSnapshotHex =
    "ffffffff020000000a000000000000000200000005000000706f737473030000"
    "000700000070726f6a6563740200040000007573657202000400000074616773"
    "0400000100000000000000040000000000000002000000000000000100000000"
    "000000020100000000000000020a0000000000000004080000007265642c626c"
    "7565030000000000000002010000000000000002140000000000000004050000"
    "00677265656e050000007573657273040000000200000069640200040000006e"
    "616d6504000500000073636f7265030106000000616374697665010001010000"
    "0001000000040000000000000003000000000000000100000000000000020a00"
    "0000000000000403000000616e6e03000000000000e03f010102000000000000"
    "000214000000000000000403000000626f620300000000000010400101030000"
    "0000000000021e000000000000000403000000616e6e0300000000000002c001"
    "013a24997f";

/// What BuildGoldenDatabase left, read back from a snapshot.
void ExpectGoldenState(const Database& db) {
  EXPECT_EQ(db.checkpoint_lsn(), 10u);
  EXPECT_EQ(db.last_lsn(), 10u);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"posts", "users"}));
  const Table* users = db.GetTable("users");
  ASSERT_NE(users, nullptr);
  ASSERT_EQ(users->row_count(), 3u);
  EXPECT_EQ(users->next_row_id(), 4u);
  EXPECT_EQ(users->Get(1).value(),
            (Row{Value::Int(10), Value::Str("ann"), Value::Real(0.5),
                 Value::Bool(true)}));
  EXPECT_EQ(users->Get(2).value(),
            (Row{Value::Int(20), Value::Str("bob"), Value::Real(4.0),
                 Value::Bool(true)}));
  EXPECT_EQ(users->Get(3).value(),
            (Row{Value::Int(30), Value::Str("ann"), Value::Real(-2.25),
                 Value::Bool(true)}));
  EXPECT_EQ(users->LookupUnique("id", Value::Int(30)).value(), 3u);
  const Table* posts = db.GetTable("posts");
  ASSERT_NE(posts, nullptr);
  EXPECT_EQ(posts->row_count(), 2u);
  EXPECT_EQ(posts->unique_column(), -1);
  EXPECT_EQ(posts->Get(1).value(),
            (Row{Value::Int(1), Value::Int(10), Value::Str("red,blue")}));
  EXPECT_TRUE(posts->Get(2).status().IsNotFound());
  EXPECT_EQ(posts->Get(3).value()[2], Value::Str("green"));
}

/// Ids keep counting past the deleted row, and the unique index is live.
void ExpectGoldenStateTakesWrites(Database* db) {
  EXPECT_EQ(db->Insert("posts", {Value::Int(3), Value::Int(10),
                                 Value::Str("x")})
                .value(),
            4u);
  EXPECT_TRUE(db->Insert("users", {Value::Int(10), Value::Str("dup"),
                                   Value::Null(), Value::Bool(false)})
                  .status()
                  .IsAlreadyExists());
}

TEST_F(DatabaseTest, GoldenSnapshotFile) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    BuildGoldenDatabase(&db);
  }
  EXPECT_EQ(Hex(ReadFile(dir_ + "/snapshot.db")), kSnapshotHex);

  fs::remove_all(dir_);
  WriteFile(dir_ + "/snapshot.db", Unhex(kSnapshotHex));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ExpectGoldenState(db);
  ExpectGoldenStateTakesWrites(&db);
}

// A snapshot that lists ordered-index columns opens to the same state; the
// lists are checked against the schema and dropped, so its next checkpoint
// writes the file a database without them writes.
TEST_F(DatabaseTest, SnapshotListingOrderedIndexColumnsStillOpens) {
  WriteFile(dir_ + "/snapshot.db", Unhex(kOrderedIndexSnapshotHex));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ExpectGoldenState(db);
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(Hex(ReadFile(dir_ + "/snapshot.db")), kSnapshotHex);
  ExpectGoldenStateTakesWrites(&db);
}

// ----------------------------------------------- decoders over lying input
// CRC-valid records whose counts or column numbers do not fit the bytes or
// the table. The checksum only proves the bytes are the ones written, so
// the decoders must still check what the bytes claim.

/// A schema blob that claims `columns` columns and holds one, "c", whose
/// type byte is `type`.
std::string SchemaBlob(uint32_t columns, uint8_t type) {
  ByteWriter w;
  w.U32(columns);
  w.Str("c");
  w.U8(type);
  w.U8(0);  // not nullable
  return w.Take();
}

constexpr uint8_t kInt64TypeByte = 2;

TEST_F(DatabaseTest, WalSchemaBlobDecodesWhenItIsHonest) {
  WriteFile(dir_ + "/wal.log",
            Frame(CreateTableRecord("t", SchemaBlob(1, kInt64TypeByte))));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  ASSERT_NE(db.GetTable("t"), nullptr);
  EXPECT_EQ(db.GetTable("t")->schema().column(0).type, FieldType::kInt64);
}

TEST_F(DatabaseTest, WalSchemaClaimingMoreColumnsThanItHoldsIsCorruption) {
  WriteFile(dir_ + "/wal.log",
            Frame(CreateTableRecord("t", SchemaBlob(0xFFFFFFFFu,
                                                    kInt64TypeByte))));
  Database db;
  Status s = db.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DatabaseTest, WalSchemaWithUnknownColumnTypeIsCorruption) {
  WriteFile(dir_ + "/wal.log",
            Frame(CreateTableRecord("t", SchemaBlob(1, 9))));
  Database db;
  Status s = db.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DatabaseTest, ReplicatedLyingSchemaIsAnErrorNotACrash) {
  {
    Database follower;
    ASSERT_TRUE(follower.Open(Opts()).ok());
    Status s = follower.ApplyReplicated(
        CreateTableRecord("t", SchemaBlob(0xFFFFFFFFu, kInt64TypeByte)));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(follower.GetTable("t"), nullptr);
  }
  // The record reached the follower's own log before it was decoded, so a
  // restart meets it again and must report it the same way.
  Database again;
  Status s = again.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

/// A CRC-valid v2 snapshot (checkpoint lsn 1) of one table "t" with one
/// int64 column "c" and one row, id 1 = {5}. `unique_byte` is the stored
/// unique column plus one (0 = none); `ordered` lists the stored ordered
/// index columns.
std::string OneColumnSnapshot(uint8_t unique_byte,
                              const std::vector<uint32_t>& ordered) {
  ByteWriter w;
  w.U32(0xFFFFFFFFu);  // v2 sentinel
  w.U32(2);            // version
  w.U64(1);            // checkpoint lsn
  w.U32(1);            // tables
  w.Str("t");
  w.Raw(SchemaBlob(1, kInt64TypeByte));
  w.U8(unique_byte);
  w.U32(static_cast<uint32_t>(ordered.size()));
  for (uint32_t col : ordered) w.U32(col);
  w.U64(2);  // next row id
  w.U64(1);  // rows
  w.U64(1);  // row id
  w.U8(kInt64TypeByte);
  w.I64(5);
  w.U32(Crc32(w.buffer().data(), w.buffer().size()));
  return w.Take();
}

TEST_F(DatabaseTest, CraftedSnapshotLoadsWhenItsColumnsExist) {
  WriteFile(dir_ + "/snapshot.db", OneColumnSnapshot(1, {0}));
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  const Table* t = db.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->LookupUnique("c", Value::Int(5)).value(), 1u);
  EXPECT_EQ(t->Get(1).value(), (Row{Value::Int(5)}));
  EXPECT_EQ(t->row_count(), 1u);
}

TEST_F(DatabaseTest, SnapshotOrderedIndexPastTheLastColumnIsCorruption) {
  WriteFile(dir_ + "/snapshot.db", OneColumnSnapshot(0, {200}));
  Database db;
  Status s = db.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DatabaseTest, SnapshotUniqueColumnPastTheLastColumnIsCorruption) {
  WriteFile(dir_ + "/snapshot.db", OneColumnSnapshot(201, {}));
  Database db;
  Status s = db.Open(Opts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace itag::storage
