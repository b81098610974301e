// Failure-injection tests for the storage engine: crashes between
// checkpoint steps, unwritable locations, garbage files, and validation
// failures that must never reach the log.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "storage/database.h"

namespace itag::storage {
namespace {

namespace fs = std::filesystem;

Schema KvSchema() { return SchemaBuilder().Int("k").Str("v").Build(); }

Row Kv(int64_t k, const std::string& v) {
  return {Value::Int(k), Value::Str(v)};
}

class StorageFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("itag_storage_failure." + std::to_string(::getpid())))
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

TEST_F(StorageFailureTest, OpenFailsWhenDirectoryIsAFile) {
  std::ofstream f(dir_);  // create a *file* where the directory should be
  f << "not a directory";
  f.close();
  Database db;
  Status s = db.Open(Opts());
  EXPECT_FALSE(s.ok());
}

TEST_F(StorageFailureTest, InvalidRowNeverReachesTheLog) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "good")).ok());
    // Arity and type violations are rejected before logging.
    EXPECT_FALSE(db.Insert("t", {Value::Int(2)}).ok());
    EXPECT_FALSE(db.Insert("t", {Value::Str("x"), Value::Str("y")}).ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  // Recovery replays only the valid insert.
  EXPECT_EQ(db.GetTable("t")->row_count(), 1u);
}

TEST_F(StorageFailureTest, CrashBetweenSnapshotWriteAndWalTruncate) {
  // Simulated by: checkpoint succeeds, then we manually re-append the old
  // WAL records (as if truncate hadn't happened). Recovery must tolerate
  // replaying records already absorbed by the snapshot (AlreadyExists).
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "one")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  {
    // Re-append a duplicate create+insert to the (now empty) WAL.
    WalWriter w;
    ASSERT_TRUE(w.Open(dir_ + "/wal.log").ok());
    WalRecord create;
    create.op = WalOp::kCreateTable;
    create.table = "t";
    ByteWriter schema;
    KvSchema().EncodeTo(&schema);
    create.payload = schema.Take();
    ASSERT_TRUE(w.Append(create).ok());
    WalRecord ins;
    ins.op = WalOp::kInsert;
    ins.table = "t";
    ins.row_id = 1;
    ins.payload = EncodeRow(Kv(1, "one"));
    ASSERT_TRUE(w.Append(ins).ok());
  }
  Database db;
  Status s = db.Open(Opts());
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.GetTable("t")->row_count(), 1u);
}

TEST_F(StorageFailureTest, LeftoverSnapshotTmpIsIgnored) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "committed")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // A crash mid-checkpoint leaves snapshot.db.tmp behind; the committed
  // snapshot must still be the one read.
  {
    std::ofstream tmp(dir_ + "/snapshot.db.tmp", std::ios::binary);
    tmp << "half-written garbage";
  }
  Database db;
  ASSERT_TRUE(db.Open(Opts()).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 1u);
}

TEST_F(StorageFailureTest, GarbageWalFileIsCorruption) {
  fs::create_directories(dir_);
  {
    std::ofstream wal(dir_ + "/wal.log", std::ios::binary);
    // A complete frame with a deliberately wrong checksum.
    uint32_t len = 4, crc = 0xDEADBEEF;
    wal.write(reinterpret_cast<const char*>(&len), 4);
    wal.write(reinterpret_cast<const char*>(&crc), 4);
    wal.write("abcd", 4);
  }
  Database db;
  EXPECT_TRUE(db.Open(Opts()).IsCorruption());
}

TEST_F(StorageFailureTest, TruncatedSnapshotIsCorruption) {
  {
    Database db;
    ASSERT_TRUE(db.Open(Opts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "row")).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Chop the snapshot in half.
  std::string snap = dir_ + "/snapshot.db";
  auto size = fs::file_size(snap);
  fs::resize_file(snap, size / 2);
  Database db;
  EXPECT_TRUE(db.Open(Opts()).IsCorruption());
}

TEST_F(StorageFailureTest, EmptySnapshotFileIsCorruption) {
  fs::create_directories(dir_);
  std::ofstream(dir_ + "/snapshot.db", std::ios::binary).close();
  Database db;
  EXPECT_TRUE(db.Open(Opts()).IsCorruption());
}

TEST_F(StorageFailureTest, RecoveryAfterEverySingleOperation) {
  // Replay-after-each-step sweep: after each mutation, a fresh process
  // must reconstruct exactly the same table contents. The in-test oracle is
  // a map keyed by RowId, mirroring every mutation.
  DatabaseOptions opts = Opts();
  std::map<RowId, std::pair<int64_t, std::string>> expected;
  auto verify = [&]() {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    Table* t = db.GetTable("t");
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->row_count(), expected.size());
    EXPECT_TRUE(t->Scan([&](RowId id, const Row& row) {
      auto it = expected.find(id);
      EXPECT_NE(it, expected.end()) << "unexpected row " << id;
      if (it != expected.end()) {
        EXPECT_EQ(row[0].as_int(), it->second.first);
        EXPECT_EQ(row[1].as_string(), it->second.second);
      }
      return true;
    }).ok());
  };

  {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  }
  std::vector<RowId> ids;
  for (int step = 0; step < 10; ++step) {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    RowId id =
        db.Insert("t", Kv(step, "v" + std::to_string(step))).value();
    ids.push_back(id);
    expected[id] = {step, "v" + std::to_string(step)};
    if (step % 3 == 2) {
      RowId target = ids[step - 1];
      if (expected.count(target)) {
        ASSERT_TRUE(
            db.Update("t", target,
                      Kv(expected[target].first, "updated"))
                .ok());
        expected[target].second = "updated";
      }
    }
    if (step == 5) {
      ASSERT_TRUE(db.Delete("t", ids[0]).ok());
      expected.erase(ids[0]);
    }
    if (step == 7) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    verify();
  }
}

}  // namespace
}  // namespace itag::storage
