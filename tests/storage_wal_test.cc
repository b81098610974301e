#include "storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "storage/database.h"

namespace itag::storage {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("itag_wal_test." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalRecord MakeInsert(const std::string& table, uint64_t row_id,
                       const std::string& payload) {
    WalRecord r;
    r.op = WalOp::kInsert;
    r.table = table;
    r.row_id = row_id;
    r.payload = payload;
    return r;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(WalTest, EncodeDecodeRecord) {
  WalRecord rec = MakeInsert("posts", 42, "");
  rec.payload = std::string("binary\0payload", 14);  // embedded NUL survives
  std::string encoded = EncodeWalRecord(rec);
  WalRecord out;
  ASSERT_TRUE(DecodeWalRecord(encoded, &out));
  EXPECT_EQ(out.op, WalOp::kInsert);
  EXPECT_EQ(out.table, "posts");
  EXPECT_EQ(out.row_id, 42u);
  EXPECT_EQ(out.payload, rec.payload);
}

TEST_F(WalTest, AppendAndReadBack) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  ASSERT_TRUE(w.Append(MakeInsert("a", 1, "one")).ok());
  ASSERT_TRUE(w.Append(MakeInsert("b", 2, "two")).ok());
  w.Close();

  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(path_, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].table, "a");
  EXPECT_EQ(records[0].payload, "one");
  EXPECT_EQ(records[1].row_id, 2u);
}

TEST_F(WalTest, ReadMissingFileIsEmptyOk) {
  std::vector<WalRecord> records;
  Status s = ReadWal((dir_ / "nonexistent.log").string(), &records);
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, AppendSurvivesReopen) {
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path_).ok());
    ASSERT_TRUE(w.Append(MakeInsert("t", 1, "first")).ok());
  }
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path_).ok());
    ASSERT_TRUE(w.Append(MakeInsert("t", 2, "second")).ok());
  }
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(path_, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].payload, "second");
}

TEST_F(WalTest, TornTailIsToleratedSilently) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  ASSERT_TRUE(w.Append(MakeInsert("t", 1, "complete")).ok());
  w.Close();
  // Simulate a crash mid-append: write a partial frame at the end.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    uint32_t len = 1000;  // claims 1000 bytes...
    out.write(reinterpret_cast<const char*>(&len), 4);
    uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write("short", 5);  // ...but delivers 5
  }
  std::vector<WalRecord> records;
  Status s = ReadWal(path_, &records);
  EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "complete");
}

TEST_F(WalTest, ChecksumMismatchIsCorruption) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  ASSERT_TRUE(w.Append(MakeInsert("t", 1, "abcdefgh")).ok());
  w.Close();
  // Flip one payload byte inside the (complete) frame.
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);
    char c;
    f.seekg(-2, std::ios::end);
    f.get(c);
    f.seekp(-2, std::ios::end);
    f.put(c ^ 0x7);
  }
  std::vector<WalRecord> records;
  Status s = ReadWal(path_, &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(WalTest, ResetTruncates) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  ASSERT_TRUE(w.Append(MakeInsert("t", 1, "gone-after-reset")).ok());
  ASSERT_TRUE(w.Reset().ok());
  ASSERT_TRUE(w.Append(MakeInsert("t", 2, "fresh")).ok());
  w.Close();
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(path_, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "fresh");
}

TEST_F(WalTest, AppendWithoutOpenFails) {
  WalWriter w;
  EXPECT_TRUE(w.Append(MakeInsert("t", 1, "x")).IsFailedPrecondition());
}

TEST_F(WalTest, AllOpKindsRoundtrip) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  for (WalOp op : {WalOp::kCreateTable, WalOp::kDropTable, WalOp::kInsert,
                   WalOp::kUpdate, WalOp::kDelete}) {
    WalRecord r;
    r.op = op;
    r.table = "tbl";
    r.row_id = static_cast<uint64_t>(op);
    r.payload = "p";
    ASSERT_TRUE(w.Append(r).ok());
  }
  w.Close();
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWal(path_, &records).ok());
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].op, WalOp::kCreateTable);
  EXPECT_EQ(records[4].op, WalOp::kDelete);
}

TEST_F(WalTest, DecodeRejectsMalformedPayload) {
  WalRecord out;
  EXPECT_FALSE(DecodeWalRecord("", &out));
  EXPECT_FALSE(DecodeWalRecord("x", &out));
  std::string valid = EncodeWalRecord(
      [] {
        WalRecord r;
        r.op = WalOp::kInsert;
        r.table = "t";
        r.row_id = 1;
        r.payload = "data";
        return r;
      }());
  // Truncations of a valid record must be rejected.
  for (size_t cut = 1; cut < valid.size(); ++cut) {
    EXPECT_FALSE(DecodeWalRecord(valid.substr(0, cut), &out)) << cut;
  }
}

TEST_F(WalTest, LyingLengthEndsTheLogAtTheLastWholeFrame) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  ASSERT_TRUE(w.Append(MakeInsert("t", 1, "complete")).ok());
  w.Close();
  const uint64_t boundary = fs::file_size(path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    uint32_t len = 0xC0000000u;  // a 3 GiB claim over a 4-byte tail
    uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write("tail", 4);
  }
  std::vector<WalRecord> records;
  uint64_t end = 0;
  Status s = ReadWal(path_, &records, &end);
  EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(end, boundary);
}

// ------------------------------------------ recovery over a damaged tail

/// A database (snapshot or paged engine) whose WAL gets `damage` appended
/// behind its last whole frame, as a crash can leave it. Recovery must cut
/// the damage off: otherwise the writer appends behind it and every write
/// acknowledged after the restart is hidden from the next one.
class WalTailRecoveryTest : public WalTest,
                            public ::testing::WithParamInterface<bool> {
 protected:
  DatabaseOptions Opts() const {
    DatabaseOptions o;
    o.directory = dir_.string();
    o.paged = GetParam();
    return o;
  }

  static Row KeyRow(int64_t k) { return {Value::Int(k)}; }

  void ExpectWriteAfterDamageSurvives(const std::string& damage) {
    {
      Database db;
      ASSERT_TRUE(db.Open(Opts()).ok());
      ASSERT_TRUE(db.CreateTable("t", SchemaBuilder().Int("k").Build()).ok());
      ASSERT_TRUE(db.Insert("t", KeyRow(1)).ok());
    }
    const uint64_t boundary = fs::file_size(path_);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::app);
      out.write(damage.data(), static_cast<std::streamsize>(damage.size()));
    }
    {
      Database db;
      Status s = db.Open(Opts());
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(fs::file_size(path_), boundary);
      ASSERT_EQ(db.GetTable("t")->row_count(), 1u);
      ASSERT_TRUE(db.Insert("t", KeyRow(2)).ok());
    }
    Database db;
    Status s = db.Open(Opts());
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(db.GetTable("t")->row_count(), 2u)
        << "the write acknowledged after the first restart was lost";
  }
};

TEST_P(WalTailRecoveryTest, EightZeroBytes) {
  ExpectWriteAfterDamageSurvives(std::string(8, '\0'));
}

TEST_P(WalTailRecoveryTest, PageOfZeroBytes) {
  ExpectWriteAfterDamageSurvives(std::string(4096, '\0'));
}

TEST_P(WalTailRecoveryTest, TornFrame) {
  std::string torn(8, '\0');
  uint32_t len = 100;  // claims 100 bytes, delivers 10
  std::memcpy(torn.data(), &len, 4);
  ExpectWriteAfterDamageSurvives(torn + std::string(10, 'x'));
}

TEST_P(WalTailRecoveryTest, LyingLength) {
  std::string header(8, '\0');
  uint32_t len = 0xC0000000u;
  std::memcpy(header.data(), &len, 4);
  ExpectWriteAfterDamageSurvives(header + "tail");
}

INSTANTIATE_TEST_SUITE_P(Engines, WalTailRecoveryTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "paged" : "snapshot";
                         });

}  // namespace
}  // namespace itag::storage
