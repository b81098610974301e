#include "storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

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

// ------------------------------------------ streaming reads

TEST_F(WalTest, ScanWalHandsOverFramesInOrderAndStopsOnCallerError) {
  WalWriter w;
  ASSERT_TRUE(w.Open(path_).ok());
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(w.Append(MakeInsert("t", id, "row")).ok());
  }
  w.Close();
  std::vector<uint64_t> seen;
  uint64_t end = 0;
  ASSERT_TRUE(ScanWal(
                  path_,
                  [&](WalRecord&& rec) {
                    seen.push_back(rec.row_id);
                    return Status::OK();
                  },
                  &end)
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(end, fs::file_size(path_));

  // The caller's error ends the read at the frame that raised it.
  seen.clear();
  Status s = ScanWal(
      path_,
      [&](WalRecord&& rec) {
        seen.push_back(rec.row_id);
        return rec.row_id == 2 ? Status::Corruption("stop") : Status::OK();
      },
      &end);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(end, 2 * fs::file_size(path_) / 3);
}

// ------------------------------------------ batch sub-records

/// Three sub-records of the kinds a batch holds: an insert, an update with
/// a row id past one varint byte, and a delete with no payload.
std::vector<WalRecord> SampleSubRecords() {
  std::vector<WalRecord> subs(3);
  subs[0].op = WalOp::kInsert;
  subs[0].table = "posts";
  subs[0].row_id = 7;
  subs[0].payload = "image";
  subs[1].op = WalOp::kUpdate;
  subs[1].table = "tasks";
  subs[1].row_id = 300;
  subs[1].payload = std::string(200, 'u');
  subs[2].op = WalOp::kDelete;
  subs[2].table = "tasks";
  subs[2].row_id = 1u << 20;
  return subs;
}

/// The sub-records ForEachSubRecord hands over for `record`, or its error.
Status Collect(const WalRecord& record, std::vector<WalRecord>* out) {
  out->clear();
  return ForEachSubRecord(record, [out](const WalRecord& sub) {
    out->push_back(sub);
    return Status::OK();
  });
}

void ExpectSameRecords(const std::vector<WalRecord>& got,
                       const std::vector<WalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].op, want[i].op) << i;
    EXPECT_EQ(got[i].lsn, 0u) << i;
    EXPECT_EQ(got[i].table, want[i].table) << i;
    EXPECT_EQ(got[i].row_id, want[i].row_id) << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
  }
}

TEST_F(WalTest, BatchSubRecordsOfBothLayoutsDecode) {
  const std::vector<WalRecord> subs = SampleSubRecords();
  ByteWriter v2;
  ByteWriter v1;
  for (const WalRecord& sub : subs) {
    EncodeSubRecord(sub, &v2);
    v1.Str(EncodeWalRecord(sub));  // as older builds framed them
  }
  WalRecord batch;
  batch.op = WalOp::kBatchV2;
  batch.payload = v2.Take();
  // op, varint-length table, varint row id, varint-length payload: the
  // insert takes 1 + 6 + 1 + 6 bytes.
  EXPECT_EQ(batch.payload.substr(0, 14),
            std::string("\x03\x05posts\x07\x05image", 14));
  std::vector<WalRecord> got;
  ASSERT_TRUE(Collect(batch, &got).ok());
  ExpectSameRecords(got, subs);

  WalRecord old;
  old.op = WalOp::kBatch;
  old.payload = v1.Take();
  ASSERT_TRUE(Collect(old, &got).ok());
  ExpectSameRecords(got, subs);

  // A record of any other op is its own one sub-record.
  ASSERT_TRUE(Collect(subs[0], &got).ok());
  ExpectSameRecords(got, {subs[0]});
}

TEST_F(WalTest, MalformedBatchSubRecordsAreCorruption) {
  const std::vector<WalRecord> subs = SampleSubRecords();
  ByteWriter whole;
  std::vector<size_t> ends;  // where each sub-record ends
  for (const WalRecord& sub : subs) {
    EncodeSubRecord(sub, &whole);
    ends.push_back(whole.buffer().size());
  }
  auto batch = [](std::string payload, WalOp op = WalOp::kBatchV2) {
    WalRecord rec;
    rec.op = op;
    rec.payload = std::move(payload);
    return rec;
  };
  std::vector<WalRecord> got;
  // Every cut inside a sub-record; a cut between two is a shorter batch.
  for (size_t cut = 1; cut < whole.buffer().size(); ++cut) {
    Status s = Collect(batch(whole.buffer().substr(0, cut)), &got);
    const bool between =
        std::find(ends.begin(), ends.end(), cut) != ends.end();
    EXPECT_EQ(s.ok(), between) << cut << ": " << s.ToString();
    EXPECT_TRUE(between || s.IsCorruption()) << cut;
  }
  // A row-id varint of 11 bytes, and a table-name length past the end.
  std::string bad_id = std::string("\x03\x01t") + std::string(10, '\x80') +
                       std::string("\x01\x00", 2);
  EXPECT_TRUE(Collect(batch(bad_id), &got).IsCorruption());
  EXPECT_TRUE(Collect(batch(std::string("\x03\x7ft\x01\x00", 5)), &got)
                  .IsCorruption());
  // A table-name length no input could hold: refused, not allocated.
  std::string huge = std::string("\x03") + std::string(9, '\xff') +
                     std::string("\x01", 1);
  EXPECT_TRUE(Collect(batch(huge), &got).IsCorruption());
  // A batch inside a batch, in either layout.
  for (WalOp inner : {WalOp::kBatch, WalOp::kBatchV2}) {
    WalRecord nested = subs[0];
    nested.op = inner;
    ByteWriter w;
    EncodeSubRecord(nested, &w);
    EXPECT_TRUE(Collect(batch(w.Take()), &got).IsCorruption());
  }
  // An old-layout batch cut inside its u32 length or its record.
  ByteWriter v1;
  v1.Str(EncodeWalRecord(subs[0]));
  for (size_t cut = 1; cut < v1.buffer().size(); ++cut) {
    EXPECT_TRUE(Collect(batch(v1.buffer().substr(0, cut), WalOp::kBatch), &got)
                    .IsCorruption())
        << cut;
  }
  // The callback's error ends the walk.
  int calls = 0;
  Status s = ForEachSubRecord(batch(whole.buffer()), [&](const WalRecord&) {
    ++calls;
    return Status::IOError("stop");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
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
