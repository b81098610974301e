#include "storage/database.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/pager/paged_engine.h"

namespace itag::storage {
namespace {

namespace fs = std::filesystem;

Schema KvSchema() { return SchemaBuilder().Int("k").Str("v").Build(); }

Row Kv(int64_t k, const std::string& v) {
  return {Value::Int(k), Value::Str(v)};
}

/// Dumps a table to a row-id-keyed map for equivalence checks.
std::map<RowId, Row> Dump(const Database& db, const std::string& table) {
  std::map<RowId, Row> out;
  const Table* t = db.GetTable(table);
  if (t == nullptr) return out;
  EXPECT_TRUE(t->Scan([&](RowId id, const Row& row) {
    out[id] = row;
    return true;
  }).ok());
  return out;
}

class PagedDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("itag_paged_db_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Paged options with small pages and a small cache so even these short
  /// tests overflow single nodes and force eviction.
  DatabaseOptions PagedOpts() {
    DatabaseOptions o;
    o.directory = dir_;
    o.paged = true;
    o.page_size = 512;
    o.page_cache_mb = 0;  // floored to one page frame: maximum eviction
    return o;
  }

  std::string dir_;
};

TEST_F(PagedDatabaseTest, OpensInPagedModeAndReportsIt) {
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  EXPECT_TRUE(db.paged());
  EXPECT_TRUE(db.durable());
  ASSERT_NE(db.engine(), nullptr);
  // In-memory mode never constructs the engine.
  Database mem;
  ASSERT_TRUE(mem.Open(DatabaseOptions{}).ok());
  EXPECT_FALSE(mem.paged());
  EXPECT_EQ(mem.engine(), nullptr);
}

TEST_F(PagedDatabaseTest, MatchesInMemoryDatabaseUnderMixedWorkload) {
  Database paged, mem;
  ASSERT_TRUE(paged.Open(PagedOpts()).ok());
  ASSERT_TRUE(mem.Open(DatabaseOptions{}).ok());

  for (Database* db : {&paged, &mem}) {
    ASSERT_TRUE(db->CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db->AddUniqueIndex("t", "k").ok());
  }

  // The same op sequence against both engines, including failures (unique
  // violations) which must fail identically.
  std::mt19937 rng(77);
  std::vector<RowId> ids_paged, ids_mem;
  for (int op = 0; op < 800; ++op) {
    int action = static_cast<int>(rng() % 10);
    int64_t k = static_cast<int64_t>(rng() % 200);
    std::string v = "val-" + std::to_string(rng() % 1000);
    if (action < 6 || ids_paged.empty()) {
      Result<RowId> a = paged.Insert("t", Kv(k, v));
      Result<RowId> b = mem.Insert("t", Kv(k, v));
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        ASSERT_EQ(a.value(), b.value());
        ids_paged.push_back(a.value());
        ids_mem.push_back(b.value());
      }
    } else if (action < 8) {
      size_t i = rng() % ids_paged.size();
      Status a = paged.Update("t", ids_paged[i], Kv(k + 1000, v));
      Status b = mem.Update("t", ids_mem[i], Kv(k + 1000, v));
      ASSERT_EQ(a.ok(), b.ok()) << a.ToString() << " vs " << b.ToString();
    } else {
      size_t i = rng() % ids_paged.size();
      Status a = paged.Delete("t", ids_paged[i]);
      Status b = mem.Delete("t", ids_mem[i]);
      ASSERT_EQ(a.ok(), b.ok());
    }
  }
  EXPECT_EQ(Dump(paged, "t"), Dump(mem, "t"));
  EXPECT_EQ(paged.GetTable("t")->row_count(), mem.GetTable("t")->row_count());
  // Unique-index lookups agree too (they are in-memory on both paths).
  for (int64_t k = 0; k < 1200; ++k) {
    EXPECT_EQ(paged.GetTable("t")->FindUnique(Value::Int(k)),
              mem.GetTable("t")->FindUnique(Value::Int(k)));
  }
}

TEST_F(PagedDatabaseTest, CleanRestartReplaysNoWal) {
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "v" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  // O(1) restart: the checkpoint made the WAL redundant; nothing is scanned
  // and nothing is replayed — state comes from the page file's catalog.
  EXPECT_EQ(db.recovery_stats().wal_records_scanned, 0u);
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 0u);
  EXPECT_EQ(db.recovery_stats().wal_bytes_scanned, 0u);
  ASSERT_NE(db.GetTable("t"), nullptr);
  EXPECT_EQ(db.GetTable("t")->row_count(), 200u);
  EXPECT_EQ(db.GetTable("t")->Get(1).value()[1].as_string(), "v0");
}

TEST_F(PagedDatabaseTest, CrashReplaysOnlyTheTailPastCheckpoint) {
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "pre")).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    // Post-checkpoint tail: 5 frames. No second checkpoint = a crash.
    for (int i = 100; i < 105; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "post")).ok());
    }
  }
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  // Bounded recovery: exactly the 5-frame tail, not the 101 pre-checkpoint
  // frames.
  EXPECT_EQ(db.recovery_stats().wal_records_scanned, 5u);
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 5u);
  EXPECT_EQ(db.GetTable("t")->row_count(), 105u);
}

TEST_F(PagedDatabaseTest, StaleWalFramesBelowCheckpointLsnAreSkipped) {
  DatabaseOptions opts = PagedOpts();
  std::string wal_backup;
  {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "x")).ok());
    }
    // Capture the WAL as it looks right before the checkpoint, then
    // checkpoint (which truncates it).
    std::ifstream in(dir_ + "/wal.log", std::ios::binary);
    wal_backup.assign(std::istreambuf_iterator<char>(in), {});
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Simulate a crash between Pager::Commit and WAL truncation: restore the
  // pre-checkpoint WAL alongside the committed page file.
  {
    std::ofstream out(dir_ + "/wal.log", std::ios::binary | std::ios::trunc);
    out << wal_backup;
  }
  Database db;
  ASSERT_TRUE(db.Open(opts).ok());
  // All frames are scanned (they are in the file) but every one carries an
  // LSN at or below the checkpoint, so none replays — no double-apply.
  EXPECT_EQ(db.recovery_stats().wal_records_scanned, 11u);
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 0u);
  EXPECT_EQ(db.GetTable("t")->row_count(), 10u);
}

TEST_F(PagedDatabaseTest, RowIdsAndRowCountsSurviveCheckpointReopen) {
  RowId last;
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 30; ++i) {
      last = db.Insert("t", Kv(i, "x")).value();
    }
    ASSERT_TRUE(db.Delete("t", last).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 29u);
  EXPECT_EQ(db.TotalRows(), 29u);
  // next_row_id was persisted in the catalog: fresh ids never collide with
  // deleted ones.
  RowId next = db.Insert("t", Kv(99, "new")).value();
  EXPECT_GT(next, last);
}

TEST_F(PagedDatabaseTest, BatchReplaysAtomicallyThroughPagedRecovery) {
  uint64_t before_batch = 0;
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "keep")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    before_batch = fs::file_size(dir_ + "/wal.log");
    BatchScope batch(&db);
    ASSERT_TRUE(db.Insert("t", Kv(2, "gone")).ok());
    ASSERT_TRUE(db.Insert("t", Kv(3, "gone-too")).ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  // Tear the WAL mid-batch: paged recovery must land on the checkpoint
  // image plus zero batch effects — never half a group.
  uint64_t size = fs::file_size(dir_ + "/wal.log");
  ASSERT_GT(size, before_batch + 1);
  fs::resize_file(dir_ + "/wal.log", before_batch + (size - before_batch) / 2);
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 0u);
  ASSERT_EQ(db.GetTable("t")->row_count(), 1u);
  EXPECT_EQ(db.GetTable("t")->Get(1).value()[1].as_string(), "keep");
}

TEST_F(PagedDatabaseTest, DropTableSurvivesPagedRecovery) {
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("gone", KvSchema()).ok());
    ASSERT_TRUE(db.CreateTable("kept", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("gone", Kv(1, "x")).ok());
    ASSERT_TRUE(db.Insert("kept", Kv(1, "y")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.DropTable("gone").ok());  // post-checkpoint, WAL only
  }
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  EXPECT_EQ(db.GetTable("gone"), nullptr);
  ASSERT_NE(db.GetTable("kept"), nullptr);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"kept"}));
  // A second checkpoint + reopen persists the drop in the catalog itself.
  ASSERT_TRUE(db.Checkpoint().ok());
  Database again;
  ASSERT_TRUE(again.Open(PagedOpts()).ok());
  EXPECT_EQ(again.GetTable("gone"), nullptr);
  EXPECT_EQ(again.GetTable("kept")->row_count(), 1u);
}

TEST_F(PagedDatabaseTest, RecoveredPagedTablesAcceptIndexes) {
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(db.Insert("t", Kv(1, "a")).ok());
    ASSERT_TRUE(db.Insert("t", Kv(2, "b")).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  // Index declaration scans the paged store to build the in-memory index.
  ASSERT_TRUE(db.AddUniqueIndex("t", "k").ok());
  EXPECT_TRUE(db.Insert("t", Kv(2, "dup")).status().IsAlreadyExists());
  EXPECT_EQ(db.GetTable("t")->FindUnique(Value::Int(1)),
            std::optional<RowId>(1));
}

// A scan reports a stored row that does not decode, as Get does, rather
// than stopping early as if the table ended there: recovery reads whole
// tables through Scan.
TEST_F(PagedDatabaseTest, ScanReportsAStoredRowThatDoesNotDecode) {
  Database db;
  ASSERT_TRUE(db.Open(PagedOpts()).ok());
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  ASSERT_TRUE(db.Insert("t", Kv(1, "a")).ok());
  ASSERT_TRUE(db.Insert("t", Kv(2, "b")).ok());
  ASSERT_TRUE(
      db.engine()->GetTable("t")->tree->Put(2, "\xff\xff").ok());
  std::vector<RowId> seen;
  Status s = db.GetTable("t")->Scan([&](RowId id, const Row&) {
    seen.push_back(id);
    return true;
  });
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(seen, std::vector<RowId>{1});
  EXPECT_TRUE(db.GetTable("t")->Get(2).status().IsCorruption());
}

TEST_F(PagedDatabaseTest, ManyCheckpointCyclesReclaimPages) {
  DatabaseOptions opts = PagedOpts();
  uint32_t pages_after_first_cycles = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    if (cycle == 0) {
      ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    }
    // Churn: overwrite the same logical rows each cycle.
    Table* t = db.GetTable("t");
    std::vector<RowId> ids;
    EXPECT_TRUE(t->Scan([&](RowId id, const Row&) {
      ids.push_back(id);
      return true;
    }).ok());
    for (RowId id : ids) {
      ASSERT_TRUE(db.Delete("t", id).ok());
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "cycle" + std::to_string(cycle))).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    if (cycle == 3) {
      pages_after_first_cycles = db.engine()->pager()->page_count();
    }
  }
  Database db;
  ASSERT_TRUE(db.Open(opts).ok());
  EXPECT_EQ(db.GetTable("t")->row_count(), 40u);
  // COW + free-list recycling keeps the file from growing without bound:
  // eight more identical cycles may not even double the page count.
  EXPECT_LT(db.engine()->pager()->page_count(), 2 * pages_after_first_cycles);
}

TEST_F(PagedDatabaseTest, TornPageFileSurfacesAsTypedCorruption) {
  {
    Database db;
    ASSERT_TRUE(db.Open(PagedOpts()).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Insert("t", Kv(i, "payload-" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Smash every data page (leave the two meta slots alone): whatever Open
  // touches first — catalog chain or tree root — must fail with a typed
  // Corruption, never undefined behaviour.
  {
    std::fstream f(dir_ + "/pages.db",
                   std::ios::in | std::ios::out | std::ios::binary);
    uint64_t size = fs::file_size(dir_ + "/pages.db");
    std::vector<char> junk(512, '\x5a');
    for (uint64_t off = 2 * 512; off < size; off += 512) {
      f.seekp(static_cast<std::streamoff>(off));
      f.write(junk.data(), static_cast<std::streamsize>(
                               std::min<uint64_t>(512, size - off)));
    }
  }
  Database db;
  Status s = db.Open(PagedOpts());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(PagedDatabaseTest, LargeValuesAndTinyCacheStillRoundTrip) {
  DatabaseOptions opts = PagedOpts();
  std::string big(3000, 'q');  // overflow chains several pages long
  {
    Database db;
    ASSERT_TRUE(db.Open(opts).ok());
    ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          db.Insert("t", Kv(i, big + std::to_string(i))).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_GT(db.engine()->cache()->stats().evictions, 0u);
  }
  Database db;
  ASSERT_TRUE(db.Open(opts).ok());
  ASSERT_EQ(db.GetTable("t")->row_count(), 20u);
  size_t seen = 0;
  EXPECT_TRUE(db.GetTable("t")->Scan([&](RowId, const Row& row) {
    EXPECT_EQ(row[1].as_string().size(), big.size() + std::to_string(seen).size());
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 20u);
}

}  // namespace
}  // namespace itag::storage
