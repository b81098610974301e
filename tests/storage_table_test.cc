#include "storage/table.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "storage/database.h"

namespace itag::storage {
namespace {

Schema UserSchema() {
  return SchemaBuilder()
      .Int("id")
      .Str("name")
      .Real("score", /*nullable=*/true)
      .Build();
}

Row MakeUser(int64_t id, const std::string& name, double score) {
  return {Value::Int(id), Value::Str(name), Value::Real(score)};
}

TEST(SchemaTest, ColumnIndex) {
  Schema s = UserSchema();
  EXPECT_EQ(s.ColumnIndex("id"), 0);
  EXPECT_EQ(s.ColumnIndex("name"), 1);
  EXPECT_EQ(s.ColumnIndex("score"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, ValidateArity) {
  Schema s = UserSchema();
  EXPECT_TRUE(s.Validate(MakeUser(1, "a", 0.5)).ok());
  Status bad = s.Validate({Value::Int(1)});
  EXPECT_TRUE(bad.IsInvalidArgument());
}

TEST(SchemaTest, ValidateTypes) {
  Schema s = UserSchema();
  Status bad = s.Validate({Value::Str("oops"), Value::Str("a"),
                           Value::Real(0.0)});
  EXPECT_TRUE(bad.IsInvalidArgument());
}

TEST(SchemaTest, ValidateNullability) {
  Schema s = UserSchema();
  // score is nullable:
  EXPECT_TRUE(
      s.Validate({Value::Int(1), Value::Str("a"), Value::Null()}).ok());
  // id is not:
  EXPECT_TRUE(s.Validate({Value::Null(), Value::Str("a"), Value::Null()})
                  .IsInvalidArgument());
}

TEST(SchemaTest, EncodeDecodeRoundtrip) {
  Schema s = UserSchema();
  ByteWriter buf;
  s.EncodeTo(&buf);
  ByteReader in(buf.buffer());
  Schema out;
  ASSERT_TRUE(Schema::DecodeFrom(&in, &out));
  EXPECT_TRUE(in.AtEnd());
  ASSERT_EQ(out.num_columns(), 3u);
  EXPECT_EQ(out.column(0).name, "id");
  EXPECT_EQ(out.column(2).type, FieldType::kDouble);
  EXPECT_TRUE(out.column(2).nullable);
  EXPECT_FALSE(out.column(0).nullable);
}

TEST(TableTest, InsertAssignsSequentialIds) {
  Table t("users", UserSchema());
  Result<RowId> a = t.Insert(MakeUser(1, "a", 0.1));
  Result<RowId> b = t.Insert(MakeUser(2, "b", 0.2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value() + 1, b.value());
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("users", UserSchema());
  Result<RowId> bad = t.Insert({Value::Int(1)});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, GetUpdateDelete) {
  Table t("users", UserSchema());
  RowId id = t.Insert(MakeUser(7, "gina", 0.9)).value();
  Result<Row> got = t.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[1], Value::Str("gina"));

  ASSERT_TRUE(t.Update(id, MakeUser(7, "gina2", 1.0)).ok());
  EXPECT_EQ(t.Get(id).value()[1], Value::Str("gina2"));

  ASSERT_TRUE(t.Delete(id).ok());
  EXPECT_TRUE(t.Get(id).status().IsNotFound());
  EXPECT_TRUE(t.Delete(id).IsNotFound());
  EXPECT_TRUE(t.Update(id, MakeUser(7, "x", 0.0)).IsNotFound());
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddUniqueIndex("id").ok());
  ASSERT_TRUE(t.Insert(MakeUser(1, "a", 0.0)).ok());
  Result<RowId> dup = t.Insert(MakeUser(1, "b", 0.0));
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, UniqueIndexLookup) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddUniqueIndex("id").ok());
  RowId a = t.Insert(MakeUser(10, "a", 0.0)).value();
  ASSERT_TRUE(t.Insert(MakeUser(20, "b", 0.0)).ok());
  Result<RowId> hit = t.LookupUnique("id", Value::Int(10));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), a);
  EXPECT_TRUE(t.LookupUnique("id", Value::Int(99)).status().IsNotFound());
  EXPECT_TRUE(t.LookupUnique("name", Value::Str("a")).status().IsNotFound());
}

TEST(TableTest, UniqueIndexBackfillDetectsDuplicates) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.Insert(MakeUser(1, "a", 0.0)).ok());
  ASSERT_TRUE(t.Insert(MakeUser(1, "b", 0.0)).ok());  // no index yet
  EXPECT_TRUE(t.AddUniqueIndex("id").IsAlreadyExists());
}

TEST(TableTest, UniqueIndexFollowsUpdates) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddUniqueIndex("id").ok());
  RowId a = t.Insert(MakeUser(1, "a", 0.0)).value();
  ASSERT_TRUE(t.Insert(MakeUser(2, "b", 0.0)).ok());
  // Updating a's key to b's key must fail.
  EXPECT_TRUE(t.Update(a, MakeUser(2, "a", 0.0)).IsAlreadyExists());
  // Updating to a fresh key frees the old one.
  ASSERT_TRUE(t.Update(a, MakeUser(3, "a", 0.0)).ok());
  EXPECT_TRUE(t.LookupUnique("id", Value::Int(1)).status().IsNotFound());
  EXPECT_TRUE(t.LookupUnique("id", Value::Int(3)).ok());
  // A rewrite that keeps the key and changes another column still finds
  // the row by its key.
  ASSERT_TRUE(t.Update(a, MakeUser(3, "renamed", 1.5)).ok());
  EXPECT_EQ(t.LookupUnique("id", Value::Int(3)).value(), a);
  EXPECT_EQ(t.Get(a).value()[1].as_string(), "renamed");
}

/// A row heap that counts its calls and can be told to fail its next
/// write, in front of the in-memory heap.
class CountingRowStore : public RowStore {
 public:
  Result<Row> Get(RowId id) const override {
    ++calls;
    return inner_.Get(id);
  }
  bool Contains(RowId id) const override {
    ++calls;
    return inner_.Contains(id);
  }
  Status Put(RowId id, const Row& row) override {
    ++calls;
    if (fail_writes) return Status::IOError("injected");
    return inner_.Put(id, row);
  }
  Result<Row> Replace(RowId id, const Row& row) override {
    ++calls;
    if (fail_writes) return Status::IOError("injected");
    return inner_.Replace(id, row);
  }
  Result<Row> Erase(RowId id) override {
    ++calls;
    if (fail_writes) return Status::IOError("injected");
    return inner_.Erase(id);
  }
  uint64_t size() const override { return inner_.size(); }
  Status Scan(
      const std::function<bool(RowId, const Row&)>& fn) const override {
    ++calls;
    return inner_.Scan(fn);
  }

  mutable int calls = 0;
  bool fail_writes = false;

 private:
  MemRowStore inner_;
};

class TableStoreCallsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = std::make_unique<CountingRowStore>();
    store_ = store.get();
    table_ = std::make_unique<Table>("users", UserSchema(), std::move(store),
                                     RowId{1});
    ASSERT_TRUE(table_->AddUniqueIndex("id").ok());
    ASSERT_TRUE(table_->AddOrderedIndex("name").ok());
    a_ = table_->Insert(MakeUser(1, "ann", 0.0)).value();
    b_ = table_->Insert(MakeUser(2, "bob", 0.0)).value();
    store_->calls = 0;
  }

  /// Both index kinds still describe rows a (1, "ann") and b (2, "bob").
  void ExpectIndexesUnchanged() {
    EXPECT_EQ(table_->LookupUnique("id", Value::Int(1)).value(), a_);
    EXPECT_EQ(table_->LookupUnique("id", Value::Int(2)).value(), b_);
    EXPECT_TRUE(table_->LookupUnique("id", Value::Int(3)).status().IsNotFound());
    EXPECT_EQ(table_->LookupEqual("name", Value::Str("ann")),
              std::vector<RowId>{a_});
    EXPECT_EQ(table_->LookupEqual("name", Value::Str("bob")),
              std::vector<RowId>{b_});
    EXPECT_TRUE(table_->LookupEqual("name", Value::Str("cy")).empty());
  }

  CountingRowStore* store_ = nullptr;
  std::unique_ptr<Table> table_;
  RowId a_ = 0;
  RowId b_ = 0;
};

// The heap's write hands back the row it replaced or removed, so an update
// and a delete each make one heap call, not a read and then a write.
TEST_F(TableStoreCallsTest, UpdateAndDeleteMakeOneStoreCallEach) {
  ASSERT_TRUE(table_->Update(a_, MakeUser(3, "cy", 1.0)).ok());
  EXPECT_EQ(store_->calls, 1);
  EXPECT_EQ(table_->LookupUnique("id", Value::Int(3)).value(), a_);
  EXPECT_TRUE(table_->LookupUnique("id", Value::Int(1)).status().IsNotFound());
  EXPECT_EQ(table_->LookupEqual("name", Value::Str("cy")),
            std::vector<RowId>{a_});
  store_->calls = 0;
  ASSERT_TRUE(table_->Delete(a_).ok());
  EXPECT_EQ(store_->calls, 1);
  EXPECT_TRUE(table_->LookupUnique("id", Value::Int(3)).status().IsNotFound());
  EXPECT_TRUE(table_->LookupEqual("name", Value::Str("cy")).empty());
  EXPECT_EQ(table_->row_count(), 1u);
}

// An absent id answers NotFound and inserts nothing, even when the new key
// is taken: replay tolerates AlreadyExists, so NotFound must win.
TEST_F(TableStoreCallsTest, AbsentIdAnswersNotFoundAndInsertsNothing) {
  EXPECT_TRUE(table_->Update(99, MakeUser(7, "zed", 0.0)).IsNotFound());
  EXPECT_TRUE(table_->Update(99, MakeUser(2, "zed", 0.0)).IsNotFound());
  EXPECT_TRUE(table_->Delete(99).IsNotFound());
  EXPECT_EQ(table_->row_count(), 2u);
  EXPECT_TRUE(table_->Get(99).status().IsNotFound());
  EXPECT_TRUE(table_->LookupUnique("id", Value::Int(7)).status().IsNotFound());
  ExpectIndexesUnchanged();
  // A present id whose new key is taken still answers AlreadyExists.
  EXPECT_TRUE(table_->Update(a_, MakeUser(2, "ann", 0.0)).IsAlreadyExists());
  ExpectIndexesUnchanged();
}

// The heap write comes before any index moves, so a failed write leaves
// both index kinds as they were.
TEST_F(TableStoreCallsTest, FailedHeapWriteLeavesIndexesAsTheyWere) {
  store_->fail_writes = true;
  EXPECT_EQ(table_->Update(a_, MakeUser(3, "cy", 0.0)).code(),
            StatusCode::kIOError);
  ExpectIndexesUnchanged();
  EXPECT_EQ(table_->Delete(b_).code(), StatusCode::kIOError);
  ExpectIndexesUnchanged();
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST(TableTest, OrderedIndexEqualLookup) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddOrderedIndex("name").ok());
  RowId a = t.Insert(MakeUser(1, "bob", 0.0)).value();
  RowId b = t.Insert(MakeUser(2, "bob", 0.0)).value();
  ASSERT_TRUE(t.Insert(MakeUser(3, "eve", 0.0)).ok());
  std::vector<RowId> hits = t.LookupEqual("name", Value::Str("bob"));
  EXPECT_EQ(hits, (std::vector<RowId>{a, b}));
  EXPECT_TRUE(t.LookupEqual("name", Value::Str("zed")).empty());
}

TEST(TableTest, OrderedIndexRangeLookup) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddOrderedIndex("id").ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(t.Insert(MakeUser(i, "u", 0.0)).value());
  }
  std::vector<RowId> hits =
      t.LookupRange("id", Value::Int(3), Value::Int(7));
  EXPECT_EQ(hits, (std::vector<RowId>{rows[3], rows[4], rows[5], rows[6]}));
}

TEST(TableTest, LookupWithoutIndexFallsBackToScan) {
  Table t("users", UserSchema());
  RowId a = t.Insert(MakeUser(5, "x", 0.0)).value();
  ASSERT_TRUE(t.Insert(MakeUser(6, "y", 0.0)).ok());
  std::vector<RowId> hits = t.LookupEqual("id", Value::Int(5));
  EXPECT_EQ(hits, (std::vector<RowId>{a}));
  std::vector<RowId> range = t.LookupRange("id", Value::Int(5), Value::Int(6));
  EXPECT_EQ(range, (std::vector<RowId>{a}));
}

TEST(TableTest, OrderedIndexDeclaredLateBackfills) {
  Table t("users", UserSchema());
  RowId a = t.Insert(MakeUser(1, "late", 0.0)).value();
  ASSERT_TRUE(t.AddOrderedIndex("name").ok());
  EXPECT_EQ(t.LookupEqual("name", Value::Str("late")),
            (std::vector<RowId>{a}));
}

TEST(TableTest, IndexesFollowDeletes) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddOrderedIndex("name").ok());
  RowId a = t.Insert(MakeUser(1, "dup", 0.0)).value();
  RowId b = t.Insert(MakeUser(2, "dup", 0.0)).value();
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_EQ(t.LookupEqual("name", Value::Str("dup")),
            (std::vector<RowId>{b}));
}

TEST(TableTest, ScanVisitsInRowIdOrder) {
  Table t("users", UserSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.Insert(MakeUser(i, "u", 0.0)).ok());
  }
  RowId prev = 0;
  EXPECT_TRUE(t.Scan([&](RowId id, const Row& row) {
    (void)row;
    EXPECT_GT(id, prev);
    prev = id;
    return true;
  }).ok());
}

TEST(TableTest, CountWhere) {
  Table t("users", UserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(MakeUser(i, i % 2 ? "odd" : "even", 0.0)).ok());
  }
  EXPECT_EQ(t.CountWhere([](const Row& r) {
    return r[1] == Value::Str("odd");
  }), 5u);
}

TEST(TableTest, EncodeDecodeRoundtripWithIndexes) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddUniqueIndex("id").ok());
  ASSERT_TRUE(t.AddOrderedIndex("name").ok());
  RowId a = t.Insert(MakeUser(1, "alpha", 0.5)).value();
  ASSERT_TRUE(t.Insert(MakeUser(2, "beta", 0.6)).ok());
  ASSERT_TRUE(t.Delete(a).ok());
  RowId c = t.Insert(MakeUser(3, "alpha", 0.7)).value();

  ByteWriter buf;
  t.EncodeTo(&buf);
  ByteReader in(buf.buffer());
  Table out("", Schema());
  ASSERT_TRUE(Table::DecodeFrom(&in, &out));
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(out.name(), "users");
  EXPECT_EQ(out.row_count(), 2u);
  // Unique index is live after decode.
  EXPECT_TRUE(out.LookupUnique("id", Value::Int(3)).ok());
  EXPECT_TRUE(out.Insert(MakeUser(2, "dup", 0.0)).status().IsAlreadyExists());
  // Ordered index is live after decode.
  EXPECT_EQ(out.LookupEqual("name", Value::Str("alpha")),
            (std::vector<RowId>{c}));
  // Row ids keep counting from where they were.
  RowId d = out.Insert(MakeUser(9, "new", 0.0)).value();
  EXPECT_GT(d, c);
}

TEST(TableTest, IndexKeyOrdering) {
  // The composite (Value, RowId) key of ordered indexes must order by value
  // first, then row id.
  std::set<IndexKey> keys{{Value::Int(2), 1},
                          {Value::Int(1), 9},
                          {Value::Int(1), 3},
                          {Value::Int(2), 0}};
  std::vector<std::pair<int64_t, RowId>> out;
  for (const IndexKey& k : keys) out.emplace_back(k.value.as_int(), k.row_id);
  EXPECT_EQ(out, (std::vector<std::pair<int64_t, RowId>>{
                     {1, 3}, {1, 9}, {2, 0}, {2, 1}}));
}

// ------------------------------------------------------ InsertWithId contract

/// InsertWithId is the insert of WAL replay and replication. Its contract
/// holds on both row heaps: the in-memory map of a plain Table, and the
/// paged B+tree of a table created on a paged Database.
class InsertWithIdTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) {
      mem_ = std::make_unique<Table>("t", UserSchema());
      table_ = mem_.get();
    } else {
      dir_ = (std::filesystem::temp_directory_path() /
              ("itag_insert_with_id." + std::to_string(::getpid())))
                 .string();
      std::filesystem::remove_all(dir_);
      DatabaseOptions opts;
      opts.directory = dir_;
      opts.paged = true;
      opts.page_size = 512;
      ASSERT_TRUE(db_.Open(opts).ok());
      ASSERT_TRUE(db_.CreateTable("t", UserSchema()).ok());
      table_ = db_.GetTable("t");
    }
    ASSERT_TRUE(table_->AddUniqueIndex("id").ok());
    ASSERT_TRUE(table_->AddOrderedIndex("name").ok());
    for (int64_t i = 1; i <= 3; ++i) {
      ASSERT_EQ(table_->Insert(MakeUser(i, "u" + std::to_string(i), 0.5))
                    .value(),
                static_cast<RowId>(i));
    }
    ASSERT_EQ(table_->next_row_id(), 4u);
  }
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  Database db_;
  std::unique_ptr<Table> mem_;
  Table* table_ = nullptr;
};

TEST_P(InsertWithIdTest, TakenIdBelowNextRowIdIsRefusedAndKept) {
  Status s = table_->InsertWithId(2, MakeUser(20, "other", 1.0));
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
  EXPECT_EQ(table_->Get(2).value(), MakeUser(2, "u2", 0.5));
  EXPECT_EQ(table_->row_count(), 3u);
  EXPECT_EQ(table_->next_row_id(), 4u);
  EXPECT_FALSE(table_->FindUnique(Value::Int(20)).has_value());
  EXPECT_TRUE(table_->LookupEqual("name", Value::Str("other")).empty());
}

TEST_P(InsertWithIdTest, DeletedRowsIdInsertsAgain) {
  ASSERT_TRUE(table_->Delete(2).ok());
  ASSERT_TRUE(table_->InsertWithId(2, MakeUser(22, "again", 1.0)).ok());
  EXPECT_EQ(table_->Get(2).value(), MakeUser(22, "again", 1.0));
  EXPECT_EQ(table_->row_count(), 3u);
  EXPECT_EQ(table_->next_row_id(), 4u);
  EXPECT_EQ(table_->FindUnique(Value::Int(22)), std::optional<RowId>(2));
  EXPECT_EQ(table_->LookupEqual("name", Value::Str("again")),
            std::vector<RowId>{2});
}

TEST_P(InsertWithIdTest, IdAtOrPastNextRowIdInsertsAndMovesTheCounter) {
  ASSERT_TRUE(table_->InsertWithId(4, MakeUser(4, "at", 1.0)).ok());
  EXPECT_EQ(table_->next_row_id(), 5u);
  ASSERT_TRUE(table_->InsertWithId(10, MakeUser(10, "past", 1.0)).ok());
  EXPECT_EQ(table_->next_row_id(), 11u);
  EXPECT_EQ(table_->Get(4).value(), MakeUser(4, "at", 1.0));
  EXPECT_EQ(table_->Get(10).value(), MakeUser(10, "past", 1.0));
  EXPECT_EQ(table_->row_count(), 5u);
  EXPECT_EQ(table_->LookupEqual("name", Value::Str("past")),
            std::vector<RowId>{10});
  // The next plain insert continues past the replayed id.
  EXPECT_EQ(table_->Insert(MakeUser(11, "next", 1.0)).value(), 11u);
}

TEST_P(InsertWithIdTest, FreshIdWithATakenKeyIsRefused) {
  Status s = table_->InsertWithId(7, MakeUser(3, "dup", 1.0));
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
  EXPECT_FALSE(table_->Get(7).ok());
  EXPECT_EQ(table_->row_count(), 3u);
  EXPECT_EQ(table_->next_row_id(), 4u);
  EXPECT_EQ(table_->FindUnique(Value::Int(3)), std::optional<RowId>(3));
}

INSTANTIATE_TEST_SUITE_P(Heaps, InsertWithIdTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Paged" : "Mem");
                         });

// ------------------------------------------------------ ordered-index oracle

/// When the ordered indexes come into being relative to the rows.
enum class IndexDeclared {
  kBeforeRows,      ///< declared on the empty table
  kAfterRows,       ///< declared half way, backfilled from existing rows
  kAfterRoundTrip,  ///< declared first, then rebuilt by EncodeTo/DecodeFrom
};

/// Seeded random inserts, updates and deletes on two indexed columns: a
/// nullable int with many duplicates and a short string. After every step,
/// every LookupEqual and a set of LookupRange calls must match a full scan
/// of a reference copy of the rows, ordered by (value, row id).
class OrderedIndexOracleTest : public ::testing::TestWithParam<IndexDeclared> {
 protected:
  static constexpr int kSteps = 400;

  static Schema OracleSchema() {
    return SchemaBuilder().Int("k", /*nullable=*/true).Str("tag").Build();
  }

  /// Probe values for column `col`: NULL (which sorts first), every value
  /// RandomRow draws, and for "tag" some it never draws.
  static std::vector<Value> Domain(int col) {
    std::vector<Value> values{Value::Null()};
    for (int i = 0; i < 12; ++i) {
      values.push_back(col == 0 ? Value::Int(i)
                                : Value::Str(std::string(1, 'a' + i)));
    }
    return values;
  }

  Row RandomRow() {
    Value k = rng_.Uniform(8) == 0 ? Value::Null()
                                    : Value::Int(rng_.Uniform(12));
    return {k, Value::Str(std::string(1, 'a' + rng_.Uniform(6)))};
  }

  void DeclareIndexes(Table* t) {
    ASSERT_TRUE(t->AddOrderedIndex("k").ok());
    ASSERT_TRUE(t->AddOrderedIndex("tag").ok());
  }

  void Mutate(Table* t) {
    const uint32_t op = rng_.Uniform(4);
    if (rows_.empty() || op < 2) {
      Row row = RandomRow();
      Result<RowId> id = t->Insert(row);
      ASSERT_TRUE(id.ok());
      rows_[id.value()] = row;
      return;
    }
    auto it = std::next(rows_.begin(),
                        rng_.Uniform(static_cast<uint32_t>(rows_.size())));
    if (op == 2) {
      Row row = RandomRow();
      ASSERT_TRUE(t->Update(it->first, row).ok());
      it->second = row;
    } else {
      ASSERT_TRUE(t->Delete(it->first).ok());
      rows_.erase(it);
    }
  }

  /// Ids of reference rows with lo <= row[col] < hi, in (value, id) order.
  std::vector<RowId> ScanRange(int col, const Value& lo,
                               const Value& hi) const {
    std::vector<std::pair<Value, RowId>> hits;
    for (const auto& [id, row] : rows_) {
      if (!(row[col] < lo) && row[col] < hi) hits.emplace_back(row[col], id);
    }
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      if (a.first < b.first) return true;
      if (b.first < a.first) return false;
      return a.second < b.second;
    });
    std::vector<RowId> ids;
    for (const auto& hit : hits) ids.push_back(hit.second);
    return ids;
  }

  std::vector<RowId> ScanEqual(int col, const Value& v) const {
    std::vector<RowId> ids;
    for (const auto& [id, row] : rows_) {
      if (row[col] == v) ids.push_back(id);
    }
    return ids;
  }

  void CheckAgainstScan(const Table& t, int step) {
    for (int col : {0, 1}) {
      const std::string& name = t.schema().column(col).name;
      const std::vector<Value> domain = Domain(col);
      for (const Value& v : domain) {
        EXPECT_EQ(t.LookupEqual(name, v), ScanEqual(col, v))
            << "step " << step << ": " << name << " = " << v.ToString();
      }
      for (int i = 0; i < 4; ++i) {
        const Value& lo = domain[rng_.Uniform(domain.size())];
        const Value& hi = domain[rng_.Uniform(domain.size())];
        EXPECT_EQ(t.LookupRange(name, lo, hi), ScanRange(col, lo, hi))
            << "step " << step << ": " << lo.ToString() << " <= " << name
            << " < " << hi.ToString();
      }
      const Value past_all = col == 0 ? Value::Int(99) : Value::Str("z");
      EXPECT_EQ(t.LookupRange(name, Value::Null(), past_all),
                ScanRange(col, Value::Null(), past_all))
          << "step " << step << ": all of " << name;
    }
  }

  Rng rng_{20260418};
  std::map<RowId, Row> rows_;  // reference copy of the table
};

TEST_P(OrderedIndexOracleTest, LookupsMatchAFullScan) {
  auto table = std::make_unique<Table>("t", OracleSchema());
  if (GetParam() != IndexDeclared::kAfterRows) DeclareIndexes(table.get());
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2 && GetParam() == IndexDeclared::kAfterRows) {
      DeclareIndexes(table.get());
    }
    if (step == kSteps / 2 && GetParam() == IndexDeclared::kAfterRoundTrip) {
      ByteWriter buf;
      table->EncodeTo(&buf);
      ByteReader in(buf.buffer());
      auto decoded = std::make_unique<Table>("", Schema());
      ASSERT_TRUE(Table::DecodeFrom(&in, decoded.get()));
      table = std::move(decoded);
    }
    Mutate(table.get());
    CheckAgainstScan(*table, step);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  EXPECT_GT(rows_.size(), 20u);  // the walk grew a table worth indexing
}

INSTANTIATE_TEST_SUITE_P(
    Declared, OrderedIndexOracleTest,
    ::testing::Values(IndexDeclared::kBeforeRows, IndexDeclared::kAfterRows,
                      IndexDeclared::kAfterRoundTrip),
    [](const ::testing::TestParamInfo<IndexDeclared>& info) -> std::string {
      switch (info.param) {
        case IndexDeclared::kBeforeRows:
          return "BeforeRows";
        case IndexDeclared::kAfterRows:
          return "AfterRows";
        case IndexDeclared::kAfterRoundTrip:
          return "AfterRoundTrip";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace itag::storage
