#include "storage/table.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

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
    a_ = table_->Insert(MakeUser(1, "ann", 0.0)).value();
    b_ = table_->Insert(MakeUser(2, "bob", 0.0)).value();
    store_->calls = 0;
  }

  /// The unique index and the heap still hold rows a (1, "ann") and
  /// b (2, "bob").
  void ExpectIndexesUnchanged() {
    EXPECT_EQ(table_->LookupUnique("id", Value::Int(1)).value(), a_);
    EXPECT_EQ(table_->LookupUnique("id", Value::Int(2)).value(), b_);
    EXPECT_TRUE(table_->LookupUnique("id", Value::Int(3)).status().IsNotFound());
    EXPECT_EQ(table_->Get(a_).value(), MakeUser(1, "ann", 0.0));
    EXPECT_EQ(table_->Get(b_).value(), MakeUser(2, "bob", 0.0));
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
  store_->calls = 0;
  ASSERT_TRUE(table_->Delete(a_).ok());
  EXPECT_EQ(store_->calls, 1);
  EXPECT_TRUE(table_->LookupUnique("id", Value::Int(3)).status().IsNotFound());
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

// The heap write comes before the index moves, so a failed write leaves
// the index and the rows as they were.
TEST_F(TableStoreCallsTest, FailedHeapWriteLeavesIndexesAsTheyWere) {
  store_->fail_writes = true;
  EXPECT_EQ(table_->Update(a_, MakeUser(3, "cy", 0.0)).code(),
            StatusCode::kIOError);
  ExpectIndexesUnchanged();
  EXPECT_EQ(table_->Delete(b_).code(), StatusCode::kIOError);
  ExpectIndexesUnchanged();
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST(TableTest, IndexesFollowDeletes) {
  Table t("users", UserSchema());
  ASSERT_TRUE(t.AddUniqueIndex("id").ok());
  RowId a = t.Insert(MakeUser(1, "dup", 0.0)).value();
  RowId b = t.Insert(MakeUser(2, "dup", 0.0)).value();
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_TRUE(t.LookupUnique("id", Value::Int(1)).status().IsNotFound());
  EXPECT_EQ(t.LookupUnique("id", Value::Int(2)).value(), b);
  // The deleted row's key is free again; the new row gets a new id.
  RowId c = t.Insert(MakeUser(1, "again", 0.0)).value();
  EXPECT_GT(c, b);
  EXPECT_EQ(t.LookupUnique("id", Value::Int(1)).value(), c);
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
  EXPECT_EQ(out.LookupUnique("id", Value::Int(3)).value(), c);
  EXPECT_TRUE(out.Insert(MakeUser(2, "dup", 0.0)).status().IsAlreadyExists());
  EXPECT_EQ(out.Get(c).value(), MakeUser(3, "alpha", 0.7));
  // Row ids keep counting from where they were.
  RowId d = out.Insert(MakeUser(9, "new", 0.0)).value();
  EXPECT_GT(d, c);
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
}

TEST_P(InsertWithIdTest, DeletedRowsIdInsertsAgain) {
  ASSERT_TRUE(table_->Delete(2).ok());
  ASSERT_TRUE(table_->InsertWithId(2, MakeUser(22, "again", 1.0)).ok());
  EXPECT_EQ(table_->Get(2).value(), MakeUser(22, "again", 1.0));
  EXPECT_EQ(table_->row_count(), 3u);
  EXPECT_EQ(table_->next_row_id(), 4u);
  EXPECT_EQ(table_->FindUnique(Value::Int(22)), std::optional<RowId>(2));
  EXPECT_FALSE(table_->FindUnique(Value::Int(2)).has_value());
}

TEST_P(InsertWithIdTest, IdAtOrPastNextRowIdInsertsAndMovesTheCounter) {
  ASSERT_TRUE(table_->InsertWithId(4, MakeUser(4, "at", 1.0)).ok());
  EXPECT_EQ(table_->next_row_id(), 5u);
  ASSERT_TRUE(table_->InsertWithId(10, MakeUser(10, "past", 1.0)).ok());
  EXPECT_EQ(table_->next_row_id(), 11u);
  EXPECT_EQ(table_->Get(4).value(), MakeUser(4, "at", 1.0));
  EXPECT_EQ(table_->Get(10).value(), MakeUser(10, "past", 1.0));
  EXPECT_EQ(table_->row_count(), 5u);
  EXPECT_EQ(table_->FindUnique(Value::Int(10)), std::optional<RowId>(10));
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

}  // namespace
}  // namespace itag::storage
