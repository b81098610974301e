#ifndef ITAG_STORAGE_TABLE_H_
#define ITAG_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "storage/row_store.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace itag::storage {

/// One heap table: schema-validated rows addressed by RowId, with an optional
/// unique hash index. There are no other indexes: a reader that wants the
/// rows with some other column value scans the table, in ascending RowId.
///
/// The Table itself is storage-only; durability is layered on by Database,
/// which write-ahead-logs every mutation before applying it here.
class Table {
 public:
  /// Creates an empty table over the in-memory row heap.
  Table(std::string name, Schema schema);

  /// Creates a table over a caller-supplied row heap (the paged engine
  /// passes a PagedRowStore rehydrated from its catalog) with the row-id
  /// counter restored to `next_row_id`.
  Table(std::string name, Schema schema, std::unique_ptr<RowStore> store,
        RowId next_row_id);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t row_count() const { return static_cast<size_t>(store_->size()); }

  /// The id the next Insert will assign (persisted by paged checkpoints).
  RowId next_row_id() const { return next_id_; }

  /// Position of the unique-index column, or -1 when there is none.
  int unique_column() const { return unique_col_; }

  /// Declares a unique index on `column`. Inserts that duplicate an existing
  /// key fail with AlreadyExists. Existing rows are backfilled; declaring
  /// the index fails with AlreadyExists if they contain duplicates.
  Status AddUniqueIndex(const std::string& column);

  /// Validates and inserts `row`, returning its new RowId.
  Result<RowId> Insert(const Row& row);

  /// Inserts with a caller-chosen row id (used only by recovery). Fails if
  /// the id is already taken.
  Status InsertWithId(RowId id, const Row& row);

  /// Fetches a row by id.
  Result<Row> Get(RowId id) const;

  /// Replaces the row at `id` with `row` (revalidated; indexes maintained).
  Status Update(RowId id, const Row& row);

  /// Deletes the row at `id`.
  Status Delete(RowId id);

  /// Looks up by unique index; NotFound if no such key or index.
  Result<RowId> LookupUnique(const std::string& column,
                             const Value& key) const;

  /// The row holding unique-key value `key`, or nullopt when no row does or
  /// the table has no unique index. Builds no status, so a miss is cheap.
  std::optional<RowId> FindUnique(const Value& key) const;

  /// Visits every (id, row); `fn` returns false to stop. Iteration order is
  /// ascending RowId. Returns the heap's read error, if any: a paged heap
  /// can fail to read a page or find a row that does not decode, and the
  /// scan then ends early, so a caller that drops the error sees a table
  /// cut short.
  [[nodiscard]] Status Scan(
      const std::function<bool(RowId, const Row&)>& fn) const;

  /// Scan limited to the rows whose first column equals `first`, in the
  /// same order and with the same errors. A paged heap decodes only the
  /// first value of a row that does not match.
  [[nodiscard]] Status ScanWhereFirst(
      const Value& first,
      const std::function<bool(RowId, const Row&)>& fn) const;

  /// Counts rows satisfying `pred`.
  size_t CountWhere(const std::function<bool(const Row&)>& pred) const;

  /// Serializes the full table for snapshots: name, schema, unique column
  /// (+1, 0 = none) as one byte, a count of ordered-index columns (always
  /// 0; the field stays so older snapshots keep their layout), the next row
  /// id, then every (id, row).
  void EncodeTo(ByteWriter* out) const;

  /// Restores a table written by EncodeTo and rebuilds its unique index.
  /// An older snapshot's ordered-index columns are read, checked against
  /// the schema and dropped. Returns false on truncated input or an index
  /// column the schema does not have.
  static bool DecodeFrom(ByteReader* in, Table* out);

 private:
  /// `s`, with a heap's NotFound restated as "row <id> in <table>".
  Status Named(const Status& s, RowId id) const;
  void IndexRow(RowId id, const Row& row);
  void UnindexRow(RowId id, const Row& row);

  std::string name_;
  Schema schema_;
  std::unique_ptr<RowStore> store_;  // id-ordered, so Scan is id-ascending
  RowId next_id_ = 1;

  int unique_col_ = -1;
  std::unordered_map<Value, RowId, ValueHash> unique_index_;
};

}  // namespace itag::storage

#endif  // ITAG_STORAGE_TABLE_H_
