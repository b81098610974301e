#ifndef ITAG_STORAGE_ROW_STORE_H_
#define ITAG_STORAGE_ROW_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager/paged_btree.h"
#include "storage/schema.h"

namespace itag::storage {

/// Row identifier assigned by the table; monotonically increasing, never
/// reused.
using RowId = uint64_t;

/// Encodes a row for WAL payloads and the paged row heap: u32 column count,
/// then each Value.
std::string EncodeRow(const Row& row);

/// Decodes a row with `arity` columns that fills `data` exactly; false on
/// malformed input.
bool DecodeRow(std::string_view data, size_t arity, Row* out);

/// The primary row heap behind a Table: RowId -> Row, iterable in id order.
/// Two implementations exist — the original in-memory map and a paged one
/// backed by an on-disk B+tree (storage/pager) — so a Table is oblivious to
/// whether its rows live in RAM or in the page file. Secondary indexes stay
/// in-memory in Table either way.
///
/// Methods are const where a reader calls them; the paged implementation
/// mutates its page cache underneath, which is invisible to callers.
class RowStore {
 public:
  virtual ~RowStore() = default;

  /// Fetches the row at `id`; NotFound when absent.
  virtual Result<Row> Get(RowId id) const = 0;

  /// True when `id` is present. IO errors read as false (the paged store
  /// records them; they resurface on the next Get/Put/Erase).
  virtual bool Contains(RowId id) const = 0;

  /// Inserts or replaces the row at `id`.
  virtual Status Put(RowId id, const Row& row) = 0;

  /// Replaces the row at `id` and returns the row it replaced; NotFound,
  /// writing nothing, when absent.
  virtual Result<Row> Replace(RowId id, const Row& row) = 0;

  /// Removes the row at `id` and returns it; NotFound when absent.
  virtual Result<Row> Erase(RowId id) = 0;

  /// Number of rows.
  virtual uint64_t size() const = 0;

  /// Visits every (id, row) in ascending id order; `fn` returns false to
  /// stop early. The store must not be mutated during the scan.
  virtual Status Scan(
      const std::function<bool(RowId, const Row&)>& fn) const = 0;
};

/// The original heap: a std::map of materialized rows.
class MemRowStore : public RowStore {
 public:
  Result<Row> Get(RowId id) const override;
  bool Contains(RowId id) const override;
  Status Put(RowId id, const Row& row) override;
  Result<Row> Replace(RowId id, const Row& row) override;
  Result<Row> Erase(RowId id) override;
  uint64_t size() const override { return rows_.size(); }
  Status Scan(const std::function<bool(RowId, const Row&)>& fn) const override;

 private:
  std::map<RowId, Row> rows_;
};

/// Rows serialized into an on-disk B+tree; only the pages a query touches
/// are resident (in the shared PageCache), so the table can exceed RAM.
/// Each write encodes its row once and hands the bytes to the tree. A read
/// decodes the row straight from the pinned leaf when it is stored inline,
/// and a replace or erase decodes the row it displaces in the same descent.
/// The tree handle is owned by the PagedEngine that also owns the pager and
/// cache; `arity` is the table's column count, used to validate decoded rows.
class PagedRowStore : public RowStore {
 public:
  PagedRowStore(pager::PagedBTree* tree, size_t arity, uint64_t row_count)
      : tree_(tree), arity_(arity), count_(row_count) {}

  Result<Row> Get(RowId id) const override;
  bool Contains(RowId id) const override;
  Status Put(RowId id, const Row& row) override;
  Result<Row> Replace(RowId id, const Row& row) override;
  Result<Row> Erase(RowId id) override;
  uint64_t size() const override { return count_; }
  Status Scan(const std::function<bool(RowId, const Row&)>& fn) const override;

 private:
  /// Decodes stored row `id` from `bytes` into `*row`; Corruption when the
  /// bytes are not a row of this table.
  Status DecodeStored(RowId id, std::string_view bytes, Row* row) const;

  pager::PagedBTree* tree_;
  size_t arity_;
  uint64_t count_;
};

}  // namespace itag::storage

#endif  // ITAG_STORAGE_ROW_STORE_H_
