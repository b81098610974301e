#include "storage/table.h"

namespace itag::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      store_(std::make_unique<MemRowStore>()) {}

Table::Table(std::string name, Schema schema, std::unique_ptr<RowStore> store,
             RowId next_row_id)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      store_(std::move(store)),
      next_id_(next_row_id) {}

Status Table::AddUniqueIndex(const std::string& column) {
  int idx = schema_.ColumnIndex(column);
  if (idx < 0) return Status::NotFound("no column '" + column + "'");
  std::unordered_map<Value, RowId, ValueHash> built;
  built.reserve(store_->size());
  Value dup;
  bool has_dup = false;
  ITAG_RETURN_IF_ERROR(store_->Scan([&](RowId id, const Row& row) {
    auto [it, inserted] = built.emplace(row[idx], id);
    (void)it;
    if (!inserted) {
      dup = row[idx];
      has_dup = true;
      return false;
    }
    return true;
  }));
  if (has_dup) {
    return Status::AlreadyExists("duplicate key " + dup.ToString() +
                                 " while building unique index on '" + column +
                                 "'");
  }
  unique_col_ = idx;
  unique_index_ = std::move(built);
  return Status::OK();
}

Result<RowId> Table::Insert(const Row& row) {
  ITAG_RETURN_IF_ERROR(schema_.Validate(row));
  if (unique_col_ >= 0) {
    auto it = unique_index_.find(row[unique_col_]);
    if (it != unique_index_.end()) {
      return Status::AlreadyExists("duplicate key " +
                                   row[unique_col_].ToString() + " in " +
                                   name_);
    }
  }
  RowId id = next_id_;
  ITAG_RETURN_IF_ERROR(store_->Put(id, row));
  next_id_ = id + 1;
  IndexRow(id, row);
  return id;
}

Status Table::InsertWithId(RowId id, const Row& row) {
  ITAG_RETURN_IF_ERROR(schema_.Validate(row));
  // Ids are never reused and every stored row's id is below next_id_, so
  // only an id below it can be taken; a replayed insert past it (the usual
  // case) writes without reading first.
  if (id < next_id_ && store_->Contains(id)) {
    return Status::AlreadyExists("row id " + std::to_string(id) + " taken");
  }
  if (unique_col_ >= 0 && unique_index_.count(row[unique_col_])) {
    return Status::AlreadyExists("duplicate key in " + name_);
  }
  ITAG_RETURN_IF_ERROR(store_->Put(id, row));
  if (id >= next_id_) next_id_ = id + 1;
  IndexRow(id, row);
  return Status::OK();
}

Result<Row> Table::Get(RowId id) const {
  Result<Row> row = store_->Get(id);
  if (!row.ok()) return Named(row.status(), id);
  return row;
}

Status Table::Update(RowId id, const Row& row) {
  ITAG_RETURN_IF_ERROR(schema_.Validate(row));
  if (unique_col_ >= 0) {
    auto u = unique_index_.find(row[unique_col_]);
    if (u != unique_index_.end() && u->second != id) {
      // An absent id answers NotFound even when its new key is taken, so
      // this collision is the one case that probes the heap for the row.
      ITAG_RETURN_IF_ERROR(Get(id).status());
      return Status::AlreadyExists("duplicate key in " + name_);
    }
  }
  // The heap first, in one write that hands back the old image: the index
  // does not move before the new image is stored, so a failed write leaves
  // nothing to undo. Then the entry moves only if the key changed; a
  // rewrite that keeps its key touches no index.
  Result<Row> old = store_->Replace(id, row);
  if (!old.ok()) return Named(old.status(), id);
  const Row& before = old.value();
  if (unique_col_ >= 0 && before[unique_col_] != row[unique_col_]) {
    auto it = unique_index_.find(before[unique_col_]);
    if (it != unique_index_.end() && it->second == id) unique_index_.erase(it);
    unique_index_.emplace(row[unique_col_], id);
  }
  return Status::OK();
}

Status Table::Delete(RowId id) {
  // The heap first: its erase hands back the row, whose index entry goes
  // only once it is gone.
  Result<Row> old = store_->Erase(id);
  if (!old.ok()) return Named(old.status(), id);
  UnindexRow(id, old.value());
  return Status::OK();
}

Status Table::Named(const Status& s, RowId id) const {
  if (s.IsNotFound()) {
    return Status::NotFound("row " + std::to_string(id) + " in " + name_);
  }
  return s;
}

Result<RowId> Table::LookupUnique(const std::string& column,
                                  const Value& key) const {
  int idx = schema_.ColumnIndex(column);
  if (idx < 0 || idx != unique_col_) {
    return Status::NotFound("no unique index on '" + column + "'");
  }
  std::optional<RowId> id = FindUnique(key);
  if (!id) return Status::NotFound("key " + key.ToString() + " in " + name_);
  return *id;
}

std::optional<RowId> Table::FindUnique(const Value& key) const {
  auto it = unique_index_.find(key);
  if (it == unique_index_.end()) return std::nullopt;
  return it->second;
}

Status Table::Scan(const std::function<bool(RowId, const Row&)>& fn) const {
  return store_->Scan(fn);
}

size_t Table::CountWhere(const std::function<bool(const Row&)>& pred) const {
  size_t n = 0;
  (void)store_->Scan([&](RowId id, const Row& row) {
    (void)id;
    if (pred(row)) ++n;
    return true;
  });
  return n;
}

void Table::IndexRow(RowId id, const Row& row) {
  if (unique_col_ >= 0) unique_index_.emplace(row[unique_col_], id);
}

void Table::UnindexRow(RowId id, const Row& row) {
  if (unique_col_ >= 0) {
    auto it = unique_index_.find(row[unique_col_]);
    if (it != unique_index_.end() && it->second == id) {
      unique_index_.erase(it);
    }
  }
}

void Table::EncodeTo(ByteWriter* out) const {
  out->Str(name_);
  schema_.EncodeTo(out);
  out->U8(static_cast<uint8_t>(unique_col_ >= 0 ? unique_col_ + 1 : 0));
  out->U32(0);  // ordered-index columns: none since they were retired
  out->U64(next_id_);
  out->U64(store_->size());
  (void)store_->Scan([&](RowId id, const Row& row) {
    out->U64(id);
    for (const Value& v : row) v.EncodeTo(out);
    return true;
  });
}

bool Table::DecodeFrom(ByteReader* in, Table* out) {
  std::string name;
  Schema schema;
  if (!in->Str(&name) || !Schema::DecodeFrom(in, &schema)) return false;
  const size_t ncols = schema.num_columns();
  *out = Table(std::move(name), std::move(schema));
  // Column numbers index every row below, so one past the schema is
  // corruption, not a crash.
  uint8_t unique_plus1;
  uint32_t nidx;
  if (!in->U8(&unique_plus1) || !in->U32(&nidx)) return false;
  if (unique_plus1 > ncols) return false;
  out->unique_col_ = unique_plus1 - 1;
  // Snapshots written while tables kept ordered indexes list their
  // columns; nothing reads them now, but a column past the schema still
  // marks a corrupt file.
  for (uint32_t i = 0; i < nidx; ++i) {
    uint32_t col;
    if (!in->U32(&col) || col >= ncols) return false;
  }
  uint64_t nrows;
  if (!in->U64(&out->next_id_) || !in->U64(&nrows)) return false;
  for (uint64_t i = 0; i < nrows; ++i) {
    RowId id;
    if (!in->U64(&id)) return false;
    Row row(ncols);
    for (Value& v : row) {
      if (!Value::DecodeFrom(in, &v)) return false;
    }
    if (!out->store_->Put(id, row).ok()) return false;
  }
  // Rebuild the in-memory unique index from the restored heap.
  (void)out->store_->Scan([&](RowId id, const Row& row) {
    out->IndexRow(id, row);
    return true;
  });
  return true;
}

}  // namespace itag::storage
