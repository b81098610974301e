#include "storage/row_store.h"

#include <string_view>

namespace itag::storage {

std::string EncodeRow(const Row& row) {
  ByteWriter out;
  out.U32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) v.EncodeTo(&out);
  return out.Take();
}

bool DecodeRow(std::string_view data, size_t arity, Row* out) {
  ByteReader in(data);
  uint32_t n;
  if (!in.U32(&n) || n != arity) return false;
  out->clear();
  out->resize(n);
  for (Value& v : *out) {
    if (!Value::DecodeFrom(&in, &v)) return false;
  }
  return in.AtEnd();
}

// ---------------------------------------------------------------------------
// MemRowStore

Result<Row> MemRowStore::Get(RowId id) const {
  auto it = rows_.find(id);
  if (it == rows_.end()) return Status::NotFound("row " + std::to_string(id));
  return it->second;
}

bool MemRowStore::Contains(RowId id) const { return rows_.count(id) != 0; }

Status MemRowStore::Put(RowId id, const Row& row) {
  rows_[id] = row;
  return Status::OK();
}

Result<Row> MemRowStore::Replace(RowId id, const Row& row) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return Status::NotFound("row " + std::to_string(id));
  Row old = std::move(it->second);
  it->second = row;
  return old;
}

Result<Row> MemRowStore::Erase(RowId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return Status::NotFound("row " + std::to_string(id));
  Row old = std::move(it->second);
  rows_.erase(it);
  return old;
}

Status MemRowStore::Scan(
    const std::function<bool(RowId, const Row&)>& fn) const {
  for (const auto& [id, row] : rows_) {
    if (!fn(id, row)) break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PagedRowStore

Status PagedRowStore::DecodeStored(RowId id, std::string_view bytes,
                                   Row* row) const {
  if (!DecodeRow(bytes, arity_, row)) {
    return Status::Corruption("stored row " + std::to_string(id) +
                              " does not decode");
  }
  return Status::OK();
}

Result<Row> PagedRowStore::Get(RowId id) const {
  Row row;
  ITAG_ASSIGN_OR_RETURN(bool found,
                        tree_->Get(id, [&](std::string_view bytes) {
                          return DecodeStored(id, bytes, &row);
                        }));
  if (!found) return Status::NotFound("row " + std::to_string(id));
  return row;
}

bool PagedRowStore::Contains(RowId id) const {
  Result<bool> found = tree_->Get(id, nullptr);
  return found.ok() && found.value();
}

Status PagedRowStore::Put(RowId id, const Row& row) {
  ITAG_ASSIGN_OR_RETURN(bool inserted, tree_->Put(id, EncodeRow(row)));
  if (inserted) ++count_;
  return Status::OK();
}

Result<Row> PagedRowStore::Replace(RowId id, const Row& row) {
  Row old;
  ITAG_ASSIGN_OR_RETURN(bool found,
                        tree_->Replace(id, EncodeRow(row),
                                       [&](std::string_view bytes) {
                                         return DecodeStored(id, bytes, &old);
                                       }));
  if (!found) return Status::NotFound("row " + std::to_string(id));
  return old;
}

Result<Row> PagedRowStore::Erase(RowId id) {
  Row old;
  ITAG_ASSIGN_OR_RETURN(bool found,
                        tree_->Erase(id, [&](std::string_view bytes) {
                          return DecodeStored(id, bytes, &old);
                        }));
  if (!found) return Status::NotFound("row " + std::to_string(id));
  --count_;
  return old;
}

Status PagedRowStore::Scan(
    const std::function<bool(RowId, const Row&)>& fn) const {
  Status decoded = Status::OK();
  Row row;
  ITAG_RETURN_IF_ERROR(
      tree_->Scan(0, [&](uint64_t key, std::string_view bytes) {
        decoded = DecodeStored(key, bytes, &row);
        return decoded.ok() && fn(key, row);
      }));
  return decoded;
}

}  // namespace itag::storage
