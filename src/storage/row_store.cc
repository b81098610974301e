#include "storage/row_store.h"

#include <vector>

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

Status MemRowStore::Erase(RowId id) {
  if (rows_.erase(id) == 0) {
    return Status::NotFound("row " + std::to_string(id));
  }
  return Status::OK();
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

namespace {

std::vector<uint8_t> ToBytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

}  // namespace

Result<Row> PagedRowStore::Get(RowId id) const {
  std::vector<uint8_t> bytes;
  ITAG_ASSIGN_OR_RETURN(bool found, tree_->Get(id, &bytes));
  if (!found) return Status::NotFound("row " + std::to_string(id));
  Row row;
  if (!DecodeRow(std::string(bytes.begin(), bytes.end()), arity_, &row)) {
    return Status::Corruption("stored row " + std::to_string(id) +
                              " does not decode");
  }
  return row;
}

bool PagedRowStore::Contains(RowId id) const {
  std::vector<uint8_t> bytes;
  Result<bool> found = tree_->Get(id, &bytes);
  return found.ok() && found.value();
}

Status PagedRowStore::Put(RowId id, const Row& row) {
  ITAG_ASSIGN_OR_RETURN(bool inserted, tree_->Put(id, ToBytes(EncodeRow(row))));
  if (inserted) ++count_;
  return Status::OK();
}

Status PagedRowStore::Erase(RowId id) {
  ITAG_ASSIGN_OR_RETURN(bool found, tree_->Erase(id));
  if (!found) return Status::NotFound("row " + std::to_string(id));
  --count_;
  return Status::OK();
}

Status PagedRowStore::Scan(
    const std::function<bool(RowId, const Row&)>& fn) const {
  Status decoded = Status::OK();
  ITAG_RETURN_IF_ERROR(
      tree_->Scan(0, [&](uint64_t key, const std::vector<uint8_t>& bytes) {
        Row row;
        if (!DecodeRow(std::string(bytes.begin(), bytes.end()), arity_,
                       &row)) {
          decoded = Status::Corruption("stored row " + std::to_string(key) +
                                       " does not decode");
          return false;
        }
        return fn(key, row);
      }));
  return decoded;
}

}  // namespace itag::storage
