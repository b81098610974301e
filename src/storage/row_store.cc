#include "storage/row_store.h"

#include <string_view>

namespace itag::storage {

namespace {

/// Tags of a v2 row's values. A bool is its tag alone, so it takes two.
enum RowTag : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
};

/// First byte of a v2 row of `arity` columns: the low byte of the arity
/// with its top bit flipped. A v1 row opens with the arity itself as a u32,
/// so its first byte is that low byte unflipped, and one byte tells the two
/// formats apart for every column count.
uint8_t V2Lead(size_t arity) {
  return static_cast<uint8_t>((arity & 0xFF) ^ 0x80);
}

void EncodeValue(const Value& v, ByteWriter* out) {
  switch (v.type()) {
    case FieldType::kNull:
      out->U8(kTagNull);
      break;
    case FieldType::kBool:
      out->U8(v.as_bool() ? kTagTrue : kTagFalse);
      break;
    case FieldType::kInt64:
      out->U8(kTagInt);
      out->VarI64(v.as_int());
      break;
    case FieldType::kDouble:
      out->U8(kTagDouble);
      out->F64(v.as_double());
      break;
    case FieldType::kString:
      out->U8(kTagString);
      out->VarStr(v.as_string());
      break;
  }
}

bool DecodeValue(ByteReader* in, Value* out) {
  uint8_t tag = 0;
  if (!in->U8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagFalse:
    case kTagTrue:
      *out = Value::Bool(tag == kTagTrue);
      return true;
    case kTagInt: {
      int64_t i = 0;
      if (!in->VarI64(&i)) return false;
      *out = Value::Int(i);
      return true;
    }
    case kTagDouble: {
      double d = 0;
      if (!in->F64(&d)) return false;
      *out = Value::Real(d);
      return true;
    }
    case kTagString: {
      std::string s;
      if (!in->VarStr(&s)) return false;
      *out = Value::Str(std::move(s));
      return true;
    }
  }
  return false;
}

/// Reads the head of a row of `arity` columns from `in`: the v2 lead byte,
/// or the v1 column count, which must equal `arity`. Sets `*v2` to the
/// format; false when the bytes open neither.
bool ReadRowHead(ByteReader* in, std::string_view data, size_t arity,
                 bool* v2) {
  *v2 = !data.empty() && static_cast<uint8_t>(data[0]) == V2Lead(arity);
  if (*v2) {
    uint8_t lead = 0;
    return in->U8(&lead);
  }
  uint32_t n = 0;
  return in->U32(&n) && n == arity;
}

/// Reads one value in the row format `v2` says.
bool ReadValue(ByteReader* in, bool v2, Value* out) {
  return v2 ? DecodeValue(in, out) : Value::DecodeFrom(in, out);
}

/// Decodes the first value of a row of `arity` (at least 1) columns,
/// leaving the rest unread; false on malformed input.
bool DecodeFirstValue(std::string_view data, size_t arity, Value* out) {
  ByteReader in(data);
  bool v2 = false;
  return ReadRowHead(&in, data, arity, &v2) && ReadValue(&in, v2, out);
}

}  // namespace

std::string EncodeRow(const Row& row) {
  ByteWriter out;
  out.U8(V2Lead(row.size()));
  for (const Value& v : row) EncodeValue(v, &out);
  return out.Take();
}

bool DecodeRow(std::string_view data, size_t arity, Row* out) {
  ByteReader in(data);
  bool v2 = false;
  if (!ReadRowHead(&in, data, arity, &v2)) return false;
  out->clear();
  out->resize(arity);
  for (Value& v : *out) {
    if (!ReadValue(&in, v2, &v)) return false;
  }
  return in.AtEnd();
}

Status RowStore::ScanWhereFirst(
    const Value& first,
    const std::function<bool(RowId, const Row&)>& fn) const {
  return Scan([&](RowId id, const Row& row) {
    return row[0] != first || fn(id, row);
  });
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

Status PagedRowStore::ScanWhereFirst(
    const Value& first,
    const std::function<bool(RowId, const Row&)>& fn) const {
  Status decoded = Status::OK();
  Value head;
  Row row;
  ITAG_RETURN_IF_ERROR(
      tree_->Scan(0, [&](uint64_t key, std::string_view bytes) {
        if (DecodeFirstValue(bytes, arity_, &head) && head != first) {
          return true;
        }
        // A match, or a row whose head does not decode: the full decode
        // hands the row over or reports the corruption.
        decoded = DecodeStored(key, bytes, &row);
        return decoded.ok() && fn(key, row);
      }));
  return decoded;
}

}  // namespace itag::storage
