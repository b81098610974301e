#include "storage/schema.h"

namespace itag::storage {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::Validate(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = columns_[i];
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("column '" + col.name +
                                       "' is not nullable");
      }
      continue;
    }
    if (row[i].type() != col.type) {
      return Status::InvalidArgument(
          "column '" + col.name + "' expects " + FieldTypeName(col.type) +
          ", got " + FieldTypeName(row[i].type()));
    }
  }
  return Status::OK();
}

void Schema::EncodeTo(ByteWriter* out) const {
  out->U32(static_cast<uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    out->Str(c.name);
    out->U8(static_cast<uint8_t>(c.type));
    out->U8(c.nullable ? 1 : 0);
  }
}

bool Schema::DecodeFrom(ByteReader* in, Schema* out) {
  uint32_t n;
  if (!in->U32(&n)) return false;
  std::vector<Column> cols;
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    uint8_t type, nullable;
    if (!in->Str(&c.name) || !in->U8(&type) || !in->U8(&nullable)) {
      return false;
    }
    if (type > static_cast<uint8_t>(FieldType::kString)) return false;
    c.type = static_cast<FieldType>(type);
    c.nullable = nullable != 0;
    cols.push_back(std::move(c));
  }
  *out = Schema(std::move(cols));
  return true;
}

}  // namespace itag::storage
