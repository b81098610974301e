#ifndef ITAG_STORAGE_SCHEMA_H_
#define ITAG_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/value.h"

namespace itag::storage {

/// A row is a positional tuple matching a Schema.
using Row = std::vector<Value>;

/// One column definition.
struct Column {
  std::string name;
  FieldType type = FieldType::kNull;
  bool nullable = false;
};

/// Ordered set of typed, named columns. The schema validates rows before
/// they reach the heap and resolves column names to positions for scans and
/// index definitions.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema; column names must be unique and non-empty.
  explicit Schema(std::vector<Column> columns);

  /// Number of columns.
  size_t num_columns() const { return columns_.size(); }

  /// Column metadata by position.
  const Column& column(size_t i) const { return columns_[i]; }

  const std::vector<Column>& columns() const { return columns_; }

  /// Position of the column named `name`, or -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Checks arity, types and nullability of `row` against this schema.
  Status Validate(const Row& row) const;

  /// Appends the schema: u32 column count, then per column its name
  /// (u32-length string), FieldType byte and nullable byte. kCreateTable
  /// WAL payloads, snapshots and the paged catalog carry it.
  void EncodeTo(ByteWriter* out) const;

  /// Reads a schema written by EncodeTo. Returns false on truncated input
  /// or a column type byte outside FieldType; a column count larger than
  /// the input holds runs out of bytes, never out of memory.
  static bool DecodeFrom(ByteReader* in, Schema* out);

 private:
  std::vector<Column> columns_;
};

/// Fluent helper for building schemas in registration code:
///   SchemaBuilder().Int("id").Str("name").Real("quality").Build()
class SchemaBuilder {
 public:
  SchemaBuilder& Int(const std::string& name, bool nullable = false) {
    cols_.push_back({name, FieldType::kInt64, nullable});
    return *this;
  }
  SchemaBuilder& Real(const std::string& name, bool nullable = false) {
    cols_.push_back({name, FieldType::kDouble, nullable});
    return *this;
  }
  SchemaBuilder& Str(const std::string& name, bool nullable = false) {
    cols_.push_back({name, FieldType::kString, nullable});
    return *this;
  }
  SchemaBuilder& Bool(const std::string& name, bool nullable = false) {
    cols_.push_back({name, FieldType::kBool, nullable});
    return *this;
  }
  Schema Build() { return Schema(std::move(cols_)); }

 private:
  std::vector<Column> cols_;
};

}  // namespace itag::storage

#endif  // ITAG_STORAGE_SCHEMA_H_
