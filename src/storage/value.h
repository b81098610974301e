#ifndef ITAG_STORAGE_VALUE_H_
#define ITAG_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/binio.h"

namespace itag::storage {

/// Column types supported by the embedded engine. This is the subset the
/// iTag managers need from MySQL: identifiers, counters, money amounts,
/// flags, and short text.
enum class FieldType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

/// Human-readable type name ("int64", "string", ...).
const char* FieldTypeName(FieldType t);

/// A dynamically-typed cell value. Values order first by type tag, then by
/// payload, giving a total order. NULL sorts before everything.
class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.data_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.data_ = i;
    return v;
  }
  static Value Real(double d) {
    Value v;
    v.data_ = d;
    return v;
  }
  static Value Str(std::string s) {
    Value v;
    v.data_ = std::move(s);
    return v;
  }

  /// The runtime type of this value.
  FieldType type() const;

  bool is_null() const { return type() == FieldType::kNull; }

  /// Typed accessors; behaviour is undefined if the type does not match
  /// (callers go through Schema validation first).
  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Total order: type tag first, then payload.
  bool operator<(const Value& other) const;
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Renders the value for debugging/export ("NULL", "42", "3.14", "abc").
  std::string ToString() const;

  /// Appends a self-delimiting encoding: the FieldType byte, then the
  /// payload (bool as one byte, int64 and double bits as u64, string as
  /// u32 length + bytes). Rows in the WAL, snapshots and pages use it.
  void EncodeTo(ByteWriter* out) const;

  /// Reads one value written by EncodeTo. Returns false on truncated input
  /// or a type byte outside FieldType.
  static bool DecodeFrom(ByteReader* in, Value* out);

  /// 64-bit hash usable in hash indexes.
  size_t Hash() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace itag::storage

#endif  // ITAG_STORAGE_VALUE_H_
