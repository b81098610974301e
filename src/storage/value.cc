#include "storage/value.h"

#include <functional>

namespace itag::storage {

const char* FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kNull:
      return "null";
    case FieldType::kBool:
      return "bool";
    case FieldType::kInt64:
      return "int64";
    case FieldType::kDouble:
      return "double";
    case FieldType::kString:
      return "string";
  }
  return "?";
}

FieldType Value::type() const {
  switch (data_.index()) {
    case 0:
      return FieldType::kNull;
    case 1:
      return FieldType::kBool;
    case 2:
      return FieldType::kInt64;
    case 3:
      return FieldType::kDouble;
    case 4:
      return FieldType::kString;
  }
  return FieldType::kNull;
}

bool Value::operator<(const Value& other) const {
  if (data_.index() != other.data_.index()) {
    return data_.index() < other.data_.index();
  }
  return data_ < other.data_;
}

bool Value::operator==(const Value& other) const { return data_ == other.data_; }

std::string Value::ToString() const {
  switch (type()) {
    case FieldType::kNull:
      return "NULL";
    case FieldType::kBool:
      return as_bool() ? "true" : "false";
    case FieldType::kInt64:
      return std::to_string(as_int());
    case FieldType::kDouble:
      return std::to_string(as_double());
    case FieldType::kString:
      return as_string();
  }
  return "?";
}

void Value::EncodeTo(ByteWriter* out) const {
  out->U8(static_cast<uint8_t>(type()));
  switch (type()) {
    case FieldType::kNull:
      break;
    case FieldType::kBool:
      out->U8(as_bool() ? 1 : 0);
      break;
    case FieldType::kInt64:
      out->I64(as_int());
      break;
    case FieldType::kDouble:
      out->F64(as_double());
      break;
    case FieldType::kString:
      out->Str(as_string());
      break;
  }
}

bool Value::DecodeFrom(ByteReader* in, Value* out) {
  uint8_t type;
  if (!in->U8(&type)) return false;
  switch (static_cast<FieldType>(type)) {
    case FieldType::kNull:
      *out = Value::Null();
      return true;
    case FieldType::kBool: {
      uint8_t b;
      if (!in->U8(&b)) return false;
      *out = Value::Bool(b != 0);
      return true;
    }
    case FieldType::kInt64: {
      int64_t i;
      if (!in->I64(&i)) return false;
      *out = Value::Int(i);
      return true;
    }
    case FieldType::kDouble: {
      double d;
      if (!in->F64(&d)) return false;
      *out = Value::Real(d);
      return true;
    }
    case FieldType::kString: {
      std::string s;
      if (!in->Str(&s)) return false;
      *out = Value::Str(std::move(s));
      return true;
    }
  }
  return false;
}

size_t Value::Hash() const {
  switch (type()) {
    case FieldType::kNull:
      return 0x9E3779B97F4A7C15ULL;
    case FieldType::kBool:
      return as_bool() ? 0x1234567 : 0x7654321;
    case FieldType::kInt64:
      return std::hash<int64_t>{}(as_int());
    case FieldType::kDouble:
      return std::hash<double>{}(as_double());
    case FieldType::kString:
      return std::hash<std::string>{}(as_string());
  }
  return 0;
}

}  // namespace itag::storage
