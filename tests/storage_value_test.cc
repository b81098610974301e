#include "storage/value.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace itag::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), FieldType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), FieldType::kBool);
  EXPECT_TRUE(Value::Bool(true).as_bool());
  EXPECT_EQ(Value::Int(-5).as_int(), -5);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
}

TEST(ValueTest, FieldTypeNames) {
  EXPECT_STREQ(FieldTypeName(FieldType::kNull), "null");
  EXPECT_STREQ(FieldTypeName(FieldType::kBool), "bool");
  EXPECT_STREQ(FieldTypeName(FieldType::kInt64), "int64");
  EXPECT_STREQ(FieldTypeName(FieldType::kDouble), "double");
  EXPECT_STREQ(FieldTypeName(FieldType::kString), "string");
}

TEST(ValueTest, TotalOrderWithinType) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  EXPECT_LT(Value::Real(-1.0), Value::Real(0.0));
  EXPECT_LT(Value::Bool(false), Value::Bool(true));
}

TEST(ValueTest, TotalOrderAcrossTypesByTag) {
  // NULL < bool < int < double < string (variant index order).
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(-100));
  EXPECT_LT(Value::Int(999), Value::Real(-999.0));
  EXPECT_LT(Value::Real(1e9), Value::Str(""));
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_NE(Value::Int(7), Value::Int(8));
  EXPECT_NE(Value::Int(7), Value::Real(7.0));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Str("x"), Value::Str("x"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("tag").ToString(), "tag");
}

TEST(ValueTest, EncodeDecodeRoundtripAllTypes) {
  Value values[] = {Value::Null(),     Value::Bool(true),
                    Value::Bool(false), Value::Int(-123456789),
                    Value::Int(0),      Value::Real(3.14159),
                    Value::Real(-0.0),  Value::Str(""),
                    Value::Str("hello world"), Value::Str(std::string(300, 'x'))};
  for (const Value& v : values) {
    ByteWriter buf;
    v.EncodeTo(&buf);
    ByteReader in(buf.buffer());
    Value out;
    ASSERT_TRUE(Value::DecodeFrom(&in, &out)) << v.ToString();
    EXPECT_TRUE(in.AtEnd());
    EXPECT_EQ(out, v);
  }
}

TEST(ValueTest, EncodeDecodeSequence) {
  ByteWriter buf;
  Value::Int(1).EncodeTo(&buf);
  Value::Str("two").EncodeTo(&buf);
  Value::Real(3.0).EncodeTo(&buf);
  ByteReader in(buf.buffer());
  Value a, b, c;
  ASSERT_TRUE(Value::DecodeFrom(&in, &a));
  ASSERT_TRUE(Value::DecodeFrom(&in, &b));
  ASSERT_TRUE(Value::DecodeFrom(&in, &c));
  EXPECT_EQ(a, Value::Int(1));
  EXPECT_EQ(b, Value::Str("two"));
  EXPECT_EQ(c, Value::Real(3.0));
  EXPECT_TRUE(in.AtEnd());
}

TEST(ValueTest, DecodeRejectsTruncated) {
  ByteWriter buf;
  Value::Str("truncate-me").EncodeTo(&buf);
  for (size_t cut = 1; cut < buf.buffer().size(); ++cut) {
    ByteReader partial(std::string_view(buf.buffer()).substr(0, cut));
    Value out;
    EXPECT_FALSE(Value::DecodeFrom(&partial, &out)) << "cut=" << cut;
  }
}

TEST(ValueTest, DecodeEmptyFails) {
  ByteReader empty("");
  Value out;
  EXPECT_FALSE(Value::DecodeFrom(&empty, &out));
}

TEST(ValueTest, DecodeRejectsTypeByteOutsideFieldType) {
  ByteWriter buf;
  buf.U8(static_cast<uint8_t>(FieldType::kString) + 1);
  buf.I64(7);
  ByteReader in(buf.buffer());
  Value out;
  EXPECT_FALSE(Value::DecodeFrom(&in, &out));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  EXPECT_EQ(Value::Str("q").Hash(), Value::Str("q").Hash());
  // Different values usually hash differently (not guaranteed, but these do).
  EXPECT_NE(Value::Int(5).Hash(), Value::Int(6).Hash());
}

TEST(ValueTest, FuzzRoundtrip) {
  Rng rng(4242);
  for (int i = 0; i < 500; ++i) {
    Value v;
    switch (rng.Uniform(5)) {
      case 0: v = Value::Null(); break;
      case 1: v = Value::Bool(rng.Bernoulli(0.5)); break;
      case 2: v = Value::Int(rng.UniformRange(-1000000, 1000000)); break;
      case 3: v = Value::Real(rng.Normal(0, 1e6)); break;
      case 4: {
        std::string s;
        uint32_t len = rng.Uniform(64);
        for (uint32_t j = 0; j < len; ++j) {
          s += static_cast<char>(rng.Uniform(256));
        }
        v = Value::Str(s);
        break;
      }
    }
    ByteWriter buf;
    v.EncodeTo(&buf);
    ByteReader in(buf.buffer());
    Value out;
    ASSERT_TRUE(Value::DecodeFrom(&in, &out));
    EXPECT_EQ(out, v);
  }
}

}  // namespace
}  // namespace itag::storage
