#include "storage/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/row_store.h"

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

// ------------------------------------------------------------ row images
// EncodeRow writes v2 rows; DecodeRow reads v2 and the v1 rows older builds
// wrote. Malformed bytes of either must read as false, never as a crash or
// an allocation the input sized.

/// A row as older builds encoded it: u32 column count, then each value.
std::string V1Row(const Row& row) {
  ByteWriter out;
  out.U32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) v.EncodeTo(&out);
  return out.Take();
}

/// The ints where the zigzag varint of a value changes length (7 more bits
/// per byte), with their neighbours, plus 0, +-1 and the int64 extremes.
std::vector<int64_t> VarintBoundaryInts() {
  std::vector<int64_t> out = {0, 1, -1, std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()};
  for (int bits = 7; bits < 64; bits += 7) {
    // Zigzag maps [-2^(b-1), 2^(b-1) - 1] onto [0, 2^b - 1], the values
    // that fit b / 7 bytes.
    const int64_t edge = int64_t{1} << (bits - 1);
    for (int64_t v : {edge - 1, edge, -edge, -edge - 1}) out.push_back(v);
  }
  return out;
}

TEST(RowFormatTest, IntsRoundTripAtEveryVarintBoundary) {
  for (int64_t v : VarintBoundaryInts()) {
    const Row row = {Value::Int(v)};
    const std::string bytes = EncodeRow(row);
    Row out;
    ASSERT_TRUE(DecodeRow(bytes, 1, &out)) << v;
    EXPECT_EQ(out, row) << v;
    // Lead byte, tag, then one varint byte per 7 bits of the zigzag value.
    const uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                        (v < 0 ? ~uint64_t{0} : uint64_t{0});
    size_t varint_bytes = 1;
    for (uint64_t rest = zz >> 7; rest != 0; rest >>= 7) ++varint_bytes;
    EXPECT_EQ(bytes.size(), 2 + varint_bytes) << v;
  }
  EXPECT_EQ(EncodeRow({Value::Int(63)}).size(), 3u);   // zigzag 126: 1 byte
  EXPECT_EQ(EncodeRow({Value::Int(64)}).size(), 4u);   // zigzag 128: 2 bytes
  EXPECT_EQ(EncodeRow({Value::Int(-64)}).size(), 3u);  // zigzag 127: 1 byte
  EXPECT_EQ(EncodeRow({Value::Int(std::numeric_limits<int64_t>::min())}).size(),
            12u);  // zigzag 2^64 - 1: 10 bytes
}

TEST(RowFormatTest, VarU64RoundTripsAtEveryByteBoundary) {
  std::vector<uint64_t> values = {~uint64_t{0}};
  for (int bits = 0; bits < 64; bits += 7) {
    const uint64_t edge = uint64_t{1} << bits;
    for (uint64_t v : {edge - 1, edge, edge + 1}) values.push_back(v);
  }
  for (uint64_t v : values) {
    ByteWriter w;
    w.VarU64(v);
    ByteReader r(w.buffer());
    uint64_t out = 0;
    ASSERT_TRUE(r.VarU64(&out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

// The first byte of a v2 row is the column count's low byte with its top
// bit flipped, and a v1 row opens with the count, so the two never share a
// first byte. Counts whose low byte is 0x00, 0x7f, 0x80 or 0xff included.
TEST(RowFormatTest, BothFormatsReadAtEveryColumnCount) {
  for (size_t n : {0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 383, 384, 511,
                   640, 1023}) {
    Row row;
    for (size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0: row.push_back(Value::Int(static_cast<int64_t>(i) - 300)); break;
        case 1: row.push_back(Value::Str(std::string(i % 7, 'a'))); break;
        case 2: row.push_back(Value::Bool(i % 2 == 0)); break;
        case 3: row.push_back(Value::Real(i * 0.5)); break;
        case 4: row.push_back(Value::Null()); break;
      }
    }
    for (const std::string& bytes : {EncodeRow(row), V1Row(row)}) {
      Row out;
      ASSERT_TRUE(DecodeRow(bytes, n, &out)) << n;
      EXPECT_EQ(out, row) << n;
      // Read with any other count, the bytes are no row.
      EXPECT_FALSE(DecodeRow(bytes, n + 1, &out)) << n;
      if (n > 0) {
        EXPECT_FALSE(DecodeRow(bytes, n - 1, &out)) << n;
      }
    }
  }
}

TEST(RowFormatTest, MalformedRowsAreRejected) {
  auto rejects = [](const std::string& bytes, size_t arity) {
    Row out;
    return !DecodeRow(bytes, arity, &out);
  };
  const char lead1 = static_cast<char>(0x81);  // v2, 1 column
  // A truncated varint: the continuation bit promises another byte.
  EXPECT_TRUE(rejects(std::string{lead1, 0x03, '\x80'}, 1));
  // A varint of 11 bytes, and one of 10 whose last byte sets bits past 64.
  EXPECT_TRUE(rejects(std::string{lead1, 0x03} + std::string(10, '\x80') +
                          std::string(1, '\x01'),
                      1));
  EXPECT_TRUE(rejects(std::string{lead1, 0x03} + std::string(9, '\xff') +
                          std::string(1, '\x02'),
                      1));
  // The largest 10-byte varint still reads.
  Row out;
  EXPECT_TRUE(DecodeRow(std::string{lead1, 0x03} + std::string(9, '\xff') +
                            std::string(1, '\x01'),
                        1, &out));
  EXPECT_EQ(out, Row{Value::Int(std::numeric_limits<int64_t>::min())});
  // Unknown value tags.
  for (char tag : {'\x06', '\x7f', '\xff'}) {
    EXPECT_TRUE(rejects(std::string{lead1, tag}, 1)) << int{tag};
  }
  // A wrong column count: too few values, too many values.
  const std::string two = EncodeRow({Value::Int(1), Value::Int(2)});
  EXPECT_TRUE(rejects(std::string{static_cast<char>(0x82), 0x03, 0x02}, 2));
  EXPECT_TRUE(rejects(std::string{lead1} + two.substr(1), 1));
  // A string length past the end, and one no input could hold: read as
  // false without allocating the claimed length.
  EXPECT_TRUE(rejects(std::string{lead1, 0x05, 0x7f, 'x'}, 1));
  EXPECT_TRUE(rejects(std::string{lead1, 0x05} + std::string(8, '\xff') +
                          std::string(1, '\x7f'),
                      1));
  // Trailing bytes, in either format.
  EXPECT_TRUE(rejects(two + std::string(1, '\0'), 2));
  EXPECT_TRUE(
      rejects(V1Row({Value::Int(1), Value::Int(2)}) + std::string(1, '\0'), 2));
  // A v1 row whose count is not the arity.
  EXPECT_TRUE(rejects(V1Row({Value::Int(1)}), 2));
  // Every cut of a valid row, in either format.
  const Row row = {Value::Int(-70000), Value::Str("tags"), Value::Real(2.5),
                   Value::Bool(true), Value::Null()};
  for (const std::string& bytes : {EncodeRow(row), V1Row(row)}) {
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_TRUE(rejects(bytes.substr(0, cut), row.size())) << cut;
    }
  }
}

}  // namespace
}  // namespace itag::storage
