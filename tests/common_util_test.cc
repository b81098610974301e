#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/fenwick.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace itag {
namespace {

// ------------------------------------------------------------------ crc32

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const char* data = "hello world, this is a wal record";
  size_t n = strlen(data);
  uint32_t full = Crc32(data, n);
  uint32_t partial = Crc32(data, 10);
  partial = Crc32Extend(partial, data + 10, n - 10);
  EXPECT_EQ(partial, full);
}

/// One bit at a time, straight from the reflected polynomial: the reference
/// the table-driven implementation must reproduce.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

// Every start offset modulo 8, every length across several 8-byte blocks
// plus a tail, and every split of Crc32Extend: the unrolled loop, the tail
// loop and their hand-off all agree with the bitwise reference.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryOffsetLengthAndSplit) {
  std::vector<unsigned char> buf(8 + 300);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>((i * 167 + 13) ^ (i >> 3));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + start;
      const uint32_t want = BitwiseCrc32(p, len);
      ASSERT_EQ(Crc32(p, len), want) << "start " << start << " len " << len;
      for (size_t cut = 0; cut <= len; ++cut) {
        ASSERT_EQ(Crc32Extend(Crc32(p, cut), p + cut, len - cut), want)
            << "start " << start << " len " << len << " cut " << cut;
      }
    }
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "payload-payload-payload";
  uint32_t before = Crc32(data.data(), data.size());
  data[5] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), before);
}

// ------------------------------------------------------------------ csv

TEST(TableWriterTest, CsvBasic) {
  TableWriter t({"a", "b"});
  t.BeginRow().Add("x").Add(int64_t{7});
  t.BeginRow().Add(3.14159, 2).Add("y");
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\nx,7\n3.14,y\n");
}

TEST(TableWriterTest, CsvEscapesSpecials) {
  TableWriter t({"v"});
  t.BeginRow().Add("has,comma");
  t.BeginRow().Add("has\"quote");
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(TableWriterTest, AsciiAligns) {
  TableWriter t({"name", "n"});
  t.BeginRow().Add("ab").Add(int64_t{1});
  t.BeginRow().Add("longer-name").Add(int64_t{22});
  std::ostringstream os;
  t.WriteAscii(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name        | n  |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22 |"), std::string::npos);
}

TEST(TableWriterTest, SaveCsvRoundtrip) {
  std::string path = "/tmp/itag_tablewriter_test.csv";
  TableWriter t({"k", "v"});
  t.BeginRow().Add("q").Add(0.5, 1);
  ASSERT_TRUE(t.SaveCsv(path).ok());
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "k,v");
  EXPECT_EQ(line2, "q,0.5");
  std::filesystem::remove(path);
}

TEST(TableWriterTest, RowCount) {
  TableWriter t({"x"});
  EXPECT_EQ(t.row_count(), 0u);
  t.BeginRow().Add("1");
  t.BeginRow().Add("2");
  EXPECT_EQ(t.row_count(), 2u);
}

// ------------------------------------------------------------------ strings

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ","), "a,b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, ToLowerAndTrim) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("machine-learning", "machine"));
  EXPECT_FALSE(StartsWith("ml", "machine"));
}

TEST(StringUtilTest, NormalizeTag) {
  EXPECT_EQ(NormalizeTag("Machine Learning"), "machine-learning");
  EXPECT_EQ(NormalizeTag("  WEB   2.0 "), "web-2.0");
  EXPECT_EQ(NormalizeTag("already-fine"), "already-fine");
  EXPECT_EQ(NormalizeTag("   "), "");
  EXPECT_EQ(NormalizeTag(""), "");
}

// ------------------------------------------------------------------ fenwick

TEST(FenwickTest, PrefixSums) {
  FenwickTree f(5);
  f.Set(0, 1.0);
  f.Set(2, 2.0);
  f.Set(4, 3.0);
  EXPECT_NEAR(f.PrefixSum(0), 0.0, 1e-12);
  EXPECT_NEAR(f.PrefixSum(1), 1.0, 1e-12);
  EXPECT_NEAR(f.PrefixSum(3), 3.0, 1e-12);
  EXPECT_NEAR(f.Total(), 6.0, 1e-12);
}

TEST(FenwickTest, GetAndAdd) {
  FenwickTree f(3);
  f.Set(1, 2.0);
  f.Add(1, 0.5);
  EXPECT_NEAR(f.Get(1), 2.5, 1e-12);
  EXPECT_NEAR(f.Total(), 2.5, 1e-12);
}

TEST(FenwickTest, FindByPrefixSelectsCorrectBuckets) {
  FenwickTree f(4);
  f.Set(0, 1.0);
  f.Set(1, 0.0);
  f.Set(2, 2.0);
  f.Set(3, 1.0);
  EXPECT_EQ(f.FindByPrefix(0.5), 0u);
  EXPECT_EQ(f.FindByPrefix(1.5), 2u);  // skips zero-weight bucket 1
  EXPECT_EQ(f.FindByPrefix(2.9), 2u);
  EXPECT_EQ(f.FindByPrefix(3.5), 3u);
}

TEST(FenwickTest, SamplingMatchesWeights) {
  FenwickTree f(3);
  f.Set(0, 1.0);
  f.Set(1, 3.0);
  f.Set(2, 6.0);
  Rng rng(7);
  std::vector<int> counts(3, 0);
  const int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    ++counts[f.FindByPrefix(rng.NextDouble() * f.Total())];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(FenwickTest, NonPowerOfTwoSize) {
  FenwickTree f(7);
  for (size_t i = 0; i < 7; ++i) f.Set(i, 1.0);
  EXPECT_NEAR(f.Total(), 7.0, 1e-12);
  EXPECT_EQ(f.FindByPrefix(6.5), 6u);
}

// ------------------------------------------------------------------ clock

TEST(ClockTest, SimClockAdvances) {
  SimClock c(10);
  EXPECT_EQ(c.Now(), 10);
  c.Advance(5);
  EXPECT_EQ(c.Now(), 15);
  c.Advance(-3);  // negative deltas ignored
  EXPECT_EQ(c.Now(), 15);
  c.AdvanceTo(12);  // never backwards
  EXPECT_EQ(c.Now(), 15);
  c.AdvanceTo(20);
  EXPECT_EQ(c.Now(), 20);
}

TEST(ClockTest, RealClockIsReasonable) {
  RealClock c;
  Tick now = c.Now();
  EXPECT_GT(now, 1600000000);  // after Sep 2020
}

// ------------------------------------------------------------------ logging

TEST(LoggingTest, LevelGate) {
  LogLevel before = Logger::GetLevel();
  Logger::SetLevel(LogLevel::kError);
  EXPECT_EQ(Logger::GetLevel(), LogLevel::kError);
  Logger::SetLevel(LogLevel::kWarn);
  EXPECT_EQ(Logger::GetLevel(), LogLevel::kWarn);
  Logger::SetLevel(before);
}

}  // namespace
}  // namespace itag
