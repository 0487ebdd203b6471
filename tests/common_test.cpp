// Unit tests for vhp::common — types, status, bytes, format, checksum,
// rng.
#include <gtest/gtest.h>

#include "vhp/common/bytes.hpp"
#include "vhp/common/checksum.hpp"
#include "vhp/common/format.hpp"
#include "vhp/common/rng.hpp"
#include "vhp/common/status.hpp"
#include "vhp/common/types.hpp"

namespace vhp {
namespace {

TEST(CountTypes, ArithmeticAndComparison) {
  Cycles a{10};
  Cycles b{3};
  EXPECT_EQ((a + b).value(), 13u);
  EXPECT_EQ((a - b).value(), 7u);
  EXPECT_EQ((a * 4).value(), 40u);
  EXPECT_EQ((a / 2).value(), 5u);
  EXPECT_LT(b, a);
  a += b;
  EXPECT_EQ(a.value(), 13u);
  ++a;
  EXPECT_EQ(a.value(), 14u);
}

TEST(CountTypes, DistinctTagsDoNotMix) {
  // Compile-time property: Cycles and SwTicks are different types.
  static_assert(!std::is_same_v<Cycles, SwTicks>);
  static_assert(!std::is_same_v<Cycles, HwTicks>);
  EXPECT_EQ((100_cyc).value(), 100u);
  EXPECT_EQ((7_swt).value(), 7u);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s{StatusCode::kNotFound, "missing widget"};
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing widget");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> good{42};
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(7), 42);

  Result<int> bad{Status{StatusCode::kUnavailable, "down"}};
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Bytes, RoundTripAllWidths) {
  Bytes buf;
  ByteWriter w{buf};
  w.u8v(0xab);
  w.u16v(0x1234);
  w.u32v(0xdeadbeef);
  w.u64v(0x0102030405060708ULL);
  ByteReader r{buf};
  EXPECT_EQ(r.u8v(), 0xab);
  EXPECT_EQ(r.u16v(), 0x1234);
  EXPECT_EQ(r.u32v(), 0xdeadbeefu);
  EXPECT_EQ(r.u64v(), 0x0102030405060708ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, LittleEndianOnTheWire) {
  Bytes buf;
  ByteWriter w{buf};
  w.u32v(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(Bytes, SizedBytesRoundTrip) {
  Bytes buf;
  ByteWriter w{buf};
  const Bytes payload{1, 2, 3, 4, 5};
  w.sized_bytes(payload);
  ByteReader r{buf};
  EXPECT_EQ(r.sized_bytes(), payload);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, OverrunSetsFailedState) {
  Bytes buf{1, 2};
  ByteReader r{buf};
  (void)r.u32v();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, FailedReaderStaysFailed) {
  Bytes buf{1, 2, 3, 4};
  ByteReader r{buf};
  (void)r.u64v();  // overrun
  EXPECT_FALSE(r.ok());
  (void)r.u8v();  // would fit originally, but reader is poisoned
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, HexDumpTruncates) {
  Bytes buf(40, 0xaa);
  const std::string dump = hex_dump(buf, 4);
  EXPECT_EQ(dump.substr(0, 11), "aa aa aa aa");
  EXPECT_NE(dump.find("+36"), std::string::npos);
}

TEST(Format, SubstitutesInOrder) {
  EXPECT_EQ(strformat("a={} b={}", 1, "two"), "a=1 b=two");
}

TEST(Format, SurplusArgumentsAppended) {
  EXPECT_EQ(strformat("x={}", 1, 2), "x=1 2");
}

TEST(Format, SurplusPlaceholdersKept) {
  EXPECT_EQ(strformat("x={} y={}", 1), "x=1 y={}");
}

TEST(InternetChecksum, KnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum 0x220d.
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, EmbeddedChecksumVerifies) {
  Bytes data{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00};
  const u16 ck = internet_checksum(data);
  data.push_back(static_cast<u8>(ck >> 8));
  data.push_back(static_cast<u8>(ck & 0xff));
  EXPECT_TRUE(internet_checksum_ok(data));
  data[0] ^= 0x01;
  EXPECT_FALSE(internet_checksum_ok(data));
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const Bytes odd{0x12, 0x34, 0x56};
  const Bytes even{0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(internet_checksum(odd), internet_checksum(even));
}

TEST(Crc32, KnownVectors) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(std::span(reinterpret_cast<const u8*>(s.data()), s.size())),
            0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng{7};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{99};
  constexpr int kSamples = 10000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

}  // namespace
}  // namespace vhp
