// Sparse memory model tests.
#include <gtest/gtest.h>

#include "vhp/common/rng.hpp"
#include "vhp/sim/memory.hpp"

namespace vhp::sim {
namespace {

TEST(Memory, UntouchedReadsAsZero) {
  Memory m{"m"};
  EXPECT_EQ(m.read_u8(0), 0);
  EXPECT_EQ(m.read_u32(0x12345678), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);  // reads allocate nothing
}

TEST(Memory, WriteReadRoundTrip) {
  Memory m{"m"};
  m.write_u32(0x100, 0xdeadbeef);
  EXPECT_EQ(m.read_u32(0x100), 0xdeadbeefu);
  m.write_u8(0x104, 0x42);
  EXPECT_EQ(m.read_u8(0x104), 0x42);
}

TEST(Memory, LittleEndianLayout) {
  Memory m{"m"};
  m.write_u32(0x0, 0x11223344);
  EXPECT_EQ(m.read_u8(0x0), 0x44);
  EXPECT_EQ(m.read_u8(0x3), 0x11);
}

TEST(Memory, CrossPageTransfers) {
  Memory m{"m"};
  const u64 addr = Memory::kPageBytes - 3;  // straddles a page boundary
  const Bytes data{1, 2, 3, 4, 5, 6};
  m.write(addr, data);
  EXPECT_EQ(m.read(addr, data.size()), data);
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(Memory, SparseFootprint) {
  Memory m{"m"};
  m.write_u8(0, 1);
  m.write_u8(1ull << 32, 2);  // 4 GiB away
  EXPECT_EQ(m.resident_pages(), 2u);
  EXPECT_EQ(m.read_u8(0), 1);
  EXPECT_EQ(m.read_u8(1ull << 32), 2);
}

TEST(Memory, PartialOverwrite) {
  Memory m{"m"};
  m.write(0x10, Bytes{1, 2, 3, 4});
  m.write(0x11, Bytes{9, 9});
  EXPECT_EQ(m.read(0x10, 4), (Bytes{1, 9, 9, 4}));
}

TEST(Memory, ClearDropsEverything) {
  Memory m{"m"};
  m.write_u32(0x20, 7);
  m.clear();
  EXPECT_EQ(m.read_u32(0x20), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(Memory, AccessCountersTrack) {
  Memory m{"m"};
  m.write_u8(0, 1);
  (void)m.read_u8(0);
  (void)m.read_u8(1);
  EXPECT_EQ(m.writes(), 1u);
  EXPECT_EQ(m.reads(), 2u);
}

TEST(Memory, EveryWritePathBumpsItsPageVersion) {
  Memory m{"m"};
  const Memory::Page& page = m.page(0x1000);
  EXPECT_EQ(page.bytes, nullptr);  // a record, no storage
  EXPECT_EQ(m.resident_pages(), 0u);
  u64 seen = page.version;
  const auto bumped = [&] {
    const bool moved = page.version != seen;
    seen = page.version;
    return moved;
  };
  m.write_u32(0x1004, 1);
  EXPECT_TRUE(bumped());
  m.write_u8(0x1fff, 2);
  EXPECT_TRUE(bumped());
  m.write(0x1ffe, Bytes{3, 4, 5});  // straddles into the next page
  EXPECT_TRUE(bumped());
  EXPECT_EQ(m.page(0x2000).version, 1u);
  (void)m.read_u32(0x1004);
  EXPECT_FALSE(bumped());
  m.write_u8(0x3000, 6);  // another page
  EXPECT_FALSE(bumped());
  EXPECT_EQ(&m.page(0x1abc), &page);
  EXPECT_EQ(page.bytes->at(4), 1);
}

TEST(Memory, ClearFreesStorageAndKeepsPageRecords) {
  Memory m{"m"};
  m.write_u32(0x20, 7);
  const Memory::Page& page = m.page(0x20);
  const u64 before = page.version;
  m.clear();
  EXPECT_EQ(page.bytes, nullptr);
  EXPECT_GT(page.version, before);
  EXPECT_EQ(&m.page(0x20), &page);
  m.write_u32(0x20, 9);
  EXPECT_EQ(m.read_u32(0x20), 9u);
  EXPECT_EQ(m.resident_pages(), 1u);
}

class MemoryRandomSweep : public ::testing::TestWithParam<u64> {};

TEST_P(MemoryRandomSweep, RandomWritesMatchReferenceMap) {
  // Property: the sparse memory behaves exactly like a flat reference map.
  Rng rng{GetParam()};
  Memory m{"m"};
  std::unordered_map<u64, u8> reference;
  for (int op = 0; op < 2000; ++op) {
    // Cluster addresses so page-boundary cases are hit often.
    const u64 addr = rng.below(4 * Memory::kPageBytes) +
                     (rng.below(4) << 40);
    const auto len = rng.range(1, 16);
    if (rng.chance(0.6)) {
      Bytes data(len);
      for (auto& b : data) b = static_cast<u8>(rng.below(256));
      m.write(addr, data);
      for (std::size_t i = 0; i < data.size(); ++i) {
        reference[addr + i] = data[i];
      }
    } else {
      const Bytes got = m.read(addr, len);
      for (std::size_t i = 0; i < got.size(); ++i) {
        auto it = reference.find(addr + i);
        const u8 want = it == reference.end() ? 0 : it->second;
        ASSERT_EQ(got[i], want) << "addr " << addr + i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryRandomSweep,
                         ::testing::Values(1, 2, 3, 42, 1234));

}  // namespace
}  // namespace vhp::sim
