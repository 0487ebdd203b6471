// vhp::mem timing-model units (DESIGN.md §13), fiber-free: set-associative
// cache LRU behaviour, banked-memory occupancy and conflicts, the pipeline
// stall formula and its flat-cost degeneration, config validation, and the
// assembled MemorySystem's deterministic cycle arithmetic.
#include <gtest/gtest.h>

#include "vhp/mem/banked_memory.hpp"
#include "vhp/mem/cache.hpp"
#include "vhp/mem/config.hpp"
#include "vhp/mem/pipeline.hpp"
#include "vhp/mem/system.hpp"

namespace vhp::mem {
namespace {

CacheConfig tiny_cache(u32 ways, u32 sets) {
  CacheConfig cfg;
  cfg.line_bytes = 16;
  cfg.ways = ways;
  cfg.sets = sets;
  return cfg;
}

TEST(CacheTest, MissThenHitOnSameLine) {
  Cache c{tiny_cache(2, 4)};
  const CacheAccess first = c.access(0x1000);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.fill_addr, 0x1000u);  // line-aligned
  // Any address inside the same 16-byte line now hits.
  EXPECT_TRUE(c.access(0x1004).hit);
  EXPECT_TRUE(c.access(0x100f).hit);
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(CacheTest, FillAddrIsLineAligned) {
  Cache c{tiny_cache(1, 4)};
  const CacheAccess a = c.access(0x2009);
  EXPECT_FALSE(a.hit);
  EXPECT_EQ(a.fill_addr, 0x2000u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsedWay) {
  // One set, two ways: three distinct lines force an eviction; touching A
  // between fills makes B the LRU victim.
  Cache c{tiny_cache(2, 1)};
  const u64 A = 0x000, B = 0x100, C = 0x200;
  EXPECT_FALSE(c.access(A).hit);
  EXPECT_FALSE(c.access(B).hit);
  EXPECT_TRUE(c.access(A).hit);   // A is now MRU
  EXPECT_FALSE(c.access(C).hit);  // evicts B
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_TRUE(c.access(A).hit);   // A survived
  EXPECT_FALSE(c.access(B).hit);  // B was the victim
}

TEST(CacheTest, DistinctSetsDoNotConflict) {
  // Direct-mapped, 4 sets of 16 bytes: consecutive lines land in
  // consecutive sets and coexist.
  Cache c{tiny_cache(1, 4)};
  for (u64 line = 0; line < 4; ++line) {
    EXPECT_FALSE(c.access(line * 16).hit);
  }
  for (u64 line = 0; line < 4; ++line) {
    EXPECT_TRUE(c.access(line * 16).hit) << "line " << line;
  }
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(CacheTest, InvalidateAllDropsEveryLine) {
  Cache c{tiny_cache(2, 2)};
  c.access(0x0);
  c.access(0x40);
  EXPECT_TRUE(c.access(0x0).hit);
  c.invalidate_all();
  EXPECT_FALSE(c.access(0x0).hit);
  EXPECT_FALSE(c.access(0x40).hit);
}

BankedMemoryConfig bank_cfg() {
  BankedMemoryConfig cfg;
  cfg.banks = 4;
  cfg.stride_bytes = 32;
  cfg.access_cycles = 6;
  cfg.busy_cycles = 4;
  return cfg;
}

TEST(BankedMemoryTest, AddressesInterleaveByStride) {
  BankedMemory m{bank_cfg()};
  EXPECT_EQ(m.bank_of(0), 0u);
  EXPECT_EQ(m.bank_of(32), 1u);
  EXPECT_EQ(m.bank_of(64), 2u);
  EXPECT_EQ(m.bank_of(96), 3u);
  EXPECT_EQ(m.bank_of(128), 0u);  // wraps
  EXPECT_EQ(m.bank_of(33), 1u);   // within-stride offset ignored
}

TEST(BankedMemoryTest, UncontendedRequestCompletesAtAccessLatency) {
  BankedMemory m{bank_cfg()};
  const BankAccess a = m.request(0, 100);
  EXPECT_EQ(a.bank, 0u);
  EXPECT_EQ(a.wait_cycles, 0u);
  EXPECT_EQ(a.complete_at, 106u);  // now + access_cycles
  EXPECT_EQ(m.conflicts(), 0u);
}

TEST(BankedMemoryTest, BackToBackSameBankSerializesOnBusyWindow) {
  BankedMemory m{bank_cfg()};
  (void)m.request(0, 0);           // bank 0 busy until cycle 4
  const BankAccess b = m.request(0, 0);
  EXPECT_EQ(b.wait_cycles, 4u);    // queued behind the busy window
  EXPECT_EQ(b.complete_at, 10u);   // starts at 4, + access_cycles
  EXPECT_EQ(m.conflicts(), 1u);
  EXPECT_EQ(m.conflict_wait_cycles(), 4u);
  // A later arrival past the busy window sails through.
  const BankAccess c = m.request(0, 50);
  EXPECT_EQ(c.wait_cycles, 0u);
  EXPECT_EQ(m.conflicts(), 1u);
}

TEST(BankedMemoryTest, DifferentBanksNeverConflict) {
  BankedMemory m{bank_cfg()};
  for (u64 i = 0; i < 4; ++i) {
    const BankAccess a = m.request(i * 32, 0);
    EXPECT_EQ(a.bank, i);
    EXPECT_EQ(a.wait_cycles, 0u);
  }
  EXPECT_EQ(m.conflicts(), 0u);
  EXPECT_EQ(m.requests(), 4u);
  for (u32 b = 0; b < 4; ++b) EXPECT_EQ(m.bank_requests(b), 1u);
}

TEST(PipelineModelTest, IdealMemoryDegeneratesToFlatCost) {
  // The bit-compat property: 1-cycle I-hit and 1-cycle D-hit charge exactly
  // the flat StepResult cost, for any exec cost.
  PipelineModel p;
  EXPECT_EQ(p.instruction(1, 1, 1), 1u);
  EXPECT_EQ(p.instruction(2, 1, 0), 2u);  // branch, no data access
  EXPECT_EQ(p.instruction(34, 1, 1), 34u);  // div
  EXPECT_EQ(p.stats().fetch_stall_cycles, 0u);
  EXPECT_EQ(p.stats().data_stall_cycles, 0u);
  EXPECT_EQ(p.stats().total_cycles, 37u);
  EXPECT_EQ(p.stats().instructions, 3u);
}

TEST(PipelineModelTest, MissLatencyBecomesStallCycles) {
  PipelineModel p;
  // 10-cycle fetch path: 9 cycles of front-end stall on a 1-cycle op.
  EXPECT_EQ(p.instruction(1, 10, 0), 10u);
  EXPECT_EQ(p.stats().fetch_stall_cycles, 9u);
  // 1-cycle fetch hit + 7-cycle data path: 6 cycles of data stall.
  EXPECT_EQ(p.instruction(1, 1, 7), 7u);
  EXPECT_EQ(p.stats().data_stall_cycles, 6u);
}

TEST(MemConfigValidation, PreciseErrorsNamingTheKnob) {
  MemConfig cfg;
  cfg.icache.line_bytes = 48;
  Status s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("icache.line_bytes"), std::string::npos) << s;

  cfg = MemConfig{};
  cfg.dcache.ways = 0;
  s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dcache.ways"), std::string::npos) << s;

  cfg = MemConfig{};
  cfg.icache.sets = 3;
  s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("icache.sets"), std::string::npos) << s;

  cfg = MemConfig{};
  cfg.memory.banks = 0;
  s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("memory.banks"), std::string::npos) << s;

  cfg = MemConfig{};
  cfg.memory.stride_bytes = 24;
  s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("memory.stride_bytes"), std::string::npos) << s;

  cfg = MemConfig{};
  cfg.dcache.hit_cycles = 0;
  s = cfg.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dcache.hit_cycles"), std::string::npos) << s;

  EXPECT_TRUE(MemConfig{}.validate().ok());
}

TEST(MemorySystemTest, FetchTimingIsExactCycleArithmetic) {
  // Defaults: hit 1, miss penalty 2, hop 2, bank access 6.
  // Cold miss at now=0: issue downstream at 0+2; bank request enters the
  // interconnect (hop 2) at 4, completes at 10, returns over the hop at 12;
  // miss path = 12 - 2 = 10; total = hit(1) + penalty(2) + 10 = 13.
  MemorySystem sys{MemConfig{}, 1};
  CorePort& port = sys.port(0);
  EXPECT_EQ(port.fetch(0x1000, 0), 13u);
  // Warm: plain hit.
  EXPECT_EQ(port.fetch(0x1000, 13), 1u);
  EXPECT_EQ(port.icache().misses(), 1u);
  EXPECT_EQ(port.icache().hits(), 1u);
}

TEST(MemorySystemTest, CoresContendOnSharedBanks) {
  MemorySystem sys{MemConfig{}, 2};
  // Both cores cold-miss lines mapping to bank 0 at the same virtual time:
  // the second fill queues behind the first's busy window.
  const u64 line_a = 0;
  const u64 line_b = 32 * 4;  // banks=4, stride=32 -> same bank, other line
  EXPECT_EQ(sys.memory().bank_of(line_a), sys.memory().bank_of(line_b));
  const u64 first = sys.port(0).data_access(line_a, false, 0);
  const u64 second = sys.port(1).data_access(line_b, true, 0);
  EXPECT_GT(second, first);  // contention stall is visible in the timing
  EXPECT_EQ(sys.memory().conflicts(), 1u);
}

TEST(MemorySystemTest, IdenticalAccessStreamsTimeIdentically) {
  // Determinism: the model is pure arithmetic over (addr, now) streams.
  auto run = [] {
    MemorySystem sys{MemConfig{}, 2};
    u64 sum = 0;
    u64 now = 0;
    for (u64 i = 0; i < 200; ++i) {
      const u32 core = i % 2 == 0 ? 0 : 1;
      const u64 addr = (i * 52) % 4096;
      const u64 cost = sys.port(core).data_access(addr, i % 3 == 0, now);
      sum += cost;
      now += cost;
    }
    return std::tuple{sum, sys.memory().conflicts(),
                      sys.port(0).dcache().misses(),
                      sys.port(1).dcache().misses()};
  };
  EXPECT_EQ(run(), run());
}

TEST(MemorySystemTest, MetricsCollectorPublishesGauges) {
  MemorySystem sys{MemConfig{}, 2};
  (void)sys.port(0).fetch(0x0, 0);
  (void)sys.port(1).fetch(0x0, 0);  // same line, other core: its own miss
  (void)sys.port(0).pipeline().instruction(1, 13, 0);
  sys.publish_stats();
  auto& metrics = sys.obs().metrics();
  EXPECT_EQ(metrics.gauge("mem.requests").value(), 2);
  EXPECT_EQ(metrics.gauge("mem.core0.instructions").value(), 1);
  EXPECT_EQ(metrics.gauge("mem.core0.fetch_stall_cycles").value(), 12);
  EXPECT_EQ(sys.port(1).icache().misses(), 1u);
}

}  // namespace
}  // namespace vhp::mem
