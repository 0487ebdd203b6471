// The ISS decode cache: a decoded op runs only while its RAM page is
// unchanged, run() batches stop exactly where a step() loop would, and
// fetches from MMIO windows stay uncached. Fiber-free (no board, no RTOS),
// so ThreadSanitizer covers it.
#include <gtest/gtest.h>

#include "vhp/common/rng.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/cpu.hpp"
#include "vhp/iss/timed_bus.hpp"

namespace vhp::iss {
namespace {

constexpr u32 kBase = 0x1000;
constexpr u32 kData = 0x8000;
constexpr u64 kNoLimit = ~u64{0};
/// A budget far beyond what the finite test programs need, so a broken
/// cache fails a test instead of hanging it.
constexpr u64 kManyCycles = 10'000;
/// addi x6, x6, 100: the word the tests patch over "addi x6, x6, 1".
constexpr u32 kAddX6By100 = enc::i_type(100, 6, 0, 6, 0x13);

/// x6 += 1 at `target`, executed twice; between the two passes the
/// program stores kAddX6By100 over `target`. Ends in ECALL with x6 = 101.
Asm self_patching_program() {
  Asm a;
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.addi(8, 0, 2);  // passes left
  a.bind(loop);
  const u32 target = kBase + a.bytes();
  a.addi(6, 6, 1);
  a.addi(8, 8, -1);
  a.beq(8, 0, done);
  a.li(5, kAddX6By100);
  a.li(7, target);
  a.sw(5, 7, 0);
  a.j(loop);
  a.bind(done);
  a.ecall();
  return a;
}

/// x6 += 1 forever; the add is the first word at kBase.
Asm counting_loop() {
  Asm a;
  const auto loop = a.make_label();
  a.bind(loop);
  a.addi(6, 6, 1);
  a.j(loop);
  return a;
}

struct Machine {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  Cpu cpu{bus};

  explicit Machine(const Asm& program) {
    program.load_into(ram, kBase);
    cpu.set_pc(kBase);
  }
};

TEST(IssDecodeCache, SelfModifyingCodeUnderStep) {
  Machine m{self_patching_program()};
  StepResult r;
  for (int i = 0; i < 100 && r.trap == TrapKind::kNone; ++i) r = m.cpu.step();
  EXPECT_EQ(r.trap, TrapKind::kEcall);
  EXPECT_EQ(m.cpu.reg(6), 101u);
}

TEST(IssDecodeCache, SelfModifyingCodeInsideOneRunBatch) {
  Machine m{self_patching_program()};
  const StepResult r = m.cpu.run(kManyCycles, kNoLimit);
  EXPECT_EQ(r.trap, TrapKind::kEcall);
  EXPECT_EQ(r.instruction, 0x00000073u);
  EXPECT_EQ(m.cpu.reg(6), 101u);
}

TEST(IssDecodeCache, StoreByAnotherCpuReachesTheNextFetch) {
  Machine a{counting_loop()};
  // Core B, in another page of the same memory, patches A's loop body.
  Asm patch;
  patch.li(5, kAddX6By100);
  patch.li(7, kBase);
  patch.sw(5, 7, 0);
  patch.ecall();
  constexpr u32 kPatchAt = kBase + 0x2000;
  patch.load_into(a.ram, kPatchAt);
  MemoryBus bus_b{a.ram};
  Cpu b{bus_b};
  b.set_pc(kPatchAt);

  (void)a.cpu.run(30, kNoLimit);  // ten passes: the loop is decoded
  ASSERT_EQ(a.cpu.pc(), kBase);
  const u32 before = a.cpu.reg(6);
  ASSERT_EQ(before, 10u);
  EXPECT_EQ(b.run(kManyCycles, kNoLimit).trap, TrapKind::kEcall);
  (void)a.cpu.step();
  EXPECT_EQ(a.cpu.reg(6), before + 100);
}

TEST(IssDecodeCache, HostWriteBetweenRunsTakesEffect) {
  Machine m{counting_loop()};
  (void)m.cpu.run(30, kNoLimit);
  ASSERT_EQ(m.cpu.reg(6), 10u);
  m.ram.write_u32(kBase, kAddX6By100);
  (void)m.cpu.run(3, kNoLimit);  // one pass
  EXPECT_EQ(m.cpu.reg(6), 110u);
}

TEST(IssDecodeCache, ClearAndReloadRunsTheNewProgram) {
  Machine m{counting_loop()};
  (void)m.cpu.run(30, kNoLimit);
  m.ram.clear();
  EXPECT_EQ(m.ram.resident_pages(), 0u);
  // Cleared memory reads as zero, an illegal word, even though the page
  // was decoded before.
  m.cpu.set_pc(kBase);
  const StepResult cleared = m.cpu.step();
  EXPECT_EQ(cleared.trap, TrapKind::kIllegalInstruction);
  EXPECT_EQ(cleared.instruction, 0u);

  Asm next;
  next.addi(9, 0, 42);
  next.ecall();
  next.load_into(m.ram, kBase);
  EXPECT_EQ(m.cpu.run(kManyCycles, kNoLimit).trap, TrapKind::kEcall);
  EXPECT_EQ(m.cpu.reg(9), 42u);
  EXPECT_EQ(m.cpu.pc(), kBase + 8);
}

TEST(IssDecodeCache, MmioFetchIsNotCached) {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  constexpr u32 kWindow = 0xf000'0000u;
  // The device serves "addi x6, x6, 1; jal x0, -4" at offsets 0 and 4.
  const u32 words[] = {enc::i_type(1, 6, 0, 6, 0x13), enc::j_type(-4, 0, 0x6f)};
  u64 fetches = 0;
  bus.map_mmio(
      kWindow, 0x100,
      [&](u32 offset, unsigned) {
        ++fetches;
        return offset < 8 ? words[offset / 4] : 0u;
      },
      nullptr);
  Cpu cpu{bus};
  cpu.set_pc(kWindow);
  (void)cpu.run(30, kNoLimit);
  EXPECT_EQ(cpu.reg(6), 10u);
  EXPECT_EQ(fetches, 20u);  // every execution fetched through the bus
  EXPECT_EQ(bus.ram_page(kWindow + 0xff0), nullptr);
  EXPECT_NE(bus.ram_page(kWindow - 4), nullptr);
}

TEST(IssDecodeCache, LoadIntoX0StillAccessesTheBus) {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  u64 reads = 0;
  bus.map_mmio(
      0xf000'0000u, 0x100,
      [&](u32, unsigned) {
        ++reads;  // a device read with a side effect
        return 7u;
      },
      nullptr);
  Asm a;
  a.li(1, 0xf000'0000u);
  a.lw(0, 1, 0);
  a.ecall();
  a.load_into(ram, kBase);
  Cpu cpu{bus};
  cpu.set_pc(kBase);
  EXPECT_EQ(cpu.run(kManyCycles, kNoLimit).trap, TrapKind::kEcall);
  EXPECT_EQ(reads, 1u);
  EXPECT_EQ(cpu.reg(0), 0u);
}

TEST(TimedBus, RecordsTheFetchFromThePcAndDataFromTheBus) {
  Asm a;
  a.li(1, kBase);
  a.lw(2, 1, 0);  // loads its program's first word
  a.sw(2, 1, 0x100);
  sim::Memory ram{"ram"};
  ram.write_u32(a.load_into(ram, kBase), 0xffffffffu);  // then an illegal word
  MemoryBus bus{ram};
  TimedBus timed{bus};
  Cpu cpu{timed};
  cpu.set_pc(kBase);
  const auto step = [&] {
    timed.begin_instruction(cpu.pc());
    const StepResult r = cpu.step();
    return std::pair{r, timed.accesses()};
  };

  for (int i = 0; i < 2; ++i) {  // li: a fetch and no data access
    const auto [r, acc] = step();
    EXPECT_TRUE(acc.has_fetch);
    EXPECT_EQ(acc.fetch_addr, kBase + 4u * i);
    EXPECT_FALSE(acc.has_data);
  }
  {
    const auto [r, acc] = step();  // lw from kBase: the load is data
    EXPECT_EQ(acc.fetch_addr, kBase + 8);
    EXPECT_TRUE(acc.has_data);
    EXPECT_EQ(acc.data_addr, kBase);
    EXPECT_FALSE(acc.data_is_store);
  }
  {
    const auto [r, acc] = step();
    EXPECT_TRUE(acc.has_data);
    EXPECT_EQ(acc.data_addr, kBase + 0x100);
    EXPECT_TRUE(acc.data_is_store);
  }
  {
    const auto [r, acc] = step();  // an illegal word was still fetched
    EXPECT_EQ(r.trap, TrapKind::kIllegalInstruction);
    EXPECT_TRUE(acc.has_fetch);
    EXPECT_FALSE(acc.has_data);
  }
  cpu.set_pc(kBase + 2);
  {
    const auto [r, acc] = step();  // a misaligned pc fetches nothing
    EXPECT_EQ(r.trap, TrapKind::kMisalignedFetch);
    EXPECT_FALSE(acc.has_fetch);
  }
}

/// A seeded random program: ALU, M-extension, forward branches, loads and
/// stores into the data page (base in x31), all inside a loop counted down
/// in x30, ending in ECALL. Writes to x0 are included.
Asm random_program(Rng& rng) {
  Asm a;
  a.li(31, kData);
  a.addi(30, 0, static_cast<i32>(rng.range(2, 6)));
  for (u32 r = 1; r < 30; ++r) a.li(r, static_cast<u32>(rng.next()));
  const auto loop = a.make_label();
  a.bind(loop);
  const auto rd = [&] { return static_cast<u32>(rng.below(30)); };  // x0..x29
  const auto rs = [&] { return static_cast<u32>(rng.below(32)); };
  const auto imm12 = [&] { return static_cast<i32>(rng.below(4096)) - 2048; };
  std::vector<std::pair<Asm::Label, int>> pending;  // forward branch targets
  const int body = static_cast<int>(rng.range(20, 80));
  for (int i = 0; i < body; ++i) {
    for (auto& [label, left] : pending) {
      if (left-- == 0) a.bind(label);
    }
    std::erase_if(pending, [](const auto& p) { return p.second < 0; });
    const u32 d = rd();
    const u32 s1 = rs();
    const u32 s2 = rs();
    switch (rng.below(8)) {
      case 0: {
        switch (rng.below(9)) {
          case 0: a.addi(d, s1, imm12()); break;
          case 1: a.slti(d, s1, imm12()); break;
          case 2: a.sltiu(d, s1, imm12()); break;
          case 3: a.xori(d, s1, imm12()); break;
          case 4: a.ori(d, s1, imm12()); break;
          case 5: a.andi(d, s1, imm12()); break;
          case 6: a.slli(d, s1, static_cast<u32>(rng.below(32))); break;
          case 7: a.srli(d, s1, static_cast<u32>(rng.below(32))); break;
          default: a.srai(d, s1, static_cast<u32>(rng.below(32))); break;
        }
        break;
      }
      case 1: {
        switch (rng.below(10)) {
          case 0: a.add(d, s1, s2); break;
          case 1: a.sub(d, s1, s2); break;
          case 2: a.sll(d, s1, s2); break;
          case 3: a.slt(d, s1, s2); break;
          case 4: a.sltu(d, s1, s2); break;
          case 5: a.xor_(d, s1, s2); break;
          case 6: a.srl(d, s1, s2); break;
          case 7: a.sra(d, s1, s2); break;
          case 8: a.or_(d, s1, s2); break;
          default: a.and_(d, s1, s2); break;
        }
        break;
      }
      case 2: {
        switch (rng.below(7)) {
          case 0: a.mul(d, s1, s2); break;
          case 1: a.mulh(d, s1, s2); break;
          case 2: a.mulhu(d, s1, s2); break;
          case 3: a.div(d, s1, s2); break;
          case 4: a.divu(d, s1, s2); break;
          case 5: a.rem(d, s1, s2); break;
          default: a.remu(d, s1, s2); break;
        }
        break;
      }
      case 3: {
        const i32 off = static_cast<i32>(rng.below(512)) * 4;
        switch (rng.below(5)) {
          case 0: a.lb(d, 31, off + static_cast<i32>(rng.below(4))); break;
          case 1: a.lh(d, 31, off + 2 * static_cast<i32>(rng.below(2))); break;
          case 2: a.lw(d, 31, off); break;
          case 3: a.lbu(d, 31, off + static_cast<i32>(rng.below(4))); break;
          default: a.lhu(d, 31, off); break;
        }
        break;
      }
      case 4: {
        const i32 off = static_cast<i32>(rng.below(512)) * 4;
        switch (rng.below(3)) {
          case 0: a.sb(s1, 31, off + static_cast<i32>(rng.below(4))); break;
          case 1: a.sh(s1, 31, off); break;
          default: a.sw(s1, 31, off); break;
        }
        break;
      }
      case 5: {
        const auto skip = a.make_label();
        switch (rng.below(6)) {
          case 0: a.beq(s1, s2, skip); break;
          case 1: a.bne(s1, s2, skip); break;
          case 2: a.blt(s1, s2, skip); break;
          case 3: a.bge(s1, s2, skip); break;
          case 4: a.bltu(s1, s2, skip); break;
          default: a.bgeu(s1, s2, skip); break;
        }
        pending.emplace_back(skip, static_cast<int>(rng.range(0, 3)));
        break;
      }
      case 6: a.lui(d, static_cast<u32>(rng.below(1u << 20))); break;
      default: a.auipc(d, static_cast<u32>(rng.below(1u << 20))); break;
    }
  }
  for (auto& [label, left] : pending) a.bind(label);
  a.addi(30, 30, -1);
  a.bne(30, 0, loop);
  a.ecall();
  return a;
}

class IssRunMatchesStep : public ::testing::TestWithParam<u64> {};

TEST_P(IssRunMatchesStep, RandomProgramsEndInTheSameState) {
  Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const Asm program = random_program(rng);
    Machine stepped{program};
    Machine batched{program};

    u64 step_cycles = 0;
    StepResult last;
    for (int i = 0; i < 100000 && last.trap == TrapKind::kNone; ++i) {
      last = stepped.cpu.step();
      step_cycles += last.cycles;
    }
    ASSERT_EQ(last.trap, TrapKind::kEcall) << "round " << round;

    u64 run_cycles = 0;
    StepResult batch;
    for (int i = 0; i < 100000 && batch.trap == TrapKind::kNone; ++i) {
      const u64 budget = rng.below(40);
      const u64 limit =
          batched.cpu.instructions_retired() + rng.range(1, 50);
      batch = batched.cpu.run(budget, limit);
      run_cycles += batch.cycles;
    }

    SCOPED_TRACE(::testing::Message() << "round " << round);
    EXPECT_EQ(batch.trap, last.trap);
    EXPECT_EQ(batch.instruction, last.instruction);
    EXPECT_EQ(run_cycles, step_cycles);
    EXPECT_EQ(batched.cpu.pc(), stepped.cpu.pc());
    EXPECT_EQ(batched.cpu.instructions_retired(),
              stepped.cpu.instructions_retired());
    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(batched.cpu.reg(r), stepped.cpu.reg(r)) << "x" << r;
    }
    EXPECT_EQ(batched.ram.read(kData, sim::Memory::kPageBytes),
              stepped.ram.read(kData, sim::Memory::kPageBytes));
    EXPECT_EQ(batched.ram.read(kBase, 2 * sim::Memory::kPageBytes),
              stepped.ram.read(kBase, 2 * sim::Memory::kPageBytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IssRunMatchesStep,
                         ::testing::Values(1, 7, 42, 2024));

TEST(IssRun, StopsAtTheBudgetTheLimitOrATrap) {
  Machine m{counting_loop()};
  // Each pass costs 3 cycles (addi 1 + jal 2): a budget of 4 ends after
  // the instruction that reaches it.
  StepResult r = m.cpu.run(4, kNoLimit);
  EXPECT_EQ(r.cycles, 4u);
  EXPECT_EQ(m.cpu.instructions_retired(), 3u);
  r = m.cpu.run(kNoLimit, 10);
  EXPECT_EQ(m.cpu.instructions_retired(), 10u);
  EXPECT_EQ(r.trap, TrapKind::kNone);
  // A reached limit runs nothing; a zero budget still runs one.
  r = m.cpu.run(kNoLimit, 10);
  EXPECT_EQ(r.cycles, 0u);
  r = m.cpu.run(0, kNoLimit);
  EXPECT_EQ(m.cpu.instructions_retired(), 11u);
}

}  // namespace
}  // namespace vhp::iss
