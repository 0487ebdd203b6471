// The ISS decode cache and its basic blocks: a decoded op runs only while
// its RAM page is unchanged, run() batches stop exactly where a step()
// loop would, and fetches from MMIO windows stay uncached. Fiber-free (no
// board, no RTOS), so ThreadSanitizer covers it.
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

// ---------- basic blocks against single steps ----------

/// Where a random block program lives. Both layouts start 64 bytes before
/// a page end, so the program straddles it; in the second, the page after
/// it is overlapped by the MMIO window and fetched through the bus.
constexpr u32 kStraddleCached = 0x2000 - 64;
constexpr u32 kStraddleUncached = 0x5000 - 64;
/// The MMIO window; its page, 0x5000, holds code in the second layout.
constexpr u32 kMmio = 0x5f00;
/// Registers the generator keeps for itself: random ops write x0..x23.
constexpr u32 kInnerCount = 26;
constexpr u32 kLink = 27;
constexpr u32 kPatchWord = 28;
constexpr u32 kPatchAddr = 29;
constexpr u32 kOuterCount = 30;
constexpr u32 kDataBase = 31;

/// A benign word to patch over a slot: an ALU-immediate op into x1..x23.
u32 patch_word(u64 seed) {
  constexpr u32 kFunct3[] = {0, 2, 3, 4, 6, 7};
  return enc::i_type(static_cast<i32>(seed % 4096) - 2048,
                     static_cast<u32>((seed >> 12) % 32),
                     kFunct3[(seed >> 17) % 6],
                     1 + static_cast<u32>((seed >> 20) % 23), 0x13);
}

/// A seeded random program for the block executor, with every op kind
/// (so every handler's cost meets the block builder's) and the features
/// that end or cut a block: forward and backward branches, JAL, JALR,
/// stores into the running code (into slots, nops kept for patching: an
/// earlier slot of the current block, the op right after the store, or
/// any slot), MMIO loads, ECALLs and illegal words mid-program. Ends in
/// EBREAK.
struct BlockProgram {
  Asm code;
  u32 base = 0;
  std::vector<u32> slots;  // addresses of the patchable nops
  /// Words Asm does not emit (MULHSU, FENCE, FENCE.I, illegal words),
  /// written over nops at these addresses.
  std::vector<std::pair<u32, u32>> words;
};

BlockProgram block_program(Rng& rng, u32 base) {
  BlockProgram p;
  p.base = base;
  Asm& a = p.code;
  std::vector<u32> block_slots;  // slots since the last control transfer
  const auto slot = [&] {
    p.slots.push_back(base + a.bytes());
    block_slots.push_back(p.slots.back());
    a.nop();
  };
  const auto transfer = [&] { block_slots.clear(); };
  const auto rd = [&] { return static_cast<u32>(rng.below(24)); };
  const auto rs = [&] { return static_cast<u32>(rng.below(32)); };
  const auto imm12 = [&] { return static_cast<i32>(rng.below(4096)) - 2048; };
  const auto shamt = [&] { return static_cast<u32>(rng.below(32)); };
  const auto word = [&](u32 w) {
    p.words.emplace_back(base + a.bytes(), w);
    a.nop();
  };
  const auto alu = [&] {
    const u32 d = rd();
    switch (rng.below(30)) {
      case 0: a.addi(d, rs(), imm12()); break;
      case 1: a.slti(d, rs(), imm12()); break;
      case 2: a.sltiu(d, rs(), imm12()); break;
      case 3: a.xori(d, rs(), imm12()); break;
      case 4: a.ori(d, rs(), imm12()); break;
      case 5: a.andi(d, rs(), imm12()); break;
      case 6: a.slli(d, rs(), shamt()); break;
      case 7: a.srli(d, rs(), shamt()); break;
      case 8: a.srai(d, rs(), shamt()); break;
      case 9: a.add(d, rs(), rs()); break;
      case 10: a.sub(d, rs(), rs()); break;
      case 11: a.sll(d, rs(), rs()); break;
      case 12: a.slt(d, rs(), rs()); break;
      case 13: a.sltu(d, rs(), rs()); break;
      case 14: a.xor_(d, rs(), rs()); break;
      case 15: a.srl(d, rs(), rs()); break;
      case 16: a.sra(d, rs(), rs()); break;
      case 17: a.or_(d, rs(), rs()); break;
      case 18: a.and_(d, rs(), rs()); break;
      case 19: a.mul(d, rs(), rs()); break;
      case 20: a.mulh(d, rs(), rs()); break;
      case 21: word(enc::r_type(1, rs(), rs(), 2, d, 0x33)); break;  // mulhsu
      case 22: a.mulhu(d, rs(), rs()); break;
      case 23: a.div(d, rs(), rs()); break;
      case 24: a.divu(d, rs(), rs()); break;
      case 25: a.rem(d, rs(), rs()); break;
      case 26: a.remu(d, rs(), rs()); break;
      case 27: a.lui(d, static_cast<u32>(rng.below(1u << 20))); break;
      case 28: a.auipc(d, static_cast<u32>(rng.below(1u << 20))); break;
      default: word(rng.below(2) == 0 ? 0x0ff0000fu : 0x0000100fu); break;
    }
  };
  // Loads and stores of every width, aligned to it, into the data page.
  const auto offset = [&](u32 width) {
    return static_cast<i32>(rng.below(2048 / width) * width);
  };
  const auto load = [&] {
    const u32 d = rd();
    switch (rng.below(5)) {
      case 0: a.lb(d, kDataBase, offset(1)); break;
      case 1: a.lh(d, kDataBase, offset(2)); break;
      case 2: a.lw(d, kDataBase, offset(4)); break;
      case 3: a.lbu(d, kDataBase, offset(1)); break;
      default: a.lhu(d, kDataBase, offset(2)); break;
    }
  };
  const auto store = [&] {
    switch (rng.below(3)) {
      case 0: a.sb(rs(), kDataBase, offset(1)); break;
      case 1: a.sh(rs(), kDataBase, offset(2)); break;
      default: a.sw(rs(), kDataBase, offset(4)); break;
    }
  };

  a.li(kDataBase, kData);
  a.addi(kOuterCount, 0, static_cast<i32>(rng.range(2, 4)));
  for (u32 r = 1; r < 24; ++r) a.li(r, static_cast<u32>(rng.next()));
  const auto loop = a.make_label();
  a.bind(loop);
  transfer();
  std::vector<std::pair<Asm::Label, int>> pending;  // forward branches
  const int body = static_cast<int>(rng.range(30, 120));
  for (int i = 0; i < body; ++i) {
    for (auto& [label, left] : pending) {
      if (left-- == 0) {
        a.bind(label);
        transfer();
      }
    }
    std::erase_if(pending, [](const auto& e) { return e.second < 0; });
    switch (rng.below(14)) {
      case 0: case 1: case 2: alu(); break;
      case 3: slot(); break;
      case 4: load(); break;
      case 5: store(); break;
      case 6: {  // store into the code: li, li, sw, then maybe the target
        a.li(kPatchWord, patch_word(rng.next()));
        const u32 next = base + a.bytes() + 12;  // right after the sw
        const u64 pick = rng.below(3);
        u32 target = next;
        if (pick == 0 && !block_slots.empty()) {
          target = block_slots[rng.below(block_slots.size())];
        } else if (pick == 1 && !p.slots.empty()) {
          target = p.slots[rng.below(p.slots.size())];
        }
        a.li(kPatchAddr, target);
        a.sw(kPatchWord, kPatchAddr, 0);
        if (target == next) slot();
        break;
      }
      case 7: {  // forward branch over 0-3 items
        const auto skip = a.make_label();
        const u32 r1 = rs();
        const u32 r2 = rs();
        switch (rng.below(6)) {
          case 0: a.beq(r1, r2, skip); break;
          case 1: a.bne(r1, r2, skip); break;
          case 2: a.blt(r1, r2, skip); break;
          case 3: a.bge(r1, r2, skip); break;
          case 4: a.bltu(r1, r2, skip); break;
          default: a.bgeu(r1, r2, skip); break;
        }
        transfer();
        pending.emplace_back(skip, static_cast<int>(rng.range(0, 3)));
        break;
      }
      case 8: {  // backward branch: an inner loop of 1-3 passes
        a.addi(kInnerCount, 0, static_cast<i32>(rng.range(1, 3)));
        const auto inner = a.make_label();
        a.bind(inner);
        transfer();
        for (u64 n = rng.range(1, 3); n > 0; --n) alu();
        a.addi(kInnerCount, kInnerCount, -1);
        a.bne(kInnerCount, 0, inner);
        transfer();
        break;
      }
      case 9: {  // JAL over one op
        const auto over = a.make_label();
        a.jal(kLink, over);
        alu();
        a.bind(over);
        transfer();
        break;
      }
      case 10: {  // JALR over one op, linking into its own base register
        a.auipc(kLink, 0);
        a.addi(kLink, kLink, 16);
        a.jalr(kLink, kLink, 0);
        alu();
        transfer();
        break;
      }
      case 11: {  // an MMIO load, whose handler patches a code slot
        a.li(kPatchAddr, kMmio);
        a.lw(rd(), kPatchAddr, 0);
        break;
      }
      case 12: a.ecall(); transfer(); break;
      default:
        word(0xffffffffu);
        transfer();
        break;
    }
  }
  for (auto& [label, left] : pending) a.bind(label);
  a.addi(kOuterCount, kOuterCount, -1);
  a.bne(kOuterCount, 0, loop);
  a.ebreak();
  return p;
}

/// A machine for block_program(): RAM, the MMIO window and a Cpu. The
/// window's load handler writes a patch word over a code slot, as another
/// core would while this one waits on the device.
struct BlockMachine {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  Cpu cpu{bus};
  u64 mmio_loads = 0;

  explicit BlockMachine(const BlockProgram& p) {
    p.code.load_into(ram, p.base);
    for (const auto& [addr, w] : p.words) ram.write_u32(addr, w);
    bus.map_mmio(
        kMmio, 0x100,
        [this, slots = p.slots](u32, unsigned) {
          ++mmio_loads;
          if (!slots.empty()) {
            ram.write_u32(slots[mmio_loads % slots.size()],
                          patch_word(mmio_loads * 0x9e3779b97f4a7c15ull));
          }
          return static_cast<u32>(mmio_loads);
        },
        nullptr);
    cpu.set_pc(p.base);
  }
};

class IssBlocks : public ::testing::TestWithParam<u64> {};

TEST_P(IssBlocks, RunMatchesStepAtEveryBatchEnd) {
  Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const BlockProgram program =
        block_program(rng, round % 2 == 0 ? kStraddleCached
                                          : kStraddleUncached);
    BlockMachine stepped{program};
    BlockMachine batched{program};
    SCOPED_TRACE(::testing::Message() << "round " << round);

    bool halted = false;
    for (int batch = 0; batch < 20000 && !halted; ++batch) {
      const u64 budget = rng.below(81);
      const u64 limit = rng.below(8) == 0
                            ? kNoLimit
                            : batched.cpu.instructions_retired() + rng.below(50);
      const StepResult got = batched.cpu.run(budget, limit);

      // The reference: one instruction at a time, stopping where run()
      // promises to stop.
      StepResult want;
      want.cycles = 0;
      while (stepped.cpu.instructions_retired() < limit) {
        const StepResult one = stepped.cpu.step();
        want.cycles += one.cycles;
        want.trap = one.trap;
        want.instruction = one.instruction;
        if (one.trap != TrapKind::kNone || want.cycles >= budget) break;
      }

      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      ASSERT_EQ(got.cycles, want.cycles);
      ASSERT_EQ(got.trap, want.trap);
      ASSERT_EQ(got.instruction, want.instruction);
      ASSERT_EQ(batched.cpu.pc(), stepped.cpu.pc());
      ASSERT_EQ(batched.cpu.instructions_retired(),
                stepped.cpu.instructions_retired());
      for (unsigned r = 0; r < 32; ++r) {
        ASSERT_EQ(batched.cpu.reg(r), stepped.cpu.reg(r)) << "x" << r;
      }
      ASSERT_EQ(batched.mmio_loads, stepped.mmio_loads);
      ASSERT_EQ(batched.ram.read(kData, sim::Memory::kPageBytes),
                stepped.ram.read(kData, sim::Memory::kPageBytes));
      ASSERT_EQ(batched.ram.read(program.base, 2 * sim::Memory::kPageBytes),
                stepped.ram.read(program.base, 2 * sim::Memory::kPageBytes));

      if (got.trap == TrapKind::kIllegalInstruction) {  // skip the word
        batched.cpu.set_pc(batched.cpu.pc() + 4);
        stepped.cpu.set_pc(stepped.cpu.pc() + 4);
      }
      ASSERT_NE(got.trap, TrapKind::kMisalignedFetch);
      halted = got.trap == TrapKind::kEbreak;
    }
    EXPECT_TRUE(halted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IssBlocks, ::testing::Values(3, 11, 99, 4242));

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
