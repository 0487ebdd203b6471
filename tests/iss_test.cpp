// RV32IM instruction-set simulator tests: instruction semantics, the mini
// assembler, whole programs, and the firmware integration with the board.
#include <gtest/gtest.h>

#include <thread>

#include "vhp/common/checksum.hpp"
#include "vhp/common/rng.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/cpu.hpp"
#include "vhp/iss/runner.hpp"
#include "vhp/net/inproc.hpp"

namespace vhp::iss {
namespace {

constexpr u32 kBase = 0x1000;

/// Runs `a`'s program on a fresh CPU until ECALL/EBREAK or `max` steps.
struct ProgramRun {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  Cpu cpu{bus};
  TrapKind final_trap = TrapKind::kNone;

  explicit ProgramRun(const Asm& a, u64 max = 100000) {
    a.load_into(ram, kBase);
    cpu.set_pc(kBase);
    cpu.set_reg(Cpu::kRegSp, 0x20000);
    for (u64 i = 0; i < max; ++i) {
      const StepResult r = cpu.step();
      if (r.trap != TrapKind::kNone) {
        final_trap = r.trap;
        return;
      }
    }
    ADD_FAILURE() << "program did not terminate";
  }
};

TEST(IssAlu, ImmediateArithmetic) {
  Asm a;
  a.addi(1, 0, 100);
  a.addi(2, 1, -30);     // 70
  a.slti(3, 2, 71);      // 1
  a.sltiu(4, 2, 70);     // 0
  a.xori(5, 2, 0xff);    // 70 ^ 255
  a.ori(6, 2, 0x0f);
  a.andi(7, 2, 0x3c);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(1), 100u);
  EXPECT_EQ(r.cpu.reg(2), 70u);
  EXPECT_EQ(r.cpu.reg(3), 1u);
  EXPECT_EQ(r.cpu.reg(4), 0u);
  EXPECT_EQ(r.cpu.reg(5), 70u ^ 255u);
  EXPECT_EQ(r.cpu.reg(6), 70u | 0x0fu);
  EXPECT_EQ(r.cpu.reg(7), 70u & 0x3cu);
}

TEST(IssAlu, ShiftsIncludingArithmetic) {
  Asm a;
  a.li(1, 0x80000010);
  a.slli(2, 1, 3);
  a.srli(3, 1, 4);
  a.srai(4, 1, 4);
  a.addi(5, 0, 2);
  a.sll(6, 1, 5);
  a.srl(7, 1, 5);
  a.sra(8, 1, 5);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(2), 0x80000010u << 3);
  EXPECT_EQ(r.cpu.reg(3), 0x80000010u >> 4);
  EXPECT_EQ(r.cpu.reg(4), 0xf8000001u);  // arithmetic
  EXPECT_EQ(r.cpu.reg(6), 0x80000010u << 2);
  EXPECT_EQ(r.cpu.reg(7), 0x80000010u >> 2);
  EXPECT_EQ(r.cpu.reg(8), 0xe0000004u);
}

TEST(IssAlu, RegisterOpsAndComparisons) {
  Asm a;
  a.li(1, 7);
  a.li(2, 0xfffffffe);  // -2
  a.add(3, 1, 2);       // 5
  a.sub(4, 1, 2);       // 9
  a.slt(5, 2, 1);       // -2 < 7 -> 1
  a.sltu(6, 2, 1);      // huge < 7 -> 0
  a.xor_(7, 1, 2);
  a.or_(28, 1, 2);
  a.and_(29, 1, 2);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(3), 5u);
  EXPECT_EQ(r.cpu.reg(4), 9u);
  EXPECT_EQ(r.cpu.reg(5), 1u);
  EXPECT_EQ(r.cpu.reg(6), 0u);
  EXPECT_EQ(r.cpu.reg(7), 7u ^ 0xfffffffeu);
  EXPECT_EQ(r.cpu.reg(28), 7u | 0xfffffffeu);
  EXPECT_EQ(r.cpu.reg(29), 7u & 0xfffffffeu);
}

TEST(IssAlu, X0IsHardwiredZero) {
  Asm a;
  a.addi(0, 0, 123);  // write to x0: dropped
  a.add(1, 0, 0);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(0), 0u);
  EXPECT_EQ(r.cpu.reg(1), 0u);
}

TEST(IssMul, MulDivRem) {
  Asm a;
  a.li(1, 100000);
  a.li(2, 70000);
  a.mul(3, 1, 2);    // low 32 of 7e9
  a.mulhu(4, 1, 2);  // high 32
  a.li(5, 0xfffffff9);  // -7
  a.li(6, 3);
  a.div(7, 5, 6);    // -2
  a.rem(8, 5, 6);    // -1
  a.divu(9, 5, 6);
  a.remu(28, 5, 6);
  a.ecall();
  ProgramRun r{a};
  const u64 prod = 100000ull * 70000ull;
  EXPECT_EQ(r.cpu.reg(3), static_cast<u32>(prod));
  EXPECT_EQ(r.cpu.reg(4), static_cast<u32>(prod >> 32));
  EXPECT_EQ(static_cast<i32>(r.cpu.reg(7)), -2);
  EXPECT_EQ(static_cast<i32>(r.cpu.reg(8)), -1);
  EXPECT_EQ(r.cpu.reg(9), 0xfffffff9u / 3u);
  EXPECT_EQ(r.cpu.reg(28), 0xfffffff9u % 3u);
}

TEST(IssMul, DivisionEdgeCases) {
  Asm a;
  a.li(1, 42);
  a.li(2, 0);
  a.div(3, 1, 2);   // /0 -> -1
  a.divu(4, 1, 2);  // /0 -> all ones
  a.rem(5, 1, 2);   // %0 -> rs1
  a.remu(6, 1, 2);
  a.li(7, 0x80000000);
  a.li(8, 0xffffffff);
  a.div(9, 7, 8);   // overflow -> INT_MIN
  a.rem(28, 7, 8);  // -> 0
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(3), 0xffffffffu);
  EXPECT_EQ(r.cpu.reg(4), 0xffffffffu);
  EXPECT_EQ(r.cpu.reg(5), 42u);
  EXPECT_EQ(r.cpu.reg(6), 42u);
  EXPECT_EQ(r.cpu.reg(9), 0x80000000u);
  EXPECT_EQ(r.cpu.reg(28), 0u);
}

TEST(IssMem, LoadStoreAllWidthsAndSignedness) {
  Asm a;
  a.li(1, 0x4000);        // base
  a.li(2, 0xdeadbeef);
  a.sw(2, 1, 0);
  a.lw(3, 1, 0);
  a.lb(4, 1, 3);          // 0xde sign-extended
  a.lbu(5, 1, 3);
  a.lh(6, 1, 2);          // 0xdead sign-extended
  a.lhu(7, 1, 2);
  a.sb(2, 1, 8);          // 0xef
  a.lbu(8, 1, 8);
  a.sh(2, 1, 12);
  a.lhu(9, 1, 12);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(3), 0xdeadbeefu);
  EXPECT_EQ(r.cpu.reg(4), 0xffffffdeu);
  EXPECT_EQ(r.cpu.reg(5), 0xdeu);
  EXPECT_EQ(r.cpu.reg(6), 0xffffdeadu);
  EXPECT_EQ(r.cpu.reg(7), 0xdeadu);
  EXPECT_EQ(r.cpu.reg(8), 0xefu);
  EXPECT_EQ(r.cpu.reg(9), 0xbeefu);
}

TEST(IssControl, LoopSumsFirstHundredIntegers) {
  Asm a;
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.addi(1, 0, 0);    // sum
  a.addi(2, 0, 1);    // i
  a.addi(3, 0, 101);  // bound
  a.bind(loop);
  a.bge(2, 3, done);
  a.add(1, 1, 2);
  a.addi(2, 2, 1);
  a.j(loop);
  a.bind(done);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(1), 5050u);
}

TEST(IssControl, CallAndReturn) {
  Asm a;
  const auto func = a.make_label();
  const auto over = a.make_label();
  a.li(10, 20);
  a.jal(1, func);     // call
  a.addi(10, 10, 1);  // after return: 41 -> 42
  a.j(over);
  a.bind(func);       // doubles a0 + 1
  a.add(10, 10, 10);
  a.addi(10, 10, 1);
  a.ret();
  a.bind(over);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(10), 42u);
}

TEST(IssControl, LuiAuipcLi) {
  Asm a;
  a.lui(1, 0x12345);
  a.auipc(2, 0);      // pc of this instruction
  a.li(3, 0xcafebabe);
  a.li(4, 0x00000fff);  // exercises the lo>=0x800 carry path
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(1), 0x12345000u);
  EXPECT_EQ(r.cpu.reg(2), kBase + 4u);
  EXPECT_EQ(r.cpu.reg(3), 0xcafebabeu);
  EXPECT_EQ(r.cpu.reg(4), 0xfffu);
}

TEST(IssControl, BranchesBothDirections) {
  Asm a;
  const auto fwd = a.make_label();
  const auto back_target = a.make_label();
  const auto out = a.make_label();
  a.addi(1, 0, 0);
  a.j(fwd);
  a.bind(back_target);
  a.addi(1, 1, 100);  // executed second
  a.j(out);
  a.bind(fwd);
  a.addi(1, 1, 10);   // executed first
  a.j(back_target);   // backwards jump
  a.bind(out);
  a.ecall();
  ProgramRun r{a};
  EXPECT_EQ(r.cpu.reg(1), 110u);
}

TEST(IssTraps, IllegalInstruction) {
  sim::Memory ram{"ram"};
  ram.write_u32(kBase, 0xffffffffu);
  MemoryBus bus{ram};
  Cpu cpu{bus};
  cpu.set_pc(kBase);
  EXPECT_EQ(cpu.step().trap, TrapKind::kIllegalInstruction);
  EXPECT_EQ(cpu.pc(), kBase);  // pc not advanced past the offender
}

TEST(IssTraps, ReservedJalrAndFenceEncodingsAreIllegal) {
  // JALR with funct3 != 0 and MISC-MEM with funct3 other than FENCE (0) and
  // FENCE.I (1) are reserved.
  const u32 reserved[] = {
      enc::i_type(0, 1, 1, 1, 0x67), enc::i_type(8, 2, 7, 0, 0x67),
      enc::i_type(0, 0, 2, 0, 0x0f), enc::i_type(0, 0, 7, 0, 0x0f)};
  for (const u32 word : reserved) {
    sim::Memory ram{"ram"};
    ram.write_u32(kBase, word);
    MemoryBus bus{ram};
    Cpu cpu{bus};
    cpu.set_pc(kBase);
    cpu.set_reg(1, kBase + 0x100);
    const StepResult r = cpu.run(1000, ~u64{0});
    EXPECT_EQ(r.trap, TrapKind::kIllegalInstruction) << std::hex << word;
    EXPECT_EQ(r.instruction, word);
    EXPECT_EQ(cpu.pc(), kBase);
    EXPECT_EQ(cpu.instructions_retired(), 0u);
    EXPECT_EQ(cpu.reg(1), kBase + 0x100);  // the JALR linked nothing
  }
  // FENCE and FENCE.I still run as no-ops.
  sim::Memory ram{"ram"};
  ram.write_u32(kBase, enc::i_type(0x0ff, 0, 0, 0, 0x0f));  // fence rw, rw
  ram.write_u32(kBase + 4, enc::i_type(0, 0, 1, 0, 0x0f));  // fence.i
  ram.write_u32(kBase + 8, 0x00000073);                     // ecall
  MemoryBus bus{ram};
  Cpu cpu{bus};
  cpu.set_pc(kBase);
  EXPECT_EQ(cpu.run(1000, ~u64{0}).trap, TrapKind::kEcall);
  EXPECT_EQ(cpu.pc(), kBase + 12);
  EXPECT_EQ(cpu.instructions_retired(), 3u);
}

TEST(IssTraps, MisalignedFetch) {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  Cpu cpu{bus};
  cpu.set_pc(kBase + 2);
  EXPECT_EQ(cpu.step().trap, TrapKind::kMisalignedFetch);
}

TEST(IssTraps, EbreakReported) {
  Asm a;
  a.ebreak();
  ProgramRun r{a};
  EXPECT_EQ(r.final_trap, TrapKind::kEbreak);
}

TEST(IssBus, MmioWindowInterceptsRam) {
  sim::Memory ram{"ram"};
  MemoryBus bus{ram};
  u32 last_store = 0;
  bus.map_mmio(
      0xf0000000u, 0x100,
      [](u32 offset, unsigned) { return offset + 1000; },
      [&](u32, u32 value, unsigned) { last_store = value; });
  EXPECT_EQ(bus.load(0xf0000010u, 4), 1016u);
  bus.store(0xf0000000u, 77, 4);
  EXPECT_EQ(last_store, 77u);
  // Outside the window: plain RAM.
  bus.store(0x100, 0xabcd, 4);
  EXPECT_EQ(bus.load(0x100, 4), 0xabcdu);
}

/// The flagship program property: the Internet checksum computed BY RV32
/// MACHINE CODE matches the host implementation on random buffers.
class IssChecksumProperty : public ::testing::TestWithParam<u64> {};

Asm checksum_program(u32 buf_addr, u32 len) {
  // a0 = buffer, a1 = len; result in a0 (RFC 1071, ~sum & 0xffff).
  Asm a;
  const auto loop = a.make_label();
  const auto odd = a.make_label();
  const auto fold = a.make_label();
  const auto fold_done = a.make_label();
  a.li(10, buf_addr);
  a.li(11, len);
  a.addi(12, 0, 0);   // sum
  a.bind(loop);
  a.slti(13, 11, 2);  // fewer than 2 bytes left?
  a.bne(13, 0, odd);
  a.lbu(14, 10, 0);   // big-endian 16-bit word
  a.slli(14, 14, 8);
  a.lbu(15, 10, 1);
  a.add(14, 14, 15);
  a.add(12, 12, 14);
  a.addi(10, 10, 2);
  a.addi(11, 11, -2);
  a.j(loop);
  a.bind(odd);
  a.beq(11, 0, fold);
  a.lbu(14, 10, 0);   // trailing byte, high half
  a.slli(14, 14, 8);
  a.add(12, 12, 14);
  a.bind(fold);       // while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16)
  a.srli(13, 12, 16);
  a.beq(13, 0, fold_done);
  a.li(15, 0xffff);
  a.and_(12, 12, 15);
  a.add(12, 12, 13);
  a.j(fold);
  a.bind(fold_done);
  a.xori(12, 12, -1); // ~sum
  a.li(15, 0xffff);
  a.and_(10, 12, 15);
  a.ecall();
  return a;
}

TEST_P(IssChecksumProperty, MachineCodeMatchesHostImplementation) {
  Rng rng{GetParam()};
  for (int round = 0; round < 10; ++round) {
    const u32 buf = 0x8000;
    Bytes data(rng.range(1, 100));
    for (auto& b : data) b = static_cast<u8>(rng.below(256));

    Asm a = checksum_program(buf, static_cast<u32>(data.size()));
    sim::Memory ram{"ram"};
    ram.write(buf, data);
    a.load_into(ram, kBase);
    MemoryBus bus{ram};
    Cpu cpu{bus};
    cpu.set_pc(kBase);
    for (u64 i = 0; i < 100000; ++i) {
      if (cpu.step().trap == TrapKind::kEcall) break;
    }
    EXPECT_EQ(cpu.reg(10), internet_checksum(data))
        << "len=" << data.size() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IssChecksumProperty,
                         ::testing::Values(3, 14, 159));

// ---------- firmware on the virtual board ----------

TEST(IssRunner, FirmwareDrivesRemoteDeviceViaMmio) {
  // Scripted HW peer: serves reads of a register and counts writes.
  auto pair = net::make_inproc_link_pair();
  board::BoardConfig cfg;
  cfg.free_running = true;
  board::Board board{cfg, std::move(pair.board)};

  sim::Memory ram{"ram"};
  // Firmware: read MMIO reg 0x8, add 5, write to MMIO reg 0xc, store the
  // sum to RAM 0x5000, exit(0).
  Asm a;
  a.li(1, 0xf0000000u);
  a.lw(2, 1, 0x8);
  a.addi(2, 2, 5);
  a.sw(2, 1, 0xc);
  a.li(3, 0x5000);
  a.sw(2, 3, 0);
  a.addi(10, 2, 0);   // a0 = result
  a.addi(17, 0, 0);   // a7 = exit
  a.ecall();
  a.load_into(ram, 0x1000);

  IssRunnerConfig rc;
  rc.entry_pc = 0x1000;
  IssRunner runner{board, ram, rc};

  // HW side script (host thread): answer one read, expect one write.
  std::thread hw{[&] {
    auto req = net::recv_msg(*pair.hw.data, std::chrono::milliseconds{2000});
    ASSERT_TRUE(req.ok());
    const auto* rd = std::get_if<net::DataReadReq>(&req.value());
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(rd->address, 0x8u);
    ASSERT_TRUE(net::send_msg(*pair.hw.data,
                              net::DataReadResp{0x8, Bytes{37, 0, 0, 0}})
                    .ok());
    auto wr = net::recv_msg(*pair.hw.data, std::chrono::milliseconds{2000});
    ASSERT_TRUE(wr.ok());
    const auto* w = std::get_if<net::DataWrite>(&wr.value());
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->address, 0xcu);
    EXPECT_EQ(w->data, (Bytes{42, 0, 0, 0}));
    ASSERT_TRUE(net::send_msg(*pair.hw.clock, net::Shutdown{}).ok());
  }};

  board.run();
  hw.join();
  EXPECT_TRUE(runner.exited());
  EXPECT_EQ(runner.exit_code(), 42u);  // the firmware exits with its result
  EXPECT_EQ(ram.read_u32(0x5000), 42u);
}

TEST(IssRunner, InstructionsChargeTheCycleBudget) {
  auto pair = net::make_inproc_link_pair();
  board::BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  board::Board board{cfg, std::move(pair.board)};

  sim::Memory ram{"ram"};
  // Busy loop of exactly 100 iterations (2 single-cycle instructions each:
  // addi + taken branch = 1 + 2 cycles), then syscall 2 (read ticks), exit.
  Asm a;
  const auto loop = a.make_label();
  a.addi(1, 0, 100);
  a.bind(loop);
  a.addi(1, 1, -1);
  a.bne(1, 0, loop);
  a.addi(17, 0, 2);  // a7 = get-ticks
  a.ecall();
  a.addi(10, 10, 0); // keep ticks in a0
  a.addi(17, 0, 0);  // exit
  a.ecall();
  a.load_into(ram, 0x1000);

  IssRunnerConfig rc;
  rc.batch_cycles = 16;
  IssRunner runner{board, ram, rc};

  std::thread hw{[&] {
    // Handshake then keep granting until the firmware exits.
    auto ack = net::recv_msg(*pair.hw.clock, std::chrono::milliseconds{2000});
    ASSERT_TRUE(ack.ok());
    for (int i = 0; i < 200 && !runner.exited(); ++i) {
      ASSERT_TRUE(
          net::send_msg(*pair.hw.clock, net::ClockTick{0, 50}).ok());
      auto reply =
          net::recv_msg(*pair.hw.clock, std::chrono::milliseconds{2000});
      ASSERT_TRUE(reply.ok());
    }
    ASSERT_TRUE(net::send_msg(*pair.hw.clock, net::Shutdown{}).ok());
  }};

  board.run();
  hw.join();
  ASSERT_TRUE(runner.exited());
  // 300 cycles of loop work plus the syscall setup, charged in batches of
  // 16 and at the ECALL: the firmware reads exactly 30 ticks of 10 cycles.
  // The count pins the charge points.
  const u32 ticks_seen = runner.cpu().reg(Cpu::kRegA0);
  EXPECT_EQ(ticks_seen, 30u);
}

TEST(IssRunner, InstructionLimitIsNotACleanExit) {
  auto pair = net::make_inproc_link_pair();
  board::BoardConfig cfg;
  cfg.free_running = true;
  board::Board board{cfg, std::move(pair.board)};

  sim::Memory ram{"ram"};
  Asm a;  // a runaway firmware: never exits
  const auto loop = a.make_label();
  a.bind(loop);
  a.addi(1, 1, 1);
  a.j(loop);
  a.load_into(ram, 0x1000);

  IssRunnerConfig rc;
  rc.entry_pc = 0x1000;
  rc.max_instructions = 1000;
  IssRunner runner{board, ram, rc};

  std::thread hw{[&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (!runner.exited() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    ASSERT_TRUE(net::send_msg(*pair.hw.clock, net::Shutdown{}).ok());
  }};

  board.run();
  hw.join();
  ASSERT_TRUE(runner.exited());
  EXPECT_EQ(runner.instructions(), 1000u);
  EXPECT_EQ(runner.exit_code(), IssRunner::kFaultExitCode);
}

}  // namespace
}  // namespace vhp::iss
