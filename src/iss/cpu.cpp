#include "vhp/iss/cpu.hpp"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <memory>

namespace vhp::iss {

namespace {

// RV32 base opcodes.
constexpr u32 kOpLui = 0x37;
constexpr u32 kOpAuipc = 0x17;
constexpr u32 kOpJal = 0x6f;
constexpr u32 kOpJalr = 0x67;
constexpr u32 kOpBranch = 0x63;
constexpr u32 kOpLoad = 0x03;
constexpr u32 kOpStore = 0x23;
constexpr u32 kOpAluImm = 0x13;
constexpr u32 kOpAluReg = 0x33;
constexpr u32 kOpFence = 0x0f;
constexpr u32 kOpSystem = 0x73;

constexpr u32 kPageBytes = sim::Memory::kPageBytes;
/// Register index decoded ops write instead of x0 (Cpu::x_[32]).
constexpr u8 kSinkReg = 32;

u32 imm_i(u32 ins) { return ins >> 20; }                       // 12 bits
u32 imm_s(u32 ins) {
  return ((ins >> 25) << 5) | ((ins >> 7) & 0x1f);
}
u32 imm_b(u32 ins) {
  return (((ins >> 31) & 1u) << 12) | (((ins >> 7) & 1u) << 11) |
         (((ins >> 25) & 0x3fu) << 5) | (((ins >> 8) & 0xfu) << 1);
}
u32 imm_u(u32 ins) { return ins & 0xfffff000u; }
u32 imm_j(u32 ins) {
  return (((ins >> 31) & 1u) << 20) | (((ins >> 12) & 0xffu) << 12) |
         (((ins >> 20) & 1u) << 11) | (((ins >> 21) & 0x3ffu) << 1);
}
u32 sext(u32 value, unsigned bits) {
  const u32 shift = 32 - bits;
  return static_cast<u32>(static_cast<i32>(value << shift) >> shift);
}

enum class OpKind : u8 {
  kIllegal,
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kFence, kEcall, kEbreak,
};

/// Cycles an op costs; a branch's when taken (kUntakenCycles when not).
/// The block builder and every handler of run() read costs from here.
constexpr u16 op_cycles(OpKind k) {
  using K = OpKind;
  if (k >= K::kDiv && k <= K::kRemu) return 8;
  if (k >= K::kMul && k <= K::kMulhu) return 3;
  if (k >= K::kJal && k <= K::kSw) return 2;  // jumps, branches, memory
  return 1;
}
constexpr u16 kUntakenCycles = 1;

/// Whether an op ends its basic block: it jumps, may branch, or traps.
constexpr bool ends_block(OpKind k) {
  using K = OpKind;
  return k == K::kIllegal || (k >= K::kJal && k <= K::kBgeu) ||
         k == K::kEcall || k == K::kEbreak;
}

/// Version of an op that was never decoded; sim::Memory page versions
/// count writes and never reach it.
constexpr u64 kNeverDecoded = ~u64{0};

/// One decoded instruction: the immediate is sign-extended (the shift
/// amount for shift-immediates) and rd is kSinkReg for x0.
struct Op {
  /// The RAM page version this op was decoded under.
  u64 version = kNeverDecoded;
  u32 imm = 0;
  u32 raw = 0;
  OpKind kind = OpKind::kIllegal;
  u8 rd = kSinkReg;
  u8 rs1 = 0;
  u8 rs2 = 0;
  /// Ops from this one to the end of its basic block, both included, and
  /// their summed op_cycles(): the block builder stamps both.
  u16 run_len = 1;
  u16 run_cycles = 0;
};
// run_len and run_cycles sit in what was padding: a decoded page stays
// 1024 x 24 bytes.
static_assert(sizeof(Op) == 24);

Op decode(u32 ins) {
  const u32 rd = (ins >> 7) & 0x1fu;
  const u32 funct3 = (ins >> 12) & 0x7u;
  const u32 funct7 = ins >> 25;
  Op op;
  op.raw = ins;
  op.rd = rd == 0 ? kSinkReg : static_cast<u8>(rd);
  op.rs1 = static_cast<u8>((ins >> 15) & 0x1fu);
  op.rs2 = static_cast<u8>((ins >> 20) & 0x1fu);
  const auto pick = [&](std::initializer_list<OpKind> by_funct3) {
    return funct3 < by_funct3.size() ? by_funct3.begin()[funct3]
                                     : OpKind::kIllegal;
  };
  using K = OpKind;
  switch (ins & 0x7fu) {
    case kOpLui:
      op.kind = K::kLui;
      op.imm = imm_u(ins);
      break;
    case kOpAuipc:
      op.kind = K::kAuipc;
      op.imm = imm_u(ins);
      break;
    case kOpJal:
      op.kind = K::kJal;
      op.imm = sext(imm_j(ins), 21);
      break;
    case kOpJalr:
      op.kind = pick({K::kJalr});  // funct3 != 0 is reserved
      op.imm = sext(imm_i(ins), 12);
      break;
    case kOpBranch:
      op.kind = pick({K::kBeq, K::kBne, K::kIllegal, K::kIllegal, K::kBlt,
                      K::kBge, K::kBltu, K::kBgeu});
      op.imm = sext(imm_b(ins), 13);
      break;
    case kOpLoad:
      op.kind = pick({K::kLb, K::kLh, K::kLw, K::kIllegal, K::kLbu, K::kLhu});
      op.imm = sext(imm_i(ins), 12);
      break;
    case kOpStore:
      op.kind = pick({K::kSb, K::kSh, K::kSw});
      op.imm = sext(imm_s(ins), 12);
      break;
    case kOpAluImm:
      op.imm = sext(imm_i(ins), 12);
      if (funct3 == 1 || funct3 == 5) {
        op.imm = op.rs2;  // shift amount
        if (funct7 == 0) {
          op.kind = funct3 == 1 ? K::kSlli : K::kSrli;
        } else if (funct7 == 0x20 && funct3 == 5) {
          op.kind = K::kSrai;
        }
      } else {
        op.kind = pick({K::kAddi, K::kIllegal, K::kSlti, K::kSltiu, K::kXori,
                        K::kIllegal, K::kOri, K::kAndi});
      }
      break;
    case kOpAluReg:
      if (funct7 == 0x01) {  // M extension
        op.kind = pick({K::kMul, K::kMulh, K::kMulhsu, K::kMulhu, K::kDiv,
                        K::kDivu, K::kRem, K::kRemu});
      } else if (funct7 == 0x00) {
        op.kind = pick({K::kAdd, K::kSll, K::kSlt, K::kSltu, K::kXor, K::kSrl,
                        K::kOr, K::kAnd});
      } else if (funct7 == 0x20 && (funct3 == 0 || funct3 == 5)) {
        op.kind = funct3 == 0 ? K::kSub : K::kSra;
      }
      break;
    case kOpFence:
      // Single hart: FENCE and FENCE.I are no-ops; other funct3 values
      // are reserved.
      op.kind = pick({K::kFence, K::kFence});
      break;
    case kOpSystem:
      if (ins == 0x00000073) {
        op.kind = K::kEcall;
      } else if (ins == 0x00100073) {
        op.kind = K::kEbreak;
      }
      break;
    default:
      break;
  }
  return op;
}

}  // namespace

struct Cpu::DecodedPage {
  explicit DecodedPage(const sim::Memory::Page& page) : ram(page) {}

  /// Builds the block entered at `entry` under the page's version: decodes
  /// and stamps every op from `entry` to the block end, which is the first
  /// op that ends_block() or the page's last op. It stops early at an op
  /// already stamped under this version, because a build stamps ops up to
  /// their block end: a current op's run_len and run_cycles are current.
  void build(Op* entry);

  const sim::Memory::Page& ram;
  std::array<Op, kPageBytes / 4> ops{};
};

// Out of line: inlined, it takes registers from run()'s handlers.
[[gnu::noinline]] void Cpu::DecodedPage::build(Op* entry) {
  const u64 version = ram.version;
  Op* const last = &ops.back();
  Op* end = entry;
  while (end->version != version) {
    u32 word = 0;
    if (ram.bytes) {
      const u8* p = ram.bytes->data() + 4 * (end - ops.data());
      word = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
             (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
    }
    *end = decode(word);
    end->version = version;
    if (end == last || ends_block(end->kind)) {
      end->run_cycles = op_cycles(end->kind);
      break;
    }
    ++end;
  }
  for (; end != entry; --end) {
    end[-1].run_len = static_cast<u16>(end->run_len + 1);
    end[-1].run_cycles =
        static_cast<u16>(end->run_cycles + op_cycles(end[-1].kind));
  }
}

Cpu::Cpu(Bus& bus) : bus_(bus) {}
Cpu::~Cpu() = default;

Cpu::DecodedPage* Cpu::decoded_page(u32 pc) {
  const u32 index = pc / kPageBytes;
  auto it = pages_.find(index);
  if (it == pages_.end()) {
    const sim::Memory::Page* ram = bus_.ram_page(pc);
    if (ram == nullptr) return nullptr;
    it = pages_.emplace(index, std::make_unique<DecodedPage>(*ram)).first;
  }
  return it->second.get();
}

// The executor is direct-threaded (GCC/Clang labels-as-values): each op's
// handler ends in its own indirect jump to the next op's handler, so the
// host's branch predictor sees the guest's op sequence. An op that falls
// through checks only whether it is the block's stop op; a load or store
// also ends the block when the access moved the page's version.
#define VHP_ISS_DISPATCH() goto* kHandlers[static_cast<u8>(op->kind)]
#define VHP_ISS_ADVANCE()              \
  do {                                 \
    if (op == stop) goto fell_through; \
    ++op;                              \
    VHP_ISS_DISPATCH();                \
  } while (0)
// Each handler adds its op's cost from op_cycles(), as the block builder
// does, so a batch's stop op and the cycles it sums cannot disagree.
#define VHP_ISS_NEXT(kind)             \
  do {                                 \
    cycles += op_cycles(OpKind::kind); \
    VHP_ISS_ADVANCE();                 \
  } while (0)
#define VHP_ISS_NEXT_AFTER_ACCESS(kind)        \
  do {                                         \
    cycles += op_cycles(OpKind::kind);         \
    if (*version != entry_version) goto moved; \
    VHP_ISS_ADVANCE();                         \
  } while (0)
#define VHP_ISS_BRANCH(kind, taken_if)     \
  do {                                     \
    if (taken_if) {                        \
      cycles += op_cycles(OpKind::kind);   \
      goto taken;                          \
    }                                      \
    goto not_taken;                        \
  } while (0)

// Cache-line aligned, so that the interpreter's dispatch keeps one layout
// however much code precedes it in the binary: unpinned, its speed on
// perfbench iss_firmware moved by ~15 % with the size of unrelated code.
[[gnu::aligned(64)]] StepResult Cpu::run(u64 budget_cycles,
                                         u64 retire_limit) {
  // Indexed by OpKind.
  static const void* const kHandlers[] = {
      &&op_illegal, &&op_lui,   &&op_auipc, &&op_jal,    &&op_jalr,
      &&op_beq,     &&op_bne,   &&op_blt,   &&op_bge,    &&op_bltu,
      &&op_bgeu,    &&op_lb,    &&op_lh,    &&op_lw,     &&op_lbu,
      &&op_lhu,     &&op_sb,    &&op_sh,    &&op_sw,     &&op_addi,
      &&op_slti,    &&op_sltiu, &&op_xori,  &&op_ori,    &&op_andi,
      &&op_slli,    &&op_srli,  &&op_srai,  &&op_add,    &&op_sub,
      &&op_sll,     &&op_slt,   &&op_sltu,  &&op_xor,    &&op_srl,
      &&op_sra,     &&op_or,    &&op_and,   &&op_mul,    &&op_mulh,
      &&op_mulhsu,  &&op_mulhu, &&op_div,   &&op_divu,   &&op_rem,
      &&op_remu,    &&op_fence, &&op_ecall, &&op_ebreak,
  };
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(OpKind::kEbreak) + 1);
  // The version an uncached op's one-op block runs under: nothing moves it.
  static constexpr u64 kUncachedVersion = 0;

  // pc, the retired count and the summed cycles live in locals; pc_ and
  // retired_ are stored before each load or store, so that an MMIO
  // handler sees them as a one-instruction loop would leave them, and at
  // the end.
  StepResult out;
  u64 cycles = 0;
  u32 pc = pc_;
  u64 retired = retired_;
  u32* const x = x_.data();
  const Op* op = nullptr;
  // An op fetched through the bus, left unconstructed until one is: the
  // stores of its initializers would cost every step() from RAM.
  union Uncached {
    Uncached() {}
    Op op;
  } uncached;
  while (retired < retire_limit) {
    if ((pc & 3u) != 0) {
      out.trap = TrapKind::kMisalignedFetch;
      cycles += 1;
      op = nullptr;
      break;
    }
    if (pc / kPageBytes != cur_index_) {
      cur_ = decoded_page(pc);
      cur_index_ = pc / kPageBytes;
    }
    const Op* entry = nullptr;
    const u64* version = &kUncachedVersion;
    if (cur_ != nullptr) {
      Op& first = cur_->ops[(pc % kPageBytes) / 4];
      version = &cur_->ram.version;
      if (first.version != *version) cur_->build(&first);
      entry = &first;
    } else {
      entry = std::construct_at(&uncached.op, decode(bus_.fetch(pc)));
    }
    const u64 entry_version = *version;

    // The stop op: the one after which a one-instruction loop would stop.
    // That is the block's last op, cut earlier by the retire limit and by
    // the first op that meets the cycle budget. Every op before the last
    // has a static cost, so the run_cycles suffix sums find that op.
    u64 last = 0;  // the stop op's index in the block
    const u64 left = budget_cycles > cycles ? budget_cycles - cycles : 0;
    if (left > 1) {  // else any single op meets the budget
      last = std::min<u64>(entry->run_len, retire_limit - retired) - 1;
      if (u64{entry->run_cycles} - entry[last].run_cycles >= left) {
        const int until = entry->run_cycles - static_cast<int>(left);
        last = 0;
        while (entry[last + 1].run_cycles > until) ++last;
      }
    }
    const Op* const stop = entry + last;
    const u32 stop_pc = pc + 4 * static_cast<u32>(last);
    // The pc of `op`, an op of this block.
    const auto pc_of = [&] { return pc + 4 * static_cast<u32>(op - entry); };
    const auto before_access = [&] {
      pc_ = pc_of();
      retired_ = retired + static_cast<u64>(op - entry);
    };
    op = entry;
    VHP_ISS_DISPATCH();

  op_lui: x[op->rd] = op->imm; VHP_ISS_NEXT(kLui);
  op_auipc: x[op->rd] = pc_of() + op->imm; VHP_ISS_NEXT(kAuipc);
  // Loads into x0 still access the bus: MMIO reads have side effects.
  op_lb:
    before_access();
    x[op->rd] = sext(bus_.load(x[op->rs1] + op->imm, 1), 8);
    VHP_ISS_NEXT_AFTER_ACCESS(kLb);
  op_lh:
    before_access();
    x[op->rd] = sext(bus_.load(x[op->rs1] + op->imm, 2), 16);
    VHP_ISS_NEXT_AFTER_ACCESS(kLh);
  op_lw:
    before_access();
    x[op->rd] = bus_.load(x[op->rs1] + op->imm, 4);
    VHP_ISS_NEXT_AFTER_ACCESS(kLw);
  op_lbu:
    before_access();
    x[op->rd] = bus_.load(x[op->rs1] + op->imm, 1);
    VHP_ISS_NEXT_AFTER_ACCESS(kLbu);
  op_lhu:
    before_access();
    x[op->rd] = bus_.load(x[op->rs1] + op->imm, 2);
    VHP_ISS_NEXT_AFTER_ACCESS(kLhu);
  op_sb:
    before_access();
    bus_.store(x[op->rs1] + op->imm, x[op->rs2], 1);
    VHP_ISS_NEXT_AFTER_ACCESS(kSb);
  op_sh:
    before_access();
    bus_.store(x[op->rs1] + op->imm, x[op->rs2], 2);
    VHP_ISS_NEXT_AFTER_ACCESS(kSh);
  op_sw:
    before_access();
    bus_.store(x[op->rs1] + op->imm, x[op->rs2], 4);
    VHP_ISS_NEXT_AFTER_ACCESS(kSw);
  op_addi: x[op->rd] = x[op->rs1] + op->imm; VHP_ISS_NEXT(kAddi);
  op_slti:
    x[op->rd] = static_cast<i32>(x[op->rs1]) < static_cast<i32>(op->imm);
    VHP_ISS_NEXT(kSlti);
  op_sltiu: x[op->rd] = x[op->rs1] < op->imm; VHP_ISS_NEXT(kSltiu);
  op_xori: x[op->rd] = x[op->rs1] ^ op->imm; VHP_ISS_NEXT(kXori);
  op_ori: x[op->rd] = x[op->rs1] | op->imm; VHP_ISS_NEXT(kOri);
  op_andi: x[op->rd] = x[op->rs1] & op->imm; VHP_ISS_NEXT(kAndi);
  op_slli: x[op->rd] = x[op->rs1] << op->imm; VHP_ISS_NEXT(kSlli);
  op_srli: x[op->rd] = x[op->rs1] >> op->imm; VHP_ISS_NEXT(kSrli);
  op_srai:
    x[op->rd] = static_cast<u32>(static_cast<i32>(x[op->rs1]) >> op->imm);
    VHP_ISS_NEXT(kSrai);
  op_add: x[op->rd] = x[op->rs1] + x[op->rs2]; VHP_ISS_NEXT(kAdd);
  op_sub: x[op->rd] = x[op->rs1] - x[op->rs2]; VHP_ISS_NEXT(kSub);
  op_sll: x[op->rd] = x[op->rs1] << (x[op->rs2] & 0x1f); VHP_ISS_NEXT(kSll);
  op_slt:
    x[op->rd] = static_cast<i32>(x[op->rs1]) < static_cast<i32>(x[op->rs2]);
    VHP_ISS_NEXT(kSlt);
  op_sltu: x[op->rd] = x[op->rs1] < x[op->rs2]; VHP_ISS_NEXT(kSltu);
  op_xor: x[op->rd] = x[op->rs1] ^ x[op->rs2]; VHP_ISS_NEXT(kXor);
  op_srl: x[op->rd] = x[op->rs1] >> (x[op->rs2] & 0x1f); VHP_ISS_NEXT(kSrl);
  op_sra:
    x[op->rd] = static_cast<u32>(static_cast<i32>(x[op->rs1]) >>
                                 (x[op->rs2] & 0x1f));
    VHP_ISS_NEXT(kSra);
  op_or: x[op->rd] = x[op->rs1] | x[op->rs2]; VHP_ISS_NEXT(kOr);
  op_and: x[op->rd] = x[op->rs1] & x[op->rs2]; VHP_ISS_NEXT(kAnd);
  op_mul: x[op->rd] = x[op->rs1] * x[op->rs2]; VHP_ISS_NEXT(kMul);
  op_mulh:
    x[op->rd] = static_cast<u32>(
        (static_cast<i64>(static_cast<i32>(x[op->rs1])) *
         static_cast<i64>(static_cast<i32>(x[op->rs2]))) >> 32);
    VHP_ISS_NEXT(kMulh);
  op_mulhsu:
    x[op->rd] = static_cast<u32>(
        (static_cast<i64>(static_cast<i32>(x[op->rs1])) *
         static_cast<i64>(static_cast<u64>(x[op->rs2]))) >> 32);
    VHP_ISS_NEXT(kMulhsu);
  op_mulhu:
    x[op->rd] = static_cast<u32>(
        (static_cast<u64>(x[op->rs1]) * static_cast<u64>(x[op->rs2])) >> 32);
    VHP_ISS_NEXT(kMulhu);
  op_div: {
    const u32 a = x[op->rs1];
    const u32 b = x[op->rs2];
    if (b == 0) {
      x[op->rd] = 0xffffffffu;
    } else if (a == 0x80000000u && b == 0xffffffffu) {
      x[op->rd] = 0x80000000u;
    } else {
      x[op->rd] = static_cast<u32>(static_cast<i32>(a) / static_cast<i32>(b));
    }
    VHP_ISS_NEXT(kDiv);
  }
  op_divu: {
    const u32 b = x[op->rs2];
    x[op->rd] = b == 0 ? 0xffffffffu : x[op->rs1] / b;
    VHP_ISS_NEXT(kDivu);
  }
  op_rem: {
    const u32 a = x[op->rs1];
    const u32 b = x[op->rs2];
    if (b == 0) {
      x[op->rd] = a;
    } else if (a == 0x80000000u && b == 0xffffffffu) {
      x[op->rd] = 0;
    } else {
      x[op->rd] = static_cast<u32>(static_cast<i32>(a) % static_cast<i32>(b));
    }
    VHP_ISS_NEXT(kRem);
  }
  op_remu: {
    const u32 a = x[op->rs1];
    const u32 b = x[op->rs2];
    x[op->rd] = b == 0 ? a : a % b;
    VHP_ISS_NEXT(kRemu);
  }
  op_fence: VHP_ISS_NEXT(kFence);

  // Ops that end the block. A block runs up to its stop op, so an op that
  // ends it is that op and sits at stop_pc.
  op_jal:
    x[op->rd] = stop_pc + 4;
    pc = stop_pc + op->imm;
    cycles += op_cycles(OpKind::kJal);
    goto retire_block;
  op_jalr: {
    const u32 target = (x[op->rs1] + op->imm) & ~1u;  // before rd: rd may
    x[op->rd] = stop_pc + 4;                          // be rs1
    pc = target;
    cycles += op_cycles(OpKind::kJalr);
    goto retire_block;
  }
  op_beq: VHP_ISS_BRANCH(kBeq, x[op->rs1] == x[op->rs2]);
  op_bne: VHP_ISS_BRANCH(kBne, x[op->rs1] != x[op->rs2]);
  op_blt:
    VHP_ISS_BRANCH(kBlt,
                   static_cast<i32>(x[op->rs1]) < static_cast<i32>(x[op->rs2]));
  op_bge:
    VHP_ISS_BRANCH(kBge, static_cast<i32>(x[op->rs1]) >=
                             static_cast<i32>(x[op->rs2]));
  op_bltu: VHP_ISS_BRANCH(kBltu, x[op->rs1] < x[op->rs2]);
  op_bgeu: VHP_ISS_BRANCH(kBgeu, x[op->rs1] >= x[op->rs2]);
  taken:
    pc = stop_pc + op->imm;
    goto retire_block;
  not_taken:
    cycles += kUntakenCycles;
  fell_through:
    pc = stop_pc + 4;
  retire_block:
    retired += last + 1;
    if (cycles >= budget_cycles) break;
    continue;
  moved:  // a load or store moved the page's version: end after it
    pc = pc_of() + 4;
    retired += static_cast<u64>(op - entry) + 1;
    if (cycles >= budget_cycles) break;
    continue;
  op_ecall:
    out.trap = TrapKind::kEcall;
    cycles += op_cycles(OpKind::kEcall);
    goto trapped;
  op_ebreak:
    out.trap = TrapKind::kEbreak;
    cycles += op_cycles(OpKind::kEbreak);
  trapped:
    pc = stop_pc + 4;
    retired += last + 1;
    break;
  op_illegal:  // the pc stays AT the offender, which does not retire
    out.trap = TrapKind::kIllegalInstruction;
    pc = stop_pc;
    retired += last;
    cycles += op_cycles(OpKind::kIllegal);
    break;
  }
  pc_ = pc;
  retired_ = retired;
  out.cycles = cycles;
  out.instruction = op != nullptr ? op->raw : 0;
  return out;
}

#undef VHP_ISS_BRANCH
#undef VHP_ISS_NEXT_AFTER_ACCESS
#undef VHP_ISS_NEXT
#undef VHP_ISS_ADVANCE
#undef VHP_ISS_DISPATCH

}  // namespace vhp::iss
