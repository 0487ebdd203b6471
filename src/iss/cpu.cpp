#include "vhp/iss/cpu.hpp"

#include <initializer_list>

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
};

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
      op.kind = K::kJalr;
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
      op.kind = K::kFence;  // single hart: FENCE/FENCE.I are no-ops
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

  /// Decodes the word at `pc` from the RAM page as it is now.
  void redecode(Op& op, u32 pc) const {
    u32 word = 0;
    if (ram.bytes) {
      const u8* p = ram.bytes->data() + (pc & (kPageBytes - 4));
      word = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
             (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
    }
    op = decode(word);
    op.version = ram.version;
  }

  const sim::Memory::Page& ram;
  std::array<Op, kPageBytes / 4> ops{};
};

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

// Cache-line aligned, so that the interpreter's dispatch keeps one layout
// however much code precedes it in the binary: unpinned, its speed on
// perfbench iss_firmware moved by ~15 % with the size of unrelated code.
[[gnu::aligned(64)]] StepResult Cpu::run(u64 budget_cycles,
                                         u64 retire_limit) {
  // The loop keeps pc, the retired count and the summed cycles in locals
  // and only stores pc_ and retired_, so no step waits on the previous
  // step's store.
  StepResult out;
  u64 cycles_sum = 0;
  u32 pc = pc_;
  u64 retired = retired_;
  Op uncached;
  while (retired < retire_limit) {
    if ((pc & 3u) != 0) {
      out.trap = TrapKind::kMisalignedFetch;
      out.instruction = 0;
      cycles_sum += 1;
      break;
    }
    if (pc / kPageBytes != cur_index_) {
      cur_ = decoded_page(pc);
      cur_index_ = pc / kPageBytes;
    }
    const Op* op = &uncached;
    if (cur_ != nullptr) {
      Op& cached = cur_->ops[(pc % kPageBytes) / 4];
      if (cached.version != cur_->ram.version) cur_->redecode(cached, pc);
      op = &cached;
    } else {
      uncached = decode(bus_.fetch(pc));
    }
    out.instruction = op->raw;

    const u32 a = x_[op->rs1];
    const u32 b = x_[op->rs2];
    const u32 imm = op->imm;
    u32& rd = x_[op->rd];
    u32 next_pc = pc + 4;
    u64 cycles = 1;
    TrapKind trap = TrapKind::kNone;
    using K = OpKind;
    switch (op->kind) {
      case K::kIllegal:
        trap = TrapKind::kIllegalInstruction;
        break;
      case K::kLui: rd = imm; break;
      case K::kAuipc: rd = pc + imm; break;
      case K::kJal:
        rd = pc + 4;
        next_pc = pc + imm;
        cycles = 2;
        break;
      case K::kJalr:
        next_pc = (a + imm) & ~1u;  // before rd: rd may be rs1
        rd = pc + 4;
        cycles = 2;
        break;
      case K::kBeq: if (a == b) { next_pc = pc + imm; cycles = 2; } break;
      case K::kBne: if (a != b) { next_pc = pc + imm; cycles = 2; } break;
      case K::kBlt:
        if (static_cast<i32>(a) < static_cast<i32>(b)) {
          next_pc = pc + imm;
          cycles = 2;
        }
        break;
      case K::kBge:
        if (static_cast<i32>(a) >= static_cast<i32>(b)) {
          next_pc = pc + imm;
          cycles = 2;
        }
        break;
      case K::kBltu: if (a < b) { next_pc = pc + imm; cycles = 2; } break;
      case K::kBgeu: if (a >= b) { next_pc = pc + imm; cycles = 2; } break;
      // Loads into x0 still access the bus: MMIO reads have side effects.
      case K::kLb: rd = sext(bus_.load(a + imm, 1), 8); cycles = 2; break;
      case K::kLh: rd = sext(bus_.load(a + imm, 2), 16); cycles = 2; break;
      case K::kLw: rd = bus_.load(a + imm, 4); cycles = 2; break;
      case K::kLbu: rd = bus_.load(a + imm, 1); cycles = 2; break;
      case K::kLhu: rd = bus_.load(a + imm, 2); cycles = 2; break;
      case K::kSb: bus_.store(a + imm, b, 1); cycles = 2; break;
      case K::kSh: bus_.store(a + imm, b, 2); cycles = 2; break;
      case K::kSw: bus_.store(a + imm, b, 4); cycles = 2; break;
      case K::kAddi: rd = a + imm; break;
      case K::kSlti: rd = static_cast<i32>(a) < static_cast<i32>(imm); break;
      case K::kSltiu: rd = a < imm; break;
      case K::kXori: rd = a ^ imm; break;
      case K::kOri: rd = a | imm; break;
      case K::kAndi: rd = a & imm; break;
      case K::kSlli: rd = a << imm; break;
      case K::kSrli: rd = a >> imm; break;
      case K::kSrai:
        rd = static_cast<u32>(static_cast<i32>(a) >> imm);
        break;
      case K::kAdd: rd = a + b; break;
      case K::kSub: rd = a - b; break;
      case K::kSll: rd = a << (b & 0x1f); break;
      case K::kSlt: rd = static_cast<i32>(a) < static_cast<i32>(b); break;
      case K::kSltu: rd = a < b; break;
      case K::kXor: rd = a ^ b; break;
      case K::kSrl: rd = a >> (b & 0x1f); break;
      case K::kSra:
        rd = static_cast<u32>(static_cast<i32>(a) >> (b & 0x1f));
        break;
      case K::kOr: rd = a | b; break;
      case K::kAnd: rd = a & b; break;
      case K::kMul: rd = a * b; cycles = 3; break;
      case K::kMulh:
        rd = static_cast<u32>((static_cast<i64>(static_cast<i32>(a)) *
                               static_cast<i64>(static_cast<i32>(b))) >> 32);
        cycles = 3;
        break;
      case K::kMulhsu:
        rd = static_cast<u32>((static_cast<i64>(static_cast<i32>(a)) *
                               static_cast<i64>(static_cast<u64>(b))) >> 32);
        cycles = 3;
        break;
      case K::kMulhu:
        rd = static_cast<u32>((static_cast<u64>(a) * static_cast<u64>(b)) >>
                              32);
        cycles = 3;
        break;
      case K::kDiv:
        if (b == 0) {
          rd = 0xffffffffu;
        } else if (a == 0x80000000u && b == 0xffffffffu) {
          rd = 0x80000000u;
        } else {
          rd = static_cast<u32>(static_cast<i32>(a) / static_cast<i32>(b));
        }
        cycles = 8;  // div slower than mul
        break;
      case K::kDivu: rd = b == 0 ? 0xffffffffu : a / b; cycles = 8; break;
      case K::kRem:
        if (b == 0) {
          rd = a;
        } else if (a == 0x80000000u && b == 0xffffffffu) {
          rd = 0;
        } else {
          rd = static_cast<u32>(static_cast<i32>(a) % static_cast<i32>(b));
        }
        cycles = 8;
        break;
      case K::kRemu: rd = b == 0 ? a : a % b; cycles = 8; break;
      case K::kFence: break;
      case K::kEcall: trap = TrapKind::kEcall; break;
      case K::kEbreak: trap = TrapKind::kEbreak; break;
    }
    cycles_sum += cycles;
    if (trap == TrapKind::kIllegalInstruction) {  // pc stays AT the offender
      out.trap = trap;
      break;
    }
    pc = next_pc;
    pc_ = pc;
    retired_ = ++retired;
    if (trap != TrapKind::kNone) {
      out.trap = trap;
      break;
    }
    if (cycles_sum >= budget_cycles) break;
  }
  out.cycles = cycles_sum;
  return out;
}

}  // namespace vhp::iss
