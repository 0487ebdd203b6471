// RV32IM instruction-set simulator core.
//
// Each instruction word is decoded once: the Cpu fetches straight from the
// RAM page behind the pc and keeps a decoded copy of every page it has
// fetched from, so a run() batch executes pre-decoded ops without a bus
// call or a decode per step. A decoded op carries the version its RAM page
// had when it was decoded (sim::Memory bumps it on every write), so a store
// — by this Cpu, another core, or the host between runs — is visible to
// the next fetch without a FENCE.I. Code in a page an MMIO window overlaps
// is fetched through the bus and decoded on every execution.
//
// Traps (ECALL/EBREAK/illegal/misaligned) are returned to the embedder
// rather than vectored, because the embedder here is the virtual board,
// which maps ECALL onto RTOS services (exit, wait-for-interrupt, tick
// queries — see vhp/iss/runner.hpp).
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "vhp/common/types.hpp"
#include "vhp/iss/bus.hpp"

namespace vhp::iss {

enum class TrapKind : u8 {
  kNone = 0,
  kEcall,
  kEbreak,
  kIllegalInstruction,
  kMisalignedFetch,
};

struct StepResult {
  TrapKind trap = TrapKind::kNone;
  /// Modeled cost in CPU cycles: of the instruction (step) or the summed
  /// cost of the batch (run).
  u64 cycles = 1;
  /// The raw word of the last instruction executed (diagnostics).
  u32 instruction = 0;
};

class Cpu {
 public:
  explicit Cpu(Bus& bus);
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// x0 reads as zero always; writes to it are dropped.
  [[nodiscard]] u32 reg(unsigned i) const { return i == 0 ? 0 : x_[i]; }
  void set_reg(unsigned i, u32 v) {
    if (i != 0) x_[i] = v;
  }

  [[nodiscard]] u32 pc() const { return pc_; }
  void set_pc(u32 pc) { pc_ = pc; }

  [[nodiscard]] u64 instructions_retired() const { return retired_; }

  /// Executes one instruction. On ECALL/EBREAK the pc is already advanced
  /// past the trapping instruction (resume by just calling step again).
  /// On an illegal instruction or a misaligned fetch the pc points AT the
  /// offender and nothing retires.
  StepResult step() { return run(1, ~u64{0}); }

  /// Executes instructions until their summed cycles reach
  /// `budget_cycles`, one traps, or instructions_retired() reaches
  /// `retire_limit`. At least one instruction runs unless the limit is
  /// already reached. Returns the summed cycles, the trap (if any) and the
  /// last instruction's raw word; a trap leaves the pc as step() does.
  StepResult run(u64 budget_cycles, u64 retire_limit);

  /// RISC-V ABI register numbers used by the runner's syscall convention.
  static constexpr unsigned kRegRa = 1;
  static constexpr unsigned kRegSp = 2;
  static constexpr unsigned kRegA0 = 10;
  static constexpr unsigned kRegA1 = 11;
  static constexpr unsigned kRegA7 = 17;

 private:
  struct DecodedPage;

  /// The decoded page holding `pc`, created on first fetch; nullptr when
  /// the bus has no RAM page there (MMIO).
  DecodedPage* decoded_page(u32 pc);

  Bus& bus_;
  /// x0..x31, plus x_[32]: the sink decoded ops write instead of x0.
  std::array<u32, 33> x_{};
  u32 pc_ = 0;
  u64 retired_ = 0;
  std::unordered_map<u32, std::unique_ptr<DecodedPage>> pages_;
  /// The page of the last fetch (cur_index_ is its pc / page size; cur_ is
  /// nullptr when that page is fetched through the bus).
  u32 cur_index_ = ~u32{0};
  DecodedPage* cur_ = nullptr;
};

}  // namespace vhp::iss
