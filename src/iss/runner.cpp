#include "vhp/iss/runner.hpp"

namespace vhp::iss {

IssRunner::IssRunner(board::Board& board, sim::Memory& ram,
                     IssRunnerConfig config)
    : board_(board), config_(config), bus_(ram), cpu_(timed_bus_),
      irq_sem_(board.kernel(), 0) {
  bus_.map_mmio(
      config_.mmio_base, config_.mmio_size,
      [this](u32 offset, unsigned bytes) -> u32 {
        board_.kernel().consume(config_.mmio_access_cost);
        auto data = board_.dev_read(offset, bytes);
        if (!data.ok()) return 0;
        u32 v = 0;
        for (std::size_t i = 0; i < data.value().size() && i < 4; ++i) {
          v |= static_cast<u32>(data.value()[i]) << (8 * i);
        }
        return v;
      },
      [this](u32 offset, u32 value, unsigned bytes) {
        board_.kernel().consume(config_.mmio_access_cost);
        Bytes raw(bytes);
        for (unsigned i = 0; i < bytes; ++i) {
          raw[i] = static_cast<u8>(value >> (8 * i));
        }
        (void)board_.dev_write(offset, raw);
      });

  cpu_.set_pc(config_.entry_pc);
  cpu_.set_reg(Cpu::kRegSp, config_.stack_top);
  thread_ = &board_.spawn_app(config_.thread_name, config_.priority,
                              [this] { run_loop(); });
}

void IssRunner::attach_memory(mem::CorePort& port) {
  mem_port_ = &port;
  thread_->set_affinity(static_cast<int>(port.core()));
}

bool IssRunner::handle_ecall() {
  const u32 num = cpu_.reg(Cpu::kRegA7);
  switch (num) {
    case 0:  // exit
      exit_code_ = cpu_.reg(Cpu::kRegA0);
      return false;
    case 1:  // wfi: wait for the device interrupt
      irq_sem_.wait();
      return true;
    case 2:  // read board tick counter
      cpu_.set_reg(Cpu::kRegA0,
                   static_cast<u32>(board_.kernel().tick_count().value()));
      return true;
    case 3:  // yield
      board_.kernel().yield();
      return true;
    case 4:  // core id
      cpu_.set_reg(Cpu::kRegA0,
                   mem_port_ != nullptr ? mem_port_->core()
                                        : board_.kernel().current_core());
      return true;
    default:
      log_.warn("firmware: unknown syscall {} at pc={}", num, cpu_.pc());
      return true;
  }
}

void IssRunner::run_loop() {
  u64 pending_cycles = 0;
  const auto charge = [&] {
    if (pending_cycles > 0) {
      board_.kernel().consume(pending_cycles);
      pending_cycles = 0;
    }
  };
  for (;;) {
    if (cpu_.instructions_retired() >= config_.max_instructions) {
      log_.error("firmware: instruction limit {} reached at pc={}",
                 config_.max_instructions, cpu_.pc());
      exit_code_ = kFaultExitCode;
      break;
    }
    StepResult r;
    if (mem_port_ == nullptr) {
      // Flat timing: one batch up to the next charge point. pending_cycles
      // is below batch_cycles here, and run() stops where a step loop
      // would charge: at the batch end, a trap or the instruction limit.
      r = cpu_.run(config_.batch_cycles - pending_cycles,
                   config_.max_instructions);
      pending_cycles += r.cycles;
    } else {
      // Pipelined timing: the fetch traverses the I-cache, a data access
      // the D-cache (misses queue on the shared banks); MMIO keeps its
      // flat bridge cost — device registers are uncached by definition.
      timed_bus_.begin_instruction(cpu_.pc());
      r = cpu_.step();
      const auto& acc = timed_bus_.accesses();
      const u64 now =
          board_.kernel().core_cycle_count(mem_port_->core()) + pending_cycles;
      const u64 fetch_lat =
          acc.has_fetch ? mem_port_->fetch(acc.fetch_addr, now) : 0;
      u64 data_lat = 0;
      if (acc.has_data && !is_mmio(acc.data_addr)) {
        data_lat = mem_port_->data_access(acc.data_addr, acc.data_is_store,
                                          now + fetch_lat);
      }
      pending_cycles +=
          mem_port_->pipeline().instruction(r.cycles, fetch_lat, data_lat);
    }
    if (r.trap == TrapKind::kNone) {
      if (pending_cycles >= config_.batch_cycles) charge();
      continue;
    }
    // Traps synchronize the budget first: syscalls observe consistent time.
    charge();
    if (r.trap == TrapKind::kEcall) {
      if (!handle_ecall()) break;
      continue;
    }
    if (r.trap == TrapKind::kEbreak) {
      log_.info("firmware: ebreak at pc={}", cpu_.pc());
      break;
    }
    log_.error("firmware: {} at pc={} (ins={})",
               r.trap == TrapKind::kIllegalInstruction ? "illegal instruction"
                                                       : "misaligned fetch",
               cpu_.pc(), r.instruction);
    exit_code_ = kFaultExitCode;
    break;
  }
  charge();
  exited_.store(true, std::memory_order_release);
  log_.debug("firmware halted: {} instructions, exit={}",
             cpu_.instructions_retired(), exit_code_);
}

}  // namespace vhp::iss
