// Access-recording bus decorator for the memory-hierarchy timing model.
//
// The Cpu performs at most two memory transactions per step: the
// instruction fetch and one data load or store. Fetches from RAM never
// reach a bus (the Cpu reads its decoded-page cache), so the fetch is
// recorded from the pc given to begin_instruction(); load() and store()
// record the data access. TimedBus forwards everything to the inner bus
// unchanged — it is purely functional pass-through — so the runner can
// charge the pipeline/cache/bank timing model (vhp/mem) after the step
// retires. Without a memory hierarchy attached the record is simply
// ignored; the decorator costs one branch per data access.
#pragma once

#include "vhp/iss/bus.hpp"

namespace vhp::iss {

class TimedBus final : public Bus {
 public:
  /// Memory transactions of one instruction, in issue order.
  struct Accesses {
    bool has_fetch = false;
    u32 fetch_addr = 0;
    bool has_data = false;
    u32 data_addr = 0;
    bool data_is_store = false;
  };

  explicit TimedBus(Bus& inner) : inner_(inner) {}

  /// Call before each Cpu::step() with the Cpu's pc: records the fetch of
  /// the instruction at `pc` (none when `pc` is misaligned, which traps
  /// before fetching) and clears the data access.
  void begin_instruction(u32 pc) {
    acc_ = Accesses{};
    if ((pc & 3u) == 0) {
      acc_.has_fetch = true;
      acc_.fetch_addr = pc;
    }
  }
  [[nodiscard]] const Accesses& accesses() const { return acc_; }

  u32 load(u32 addr, unsigned bytes) override {
    record_data(addr, false);
    return inner_.load(addr, bytes);
  }

  void store(u32 addr, u32 value, unsigned bytes) override {
    record_data(addr, true);
    inner_.store(addr, value, bytes);
  }

  const sim::Memory::Page* ram_page(u32 pc) override {
    return inner_.ram_page(pc);
  }
  /// Already recorded by begin_instruction().
  u32 fetch(u32 pc) override { return inner_.fetch(pc); }

 private:
  void record_data(u32 addr, bool is_store) {
    if (!acc_.has_data) {
      acc_.has_data = true;
      acc_.data_addr = addr;
      acc_.data_is_store = is_store;
    }
  }

  Bus& inner_;
  Accesses acc_;
};

}  // namespace vhp::iss
