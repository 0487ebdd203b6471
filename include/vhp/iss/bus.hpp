// Memory bus of the instruction-set simulator.
//
// The ISS is an alternative CPU model for the virtual board (the paper's
// companion work integrates an ISS the same way): instead of modeling
// software cost with consume() annotations, real machine code executes and
// every instruction is charged to the board's cycle budget. The bus decodes
// RAM (backed by the sparse sim::Memory) and memory-mapped I/O windows —
// the board module maps the remote simulated device there, so RV32 code
// drives the co-simulated hardware through plain loads and stores.
#pragma once

#include <functional>
#include <vector>

#include "vhp/common/types.hpp"
#include "vhp/sim/memory.hpp"

namespace vhp::iss {

class Bus {
 public:
  virtual ~Bus() = default;

  /// Zero-extended load of 1, 2 or 4 bytes.
  virtual u32 load(u32 addr, unsigned bytes) = 0;
  virtual void store(u32 addr, u32 value, unsigned bytes) = 0;

  /// The RAM page the Cpu may fetch `pc` from directly (and decode once),
  /// or nullptr when an MMIO window overlaps that page: the Cpu then
  /// fetches every instruction there through fetch().
  virtual const sim::Memory::Page* ram_page(u32 pc) = 0;
  /// Uncached instruction fetch of the word at `pc`.
  virtual u32 fetch(u32 pc) { return load(pc, 4); }
};

/// RAM + MMIO windows.
class MemoryBus final : public Bus {
 public:
  using LoadHandler = std::function<u32(u32 offset, unsigned bytes)>;
  using StoreHandler = std::function<void(u32 offset, u32 value,
                                          unsigned bytes)>;

  explicit MemoryBus(sim::Memory& ram) : ram_(ram) {}

  /// Maps [base, base+size) to handlers; later mappings win on overlap.
  /// Map every window before a Cpu runs code: a Cpu keeps the answer of
  /// ram_page() for each page it has fetched from.
  void map_mmio(u32 base, u32 size, LoadHandler load, StoreHandler store) {
    mmio_.push_back(Window{base, size, std::move(load), std::move(store)});
  }

  u32 load(u32 addr, unsigned bytes) override {
    for (auto it = mmio_.rbegin(); it != mmio_.rend(); ++it) {
      if (addr >= it->base && addr - it->base < it->size) {
        return it->load ? it->load(addr - it->base, bytes) : 0;
      }
    }
    u32 v = 0;
    std::array<u8, 4> raw{};
    ram_.read(addr, std::span{raw.data(), bytes});
    for (unsigned i = 0; i < bytes; ++i) v |= static_cast<u32>(raw[i]) << (8 * i);
    return v;
  }

  void store(u32 addr, u32 value, unsigned bytes) override {
    for (auto it = mmio_.rbegin(); it != mmio_.rend(); ++it) {
      if (addr >= it->base && addr - it->base < it->size) {
        if (it->store) it->store(addr - it->base, value, bytes);
        return;
      }
    }
    std::array<u8, 4> raw{};
    for (unsigned i = 0; i < bytes; ++i) raw[i] = static_cast<u8>(value >> (8 * i));
    ram_.write(addr, std::span{raw.data(), bytes});
  }

  const sim::Memory::Page* ram_page(u32 pc) override {
    const u64 first = pc & ~u64{sim::Memory::kPageBytes - 1};
    const u64 end = first + sim::Memory::kPageBytes;
    for (const Window& w : mmio_) {
      if (first < u64{w.base} + w.size && w.base < end) return nullptr;
    }
    return &ram_.page(pc);
  }

 private:
  struct Window {
    u32 base;
    u32 size;
    LoadHandler load;
    StoreHandler store;
  };

  sim::Memory& ram_;
  std::vector<Window> mmio_;
};

}  // namespace vhp::iss
