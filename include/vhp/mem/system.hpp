// The assembled memory hierarchy of a many-core virtual board.
//
//   core 0..M-1  ──  L1 I$ + L1 D$  ──  interconnect  ──  banked memory
//
// MemorySystem owns per-core CorePorts (each an ICache/DCache pair plus a
// pipeline stall accountant) in front of one shared BankedMemory behind a
// fixed-latency interconnect. Everything is a *timing* model: functional
// data stays in sim::Memory, and every method answers in CPU cycles.
//
// Threading: all ports are driven from the board's single host thread (RTOS
// threads are fibers), so the model needs no locks; per-access counters are
// obs counters (relaxed atomics), so metric dumps from other threads see
// monotone values; the bank and pipeline totals reach a dump only through
// publish_stats(). Virtual time `now` is the calling core's cycle counter
// — cores interleave deterministically under the SMP kernel, so bank busy
// windows compose deterministically too.
#pragma once

#include <memory>
#include <vector>

#include "vhp/mem/banked_memory.hpp"
#include "vhp/mem/cache.hpp"
#include "vhp/mem/config.hpp"
#include "vhp/mem/pipeline.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::mem {

class MemorySystem;

/// One core's edge of the hierarchy: L1 I/D caches + stall accounting.
class CorePort {
 public:
  /// I-path timing of a fetch at `addr`, issued at virtual cycle `now`.
  u64 fetch(u64 addr, u64 now);
  /// D-path timing of a load/store at `addr`, issued at virtual cycle `now`.
  u64 data_access(u64 addr, bool is_store, u64 now);

  [[nodiscard]] Cache& icache() { return *icache_; }
  [[nodiscard]] Cache& dcache() { return *dcache_; }
  [[nodiscard]] PipelineModel& pipeline() { return pipeline_; }
  [[nodiscard]] u32 core() const { return core_; }

 private:
  friend class MemorySystem;
  CorePort(MemorySystem& system, u32 core, const MemConfig& config,
           obs::Hub& hub);

  /// Miss path: miss penalty + hop + bank (queue + access) + hop.
  u64 miss_cycles(u64 fill_addr, u64 issued_at);

  MemorySystem* system_;
  u32 core_;
  std::unique_ptr<Cache> icache_;
  std::unique_ptr<Cache> dcache_;
  PipelineModel pipeline_;

  obs::Counter& icache_hits_;
  obs::Counter& icache_misses_;
  obs::Counter& dcache_hits_;
  obs::Counter& dcache_misses_;
};

class MemorySystem {
 public:
  /// `config` must have passed MemConfig::validate(). `hub` is the session
  /// hub; nullptr (standalone wiring, unit tests) gets a private one.
  MemorySystem(MemConfig config, u32 cores, obs::Hub* hub = nullptr);
  ~MemorySystem();

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  [[nodiscard]] CorePort& port(u32 core) { return *ports_[core]; }
  [[nodiscard]] u32 cores() const { return static_cast<u32>(ports_.size()); }
  [[nodiscard]] BankedMemory& memory() { return banked_; }
  [[nodiscard]] const MemConfig& config() const { return config_; }
  [[nodiscard]] obs::Hub& obs() { return *hub_; }

  /// Copies the bank and pipeline totals into the mem.* gauges. Call on
  /// the thread that drives the ports; a board does after every pump.
  void publish_stats();

 private:
  friend class CorePort;

  MemConfig config_;
  std::unique_ptr<obs::Hub> owned_hub_;
  obs::Hub* hub_;
  BankedMemory banked_;

  obs::Counter& bank_conflicts_;
  /// Distribution of cycles spent queued on a busy bank (recorded only on
  /// conflicts; buckets are cycles, not ns).
  obs::LatencyHistogram& bank_conflict_wait_;

  std::vector<std::unique_ptr<CorePort>> ports_;
  std::vector<obs::Gauge*> gauges_;  // publish_stats()'s, in its order
};

}  // namespace vhp::mem
