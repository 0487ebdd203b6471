#include "vhp/mem/system.hpp"

#include <cassert>

#include "vhp/common/format.hpp"

namespace vhp::mem {

CorePort::CorePort(MemorySystem& system, u32 core, const MemConfig& config,
                   obs::Hub& hub)
    : system_(&system), core_(core),
      icache_(std::make_unique<Cache>(config.icache)),
      dcache_(std::make_unique<Cache>(config.dcache)),
      icache_hits_(
          hub.metrics().counter(strformat("mem.core{}.icache_hits", core))),
      icache_misses_(
          hub.metrics().counter(strformat("mem.core{}.icache_misses", core))),
      dcache_hits_(
          hub.metrics().counter(strformat("mem.core{}.dcache_hits", core))),
      dcache_misses_(
          hub.metrics().counter(strformat("mem.core{}.dcache_misses", core))) {
}

u64 CorePort::miss_cycles(u64 fill_addr, u64 issued_at) {
  const InterconnectConfig& ic = system_->config_.interconnect;
  const BankAccess bank =
      system_->banked_.request(fill_addr, issued_at + ic.hop_cycles);
  if (bank.wait_cycles > 0) {
    system_->bank_conflicts_.inc();
    system_->bank_conflict_wait_.record_ns(bank.wait_cycles);
  }
  // Completion as seen by the core: request hop is inside complete_at's
  // base; add the return hop.
  return (bank.complete_at + ic.hop_cycles) - issued_at;
}

u64 CorePort::fetch(u64 addr, u64 now) {
  const CacheAccess a = icache_->access(addr);
  if (a.hit) {
    icache_hits_.inc();
    return system_->config_.icache.hit_cycles;
  }
  icache_misses_.inc();
  const u64 penalty = system_->config_.icache.miss_penalty_cycles;
  return system_->config_.icache.hit_cycles + penalty +
         miss_cycles(a.fill_addr, now + penalty);
}

u64 CorePort::data_access(u64 addr, bool is_store, u64 now) {
  (void)is_store;  // write-allocate: stores time exactly like loads
  const CacheAccess a = dcache_->access(addr);
  if (a.hit) {
    dcache_hits_.inc();
    return system_->config_.dcache.hit_cycles;
  }
  dcache_misses_.inc();
  const u64 penalty = system_->config_.dcache.miss_penalty_cycles;
  return system_->config_.dcache.hit_cycles + penalty +
         miss_cycles(a.fill_addr, now + penalty);
}

MemorySystem::MemorySystem(MemConfig config, u32 cores, obs::Hub* hub)
    : config_(config),
      owned_hub_(hub != nullptr ? nullptr : new obs::Hub()),
      hub_(hub != nullptr ? hub : owned_hub_.get()),
      banked_(config.memory),
      bank_conflicts_(hub_->metrics().counter("mem.bank_conflicts")),
      bank_conflict_wait_(
          hub_->metrics().histogram("mem.bank_conflict_wait_cycles")) {
  assert(config.validate().ok());
  assert(cores > 0);
  ports_.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    ports_.emplace_back(new CorePort(*this, c, config_, *hub_));
  }
  obs::MetricsRegistry& m = hub_->metrics();
  gauges_.push_back(&m.gauge("mem.requests"));
  for (u32 b = 0; b < banked_.config().banks; ++b) {
    gauges_.push_back(&m.gauge(strformat("mem.bank{}.requests", b)));
    gauges_.push_back(&m.gauge(strformat("mem.bank{}.conflicts", b)));
  }
  for (u32 c = 0; c < cores; ++c) {
    for (const char* what : {"instructions", "busy_cycles",
                             "fetch_stall_cycles", "data_stall_cycles"}) {
      gauges_.push_back(&m.gauge(strformat("mem.core{}.{}", c, what)));
    }
  }
}

MemorySystem::~MemorySystem() = default;

void MemorySystem::publish_stats() {
  auto gauge = gauges_.begin();
  const auto set = [&gauge](u64 value) {
    (*gauge++)->set(static_cast<i64>(value));
  };
  set(banked_.requests());
  for (u32 b = 0; b < banked_.config().banks; ++b) {
    set(banked_.bank_requests(b));
    set(banked_.bank_conflicts(b));
  }
  for (const auto& port : ports_) {
    const PipelineStats& ps = port->pipeline().stats();
    set(ps.instructions);
    set(ps.total_cycles);
    set(ps.fetch_stall_cycles);
    set(ps.data_stall_cycles);
  }
}

}  // namespace vhp::mem
