// Micro-benchmarks of the RV32IM interpreter: raw instructions per second
// of the firmware-level timing model, flat (one Cpu::step() per
// instruction, StepResult cycles straight to the budget), batched
// (Cpu::run() in 64-cycle batches, as IssRunner's flat path runs firmware)
// and pipelined (every step priced through the vhp::mem hierarchy —
// I-cache fetch, D-cache data access, banked memory). The batched rows
// run whole basic blocks through the threaded executor; the flat and
// pipelined rows price its per-call cost, a one-op block per step().
//
// Exits 1 when a row retired other than its n instructions, or when a
// workload's batched run sums other simulated cycles than its flat run:
// both are counts, so host noise cannot trip them.
//
// Output: BENCH_micro_iss.metrics.json — one row per workload x model with
// host MIPS and the timing-model counters of the run, so a trajectory of
// this file shows interpreter-speed and model-overhead drift over time.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>

#include "vhp/iss/assemble.hpp"
#include "vhp/iss/cpu.hpp"
#include "vhp/iss/timed_bus.hpp"
#include "vhp/mem/config.hpp"
#include "vhp/mem/system.hpp"

using namespace vhp;
using namespace vhp::iss;

namespace {

// addi/bne countdown: the interpreter's hot path.
Asm alu_loop() {
  Asm a;
  const auto loop = a.make_label();
  a.li(1, 1000000000);  // effectively endless for the bench window
  a.bind(loop);
  a.addi(1, 1, -1);
  a.bne(1, 0, loop);
  a.ecall();
  return a;
}

// lw/sw copy loop: load/store path through the sparse memory.
Asm memcopy_loop() {
  Asm a;
  const auto loop = a.make_label();
  a.li(1, 0x4000);      // src
  a.li(2, 0x8000);      // dst
  a.li(3, 0x7fffffff);  // huge count
  a.bind(loop);
  a.lw(4, 1, 0);
  a.sw(4, 2, 0);
  a.addi(1, 1, 4);
  a.addi(2, 2, 4);
  a.addi(3, 3, -1);
  a.bne(3, 0, loop);
  a.ecall();
  return a;
}

// mul/divu/remu: the multi-cycle arithmetic path.
Asm muldiv_mix() {
  Asm a;
  const auto loop = a.make_label();
  a.li(1, 123456789);
  a.li(2, 97);
  a.bind(loop);
  a.mul(3, 1, 2);
  a.divu(4, 1, 2);
  a.remu(5, 1, 2);
  a.j(loop);
  return a;
}

// iss_firmware's inner loop (perfbench): an LCG step and an xorshift per
// iteration, 9 cycles in six instructions (mul 3, taken branch 2).
Asm firmware_loop() {
  Asm a;
  const auto loop = a.make_label();
  a.li(11, 1664525);
  a.li(12, 1013904223);
  a.li(29, 12345);
  a.li(30, 0x7fffffff);  // huge count
  a.bind(loop);
  a.mul(29, 29, 11);
  a.add(29, 29, 12);
  a.srli(13, 29, 13);
  a.xor_(29, 29, 13);
  a.addi(30, 30, -1);
  a.bne(30, 0, loop);
  a.ecall();
  return a;
}

struct RunResult {
  double wall_s = 0;
  u64 sim_cycles = 0;      // virtual cycles the instructions cost
  u64 retired = 0;         // instructions the Cpu retired
  std::string metrics;     // JSON object body of model counters
};

/// Steps `n` instructions on a flat bus: the single-core default timing.
RunResult run_flat(const Asm& prog, u64 n) {
  sim::Memory ram{"ram"};
  prog.load_into(ram, 0x1000);
  MemoryBus bus{ram};
  Cpu cpu{bus};
  cpu.set_pc(0x1000);
  u64 cycles = 0;
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < n; ++i) cycles += cpu.step().cycles;
  const auto end = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.sim_cycles = cycles;
  r.retired = cpu.instructions_retired();
  r.metrics = "{\"sim_cycles\":" + std::to_string(cycles) + "}";
  return r;
}

/// Runs `n` instructions in Cpu::run() batches of 64 cycles, IssRunner's
/// flat path without the board.
RunResult run_batched(const Asm& prog, u64 n) {
  sim::Memory ram{"ram"};
  prog.load_into(ram, 0x1000);
  MemoryBus bus{ram};
  Cpu cpu{bus};
  cpu.set_pc(0x1000);
  u64 cycles = 0;
  const auto start = std::chrono::steady_clock::now();
  while (cpu.instructions_retired() < n) cycles += cpu.run(64, n).cycles;
  const auto end = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.sim_cycles = cycles;
  r.retired = cpu.instructions_retired();
  r.metrics = "{\"sim_cycles\":" + std::to_string(cycles) + "}";
  return r;
}

/// Steps `n` instructions with the memory hierarchy in the timing path,
/// exactly as IssRunner prices an armed many-core board (minus MMIO).
RunResult run_pipelined(const Asm& prog, u64 n) {
  sim::Memory ram{"ram"};
  prog.load_into(ram, 0x1000);
  MemoryBus bus{ram};
  TimedBus timed{bus};
  Cpu cpu{timed};
  cpu.set_pc(0x1000);
  mem::MemorySystem sys{mem::MemConfig{}, 1};
  mem::CorePort& port = sys.port(0);
  u64 now = 0;
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < n; ++i) {
    timed.begin_instruction(cpu.pc());
    const StepResult step = cpu.step();
    const auto& acc = timed.accesses();
    const u64 fetch = acc.has_fetch ? port.fetch(acc.fetch_addr, now) : 0;
    u64 data = 0;
    if (acc.has_data) {
      data = port.data_access(acc.data_addr, acc.data_is_store, now + fetch);
    }
    now += port.pipeline().instruction(step.cycles, fetch, data);
  }
  const auto end = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.sim_cycles = now;
  r.retired = cpu.instructions_retired();
  const auto& p = port.pipeline().stats();
  r.metrics = strformat(
      "{\"sim_cycles\":{},\"icache_hits\":{},\"icache_misses\":{},"
      "\"dcache_hits\":{},\"dcache_misses\":{},\"fetch_stall_cycles\":{},"
      "\"data_stall_cycles\":{},\"bank_requests\":{}}",
      now, port.icache().hits(), port.icache().misses(), port.dcache().hits(),
      port.dcache().misses(), p.fetch_stall_cycles, p.data_stall_cycles,
      sys.memory().requests());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "ISS interpreter speed: flat and batched vs pipelined (memory "
      "hierarchy) pricing",
      "firmware timing model throughput, DESIGN.md SS6/SS13");
  const bool quick = bench::quick_mode(argc, argv);
  const u64 n = quick ? 1'000'000 : 5'000'000;
  const int reps = quick ? 2 : 3;

  const struct {
    const char* name;
    Asm prog;
  } workloads[] = {{"alu_loop", alu_loop()},
                   {"memcopy_loop", memcopy_loop()},
                   {"muldiv_mix", muldiv_mix()},
                   {"firmware_loop", firmware_loop()}};

  std::vector<bench::JsonRow> rows;
  int failures = 0;
  std::printf("%14s %10s %12s %10s %14s\n", "workload", "model", "wall_min_s",
              "host_mips", "cycles_per_ins");
  for (const auto& w : workloads) {
    const struct {
      const char* name;
      RunResult (*run)(const Asm&, u64);
    } models[] = {{"flat", run_flat},
                  {"batched", run_batched},
                  {"pipelined", run_pipelined}};
    u64 flat_cycles = 0;
    for (const auto& m : models) {
      RunResult best;
      best.wall_s = 1e100;
      for (int i = 0; i < reps; ++i) {
        RunResult one = m.run(w.prog, n);
        if (one.wall_s < best.wall_s) best = std::move(one);
      }
      const double mips =
          best.wall_s > 0 ? static_cast<double>(n) / best.wall_s / 1e6 : 0.0;
      const double cpi = static_cast<double>(best.sim_cycles) /
                         static_cast<double>(n);
      std::printf("%14s %10s %12.4f %10.1f %14.2f\n", w.name, m.name,
                  best.wall_s, mips, cpi);
      if (best.retired != n) {
        std::fprintf(stderr, "%s %s: retired %llu instructions, not %llu\n",
                     w.name, m.name,
                     static_cast<unsigned long long>(best.retired),
                     static_cast<unsigned long long>(n));
        ++failures;
      }
      if (m.run == run_flat) flat_cycles = best.sim_cycles;
      if (m.run == run_batched && best.sim_cycles != flat_cycles) {
        std::fprintf(stderr, "%s: batched run summed %llu cycles, flat %llu\n",
                     w.name, static_cast<unsigned long long>(best.sim_cycles),
                     static_cast<unsigned long long>(flat_cycles));
        ++failures;
      }
      bench::JsonRow row;
      row.params = strformat(
          "\"workload\":\"{}\",\"model\":\"{}\",\"instructions\":{},"
          "\"reps\":{},\"host_mips\":{},\"cycles_per_instruction\":{}",
          w.name, m.name, n, reps, mips, cpi);
      row.wall_seconds = best.wall_s;
      row.metrics_json = best.metrics;
      rows.push_back(std::move(row));
    }
  }

  const std::string path =
      bench::json_output_path(argc, argv, "BENCH_micro_iss.metrics.json");
  if (!bench::write_bench_json(path, "micro_iss", rows)) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", path.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "micro_iss: %d row(s) failed the work check\n",
                 failures);
    return 1;
  }
  return 0;
}
