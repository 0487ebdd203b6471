// Shared-memory contention on the many-core board (DESIGN.md §13).
//
// Sweep mode (default): cores x banks grid of timed co-simulations. Every
// core runs the same SPMD firmware walking shared memory one cache line
// per iteration (stride = the bank interleave, so every access is a fresh
// line AND the cores sweep the banks in lockstep), so the bank-conflict
// wait is the signal: it grows with cores and shrinks with banks — one
// bank serializes everyone, four banks pipeline the sweep. The 4-core
// contended point is
// re-run under a fixed quantum and under the adaptive SyncPolicy — the
// grant/stall distributions of the two rows must differ (the adaptive
// coordinator shrinks grants while the cores are busy).
//
// Gate mode (--gate): the zero-hop acceptance check for the hierarchy. A
// single-core session without a MemConfig must cost what the board cost
// before vhp::mem existed. "legacy" is the pre-hierarchy firmware loop —
// the Cpu stepping straight on the MemoryBus with batched consume() —
// reproduced here verbatim; "disarmed" is today's IssRunner, whose bus
// carries the TimedBus decorator and the null-port branch. The check: in
// interleaved repetitions, the disarmed median stays within the legacy
// runs' own quartile spread (bench::interleaved_spread_check).
//
// Output: BENCH_mem_contention.metrics.json.
#include "bench_util.hpp"

#include <algorithm>

#include "vhp/cosim/sync_policy.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/multicore.hpp"
#include "vhp/iss/runner.hpp"
#include "vhp/mem/config.hpp"

using namespace vhp;

namespace {

/// SPMD bank walker: a0 = core id (syscall 4); every iteration increments
/// one word at base + id*4 and then advances by `step` bytes. With
/// step = the bank interleave stride (= the D-cache line size), every
/// access is a fresh line and all cores sweep the banks in lockstep:
/// contention concentrates on however few banks the config provides.
iss::Asm contended_program(u32 step, u32 iters) {
  iss::Asm a;
  a.addi(17, 0, 4);  // a7 = core-id syscall
  a.ecall();
  a.slli(5, 10, 2);  // x5 = id * 4
  a.li(8, 0x0010'0000);
  a.add(8, 8, 5);  // x8 = &word[id]
  a.li(6, iters);
  a.li(9, step);
  const auto loop = a.make_label();
  a.bind(loop);
  a.lw(7, 8, 0);
  a.addi(7, 7, 1);
  a.sw(7, 8, 0);
  a.add(8, 8, 9);
  a.addi(6, 6, -1);
  a.bne(6, 0, loop);
  a.addi(17, 0, 0);  // exit(id)
  a.ecall();
  return a;
}

struct SweepResult {
  double wall_s = 0;
  u64 cycles_run = 0;
  bool all_exited = false;
  u64 syncs = 0;
  u64 grants = 0;
  u64 requests = 0;
  u64 conflicts = 0;
  u64 conflict_wait = 0;
  u64 dcache_misses = 0;
  u64 data_stalls = 0;
  u64 instructions = 0;
  std::string metrics_json;
};

SweepResult run_sweep_point(u32 cores, u32 banks, bool adaptive, u32 iters,
                            u64 max_cycles) {
  cosim::SessionConfigBuilder b;
  b.inproc().cycles_per_tick(10).cores(cores);
  mem::MemConfig mc;
  mc.memory.banks = banks;
  b.memory(mc);
  if (adaptive) {
    b.sync(cosim::SyncPolicy{}.quantum(200).adaptive().min_quantum(50)
               .max_quantum(2000));
  } else {
    b.t_sync(200);
  }
  cosim::CosimSession session{b.build_or_throw()};

  sim::Memory ram{"ram"};
  const u32 step = mc.memory.stride_bytes;
  contended_program(step, iters).load_into(ram, 0x1000);
  iss::MultiCoreBoardConfig board_cfg;
  board_cfg.entry_pcs.assign(cores, 0x1000);
  iss::MultiCoreBoard mcores{session.board(), ram, board_cfg};

  session.start_board();
  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  constexpr u64 kChunk = 500;
  while (cycles < max_cycles && !mcores.all_exited()) {
    if (!session.run_cycles(kChunk).ok()) break;
    cycles += kChunk;
  }
  const auto end = std::chrono::steady_clock::now();
  session.finish();

  SweepResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.cycles_run = cycles;
  r.all_exited = mcores.all_exited();
  r.syncs = session.hw().stats().syncs;
  r.grants = session.board().kernel().stats().grants;
  r.requests = mcores.memory().memory().requests();
  r.conflicts = mcores.memory().memory().conflicts();
  r.conflict_wait = mcores.memory().memory().conflict_wait_cycles();
  for (u32 c = 0; c < cores; ++c) {
    r.dcache_misses += mcores.memory().port(c).dcache().misses();
    const auto& p = mcores.memory().port(c).pipeline().stats();
    r.data_stalls += p.data_stall_cycles;
    r.instructions += p.instructions;
  }
  r.metrics_json = session.obs().metrics_json();
  return r;
}

bench::JsonRow sweep_row(const char* policy, u32 cores, u32 banks,
                         const SweepResult& r) {
  bench::JsonRow row;
  row.params = strformat(
      "\"cores\":{},\"banks\":{},\"policy\":\"{}\",\"cycles_run\":{},"
      "\"all_exited\":{},\"syncs\":{},\"grants\":{},\"requests\":{},"
      "\"conflicts\":{},\"conflict_wait_cycles\":{},\"dcache_misses\":{},"
      "\"data_stall_cycles\":{},\"instructions\":{}",
      cores, banks, policy, r.cycles_run, r.all_exited ? "true" : "false",
      r.syncs, r.grants, r.requests, r.conflicts, r.conflict_wait,
      r.dcache_misses, r.data_stalls, r.instructions);
  row.wall_seconds = r.wall_s;
  row.metrics_json = r.metrics_json;
  return row;
}

// ---------- gate mode ----------

/// Endless lw/inc/sw countdown: the representative firmware inner loop for
/// the overhead measurement (never exits; the fixed cycle budget bounds it).
iss::Asm gate_program() {
  iss::Asm a;
  a.li(1, 0x7fffffff);
  a.li(2, 0x4000);
  const auto loop = a.make_label();
  a.bind(loop);
  a.lw(3, 2, 0);
  a.addi(3, 3, 1);
  a.sw(3, 2, 0);
  a.addi(1, 1, -1);
  a.bne(1, 0, loop);
  a.ecall();
  return a;
}

struct GateResult {
  double wall_s = 0;
  u64 instructions = 0;
  std::string metrics_json;
};

/// One rep of a fixed-cycle single-core session. `legacy` reproduces the
/// pre-hierarchy ISS integration: Cpu straight on the MemoryBus, batching
/// flat StepResult cycles into consume() — no TimedBus, no null-port
/// branch. Otherwise the regular (disarmed) IssRunner drives the firmware.
GateResult run_gate_rep(bool legacy, u64 fixed_cycles) {
  auto cfg = cosim::SessionConfigBuilder{}
                 .inproc()
                 .t_sync(500)
                 .cycles_per_tick(10)
                 .build_or_throw();
  cosim::CosimSession session{cfg};
  sim::Memory ram{"ram"};
  gate_program().load_into(ram, 0x1000);

  std::unique_ptr<iss::IssRunner> runner;
  std::unique_ptr<iss::MemoryBus> flat_bus;
  std::unique_ptr<iss::Cpu> flat_cpu;
  if (legacy) {
    flat_bus = std::make_unique<iss::MemoryBus>(ram);
    flat_cpu = std::make_unique<iss::Cpu>(*flat_bus);
    flat_cpu->set_pc(0x1000);
    flat_cpu->set_reg(iss::Cpu::kRegSp, 0x0008'0000);
    auto& kernel = session.board().kernel();
    iss::Cpu& cpu = *flat_cpu;
    session.board().spawn_app("firmware", 8, [&kernel, &cpu] {
      u64 pending = 0;
      for (;;) {
        pending += cpu.step().cycles;
        if (pending >= 64) {
          kernel.consume(pending);
          pending = 0;
        }
      }
    });
  } else {
    runner = std::make_unique<iss::IssRunner>(session.board(), ram,
                                              iss::IssRunnerConfig{});
  }

  session.start_board();
  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  constexpr u64 kChunk = 200;
  while (cycles < fixed_cycles) {
    if (!session.run_cycles(kChunk).ok()) break;
    cycles += kChunk;
  }
  const auto end = std::chrono::steady_clock::now();
  session.finish();

  GateResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.instructions =
      legacy ? flat_cpu->instructions_retired() : runner->instructions();
  r.metrics_json = session.obs().metrics_json();
  return r;
}

int run_gate(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const int pairs = quick ? 11 : 15;
  const u64 fixed_cycles = quick ? 60'000 : 120'000;

  (void)run_gate_rep(true, fixed_cycles);  // warm-up, not timed
  GateResult legacy, disarmed;
  const bench::SpreadCheck check =
      bench::interleaved_spread_check(pairs, [&](bool candidate) {
        GateResult one = run_gate_rep(!candidate, fixed_cycles);
        const double wall = one.wall_s;
        (candidate ? disarmed : legacy) = std::move(one);
        return wall;
      });
  std::printf("%10s %14s\n", "config", "instructions");
  std::printf("%10s %14llu\n", "legacy",
              static_cast<unsigned long long>(legacy.instructions));
  std::printf("%10s %14llu\n", "disarmed",
              static_cast<unsigned long long>(disarmed.instructions));
  check.print("disarmed single-core board vs the legacy flat loop");

  bench::JsonRow row;
  row.params = strformat("\"config\":\"disarmed\",\"fixed_cycles\":{},"
                         "\"instructions\":{},\"legacy_instructions\":{},",
                         fixed_cycles, disarmed.instructions,
                         legacy.instructions) +
               check.json_fields();
  row.wall_seconds = check.candidate_median_s;
  row.metrics_json = disarmed.metrics_json;
  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_mem_contention.metrics.json");
  if (!bench::write_bench_json(path, "mem_contention", {row})) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", path.c_str());

  if (!check.ok()) {
    std::fprintf(stderr,
                 "FAIL: disarmed single-core board costs %+.2f%% over the "
                 "legacy flat loop, beyond its quartile spread\n",
                 check.overhead_pct());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "many-core shared-memory contention: cores x banks, fixed vs adaptive",
      "vhp::mem acceptance: bank conflicts scale with cores/banks; a "
      "disarmed single-core board costs under 1%");
  if (bench::gate_mode(argc, argv)) return run_gate(argc, argv);

  const bool quick = bench::quick_mode(argc, argv);
  const u32 iters = quick ? 300 : 1000;
  const u64 max_cycles = quick ? 200'000 : 600'000;
  const std::vector<u32> core_counts = quick ? std::vector<u32>{1, 4}
                                             : std::vector<u32>{1, 2, 4};
  const std::vector<u32> bank_counts = quick ? std::vector<u32>{1, 4}
                                             : std::vector<u32>{1, 2, 4};

  std::vector<bench::JsonRow> rows;
  std::printf("%6s %6s %9s %10s %10s %12s %14s\n", "cores", "banks", "policy",
              "wall_s", "conflicts", "wait_cycles", "data_stalls");
  const auto report = [&](const char* policy, u32 cores, u32 banks,
                          const SweepResult& r) {
    std::printf("%6u %6u %9s %10.4f %10llu %12llu %14llu\n", cores, banks,
                policy, r.wall_s,
                static_cast<unsigned long long>(r.conflicts),
                static_cast<unsigned long long>(r.conflict_wait),
                static_cast<unsigned long long>(r.data_stalls));
    rows.push_back(sweep_row(policy, cores, banks, r));
  };

  for (const u32 cores : core_counts) {
    for (const u32 banks : bank_counts) {
      report("fixed", cores, banks,
             run_sweep_point(cores, banks, /*adaptive=*/false, iters,
                             max_cycles));
    }
  }
  // Sync-policy sensitivity at the 4-core contended point: the adaptive
  // coordinator sees zero lookahead while the cores grind and issues
  // min-quantum grants — a different grant/stall distribution than the
  // fixed 200-cycle quantum above.
  for (const u32 banks : bank_counts) {
    report("adaptive", 4, banks,
           run_sweep_point(4, banks, /*adaptive=*/true, iters, max_cycles));
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_mem_contention.metrics.json");
  if (!bench::write_bench_json(path, "mem_contention", rows)) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
