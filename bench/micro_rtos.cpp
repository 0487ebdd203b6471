// Micro-benchmarks of the RTOS substrate: context switches, primitives,
// tick processing, and SMP dispatch (ablation data for DESIGN.md §4 and
// §13 — fibers vs anything heavier would show up directly in the yield
// ping-pong number; the smp4 row prices the per-core sweep).
//
// Output: BENCH_micro_rtos.metrics.json — one row per workload with host
// operations per second, so a trajectory of this file shows scheduler-path
// drift over time.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "vhp/rtos/kernel.hpp"
#include "vhp/rtos/mailbox.hpp"
#include "vhp/rtos/sync.hpp"

using namespace vhp;
using rtos::Kernel;
using rtos::KernelConfig;

namespace {

KernelConfig cfg(u32 cores = 1) {
  KernelConfig c;
  c.cycles_per_tick = 1000;
  c.cores = cores;
  return c;
}

/// Two equal-priority threads yielding to each other: one op per switch.
/// On an SMP kernel each core gets its own ping-pong pair, splitting the
/// op count; the per-core sweep dispatch cost lands in every switch.
/// Returns -1 unless every pair made all its yields, each one a dispatch.
double yield_pingpong(u64 ops, u32 cores) {
  Kernel k{cfg(cores)};
  const u64 per_core = ops / cores;
  std::vector<u64> switches(cores, 0);
  for (u32 core = 0; core < cores; ++core) {
    for (int t = 0; t < 2; ++t) {
      auto& th = k.spawn("t" + std::to_string(core) + "-" + std::to_string(t),
                         5, [&k, &switches, core, per_core] {
                           while (switches[core] < per_core) {
                             ++switches[core];
                             k.yield();
                           }
                         });
      if (cores > 1) th.set_affinity(static_cast<int>(core));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  k.run(true);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  const bool every_pair = std::all_of(switches.begin(), switches.end(),
                                      [&](u64 n) { return n == per_core; });
  return every_pair && k.stats().context_switches >= per_core * cores ? s
                                                                      : -1.0;
}

double semaphore_pingpong(u64 ops) {
  Kernel k{cfg()};
  rtos::Semaphore a{k, 0};
  rtos::Semaphore b{k, 0};
  k.spawn("ping", 5, [&, ops] {
    for (u64 i = 0; i < ops; ++i) {
      a.post();
      b.wait();
    }
  });
  k.spawn("pong", 5, [&, ops] {
    for (u64 i = 0; i < ops; ++i) {
      a.wait();
      b.post();
    }
  });
  const auto start = std::chrono::steady_clock::now();
  k.run(true);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double mailbox_throughput(u64 ops) {
  Kernel k{cfg()};
  rtos::Mailbox<u64> box{k, 16};
  k.spawn("producer", 5, [&, ops] {
    for (u64 i = 0; i < ops; ++i) box.put(i);
  });
  u64 sink = 0;
  k.spawn("consumer", 5, [&, ops] {
    for (u64 i = 0; i < ops; ++i) sink += box.get();
  });
  const auto start = std::chrono::steady_clock::now();
  k.run(true);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return sink == ops * (ops - 1) / 2 ? s : -1.0;
}

/// Cost of the timer-tick path (RTC advance + timeslice accounting): a
/// tick per consumed cycle, the worst case.
double tick_processing(u64 ops) {
  KernelConfig c;
  c.cycles_per_tick = 1;
  Kernel k{c};
  k.spawn("worker", 5, [&k, ops] { k.consume(ops); });
  const auto start = std::chrono::steady_clock::now();
  k.run(true);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double alarm_firing(u64 ops) {
  rtos::Counter c{"c"};
  u64 fired = 0;
  rtos::Alarm a{c, [&](rtos::Alarm&, u64) { ++fired; }};
  a.arm_at(1, 1);  // every count
  const auto start = std::chrono::steady_clock::now();
  c.advance(ops);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return fired == ops ? s : -1.0;
}

double interrupt_dispatch(u64 ops) {
  Kernel k{cfg()};
  u64 handled = 0;
  k.interrupts().attach(
      1, rtos::InterruptHandler{[&](u32) {
                                  ++handled;
                                  return rtos::IsrResult::kHandled;
                                },
                                nullptr});
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < ops; ++i) k.interrupts().raise(1);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return handled == ops ? s : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "RTOS substrate speed: switches, primitives, ticks, SMP dispatch",
      "scheduler-path cost ablation, DESIGN.md §4/§13");
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = quick ? 2 : 3;
  const u64 scale = quick ? 1 : 4;

  std::vector<bench::JsonRow> rows;
  std::printf("%20s %12s %12s %14s\n", "workload", "ops", "wall_min_s",
              "ops_per_sec");
  const auto emit = [&](const char* name, u64 ops, double wall_min) {
    if (wall_min < 0) {
      std::fprintf(stderr, "FAIL: %s dropped operations\n", name);
      std::exit(1);
    }
    const double rate =
        wall_min > 0 ? static_cast<double>(ops) / wall_min : 0.0;
    std::printf("%20s %12llu %12.4f %14.0f\n", name,
                static_cast<unsigned long long>(ops), wall_min, rate);
    bench::JsonRow row;
    row.params = strformat(
        "\"workload\":\"{}\",\"ops\":{},\"reps\":{},\"ops_per_sec\":{}", name,
        ops, reps, rate);
    row.wall_seconds = wall_min;
    row.metrics_json = strformat("{\"ops\":{}}", ops);
    rows.push_back(std::move(row));
  };

  // The yield rows first: single-core, then the 4-core SMP sweep — same
  // total op count, so the per-switch dispatch overhead reads directly.
  const u64 kSwitchOps = 20'000 * scale;
  for (const u32 cores : {1u, 4u}) {
    double wall_min = 1e100;
    for (int i = 0; i < reps; ++i) {
      wall_min = std::min(wall_min, yield_pingpong(kSwitchOps, cores));
    }
    emit(cores == 1 ? "yield_pingpong" : "yield_pingpong_smp4", kSwitchOps,
         wall_min);
  }

  struct Workload {
    const char* name;
    u64 ops;
    double (*run)(u64);
  };
  const Workload table[] = {
      {"semaphore_pingpong", 10'000 * scale, semaphore_pingpong},
      {"mailbox_throughput", 10'000 * scale, mailbox_throughput},
      {"tick_processing", 100'000 * scale, tick_processing},
      {"alarm_firing", 200'000 * scale, alarm_firing},
      {"interrupt_dispatch", 200'000 * scale, interrupt_dispatch},
  };
  for (const auto& w : table) {
    double wall_min = 1e100;
    for (int i = 0; i < reps; ++i) {
      wall_min = std::min(wall_min, w.run(w.ops));
    }
    emit(w.name, w.ops, wall_min);
  }

  const std::string path =
      bench::json_output_path(argc, argv, "BENCH_micro_rtos.metrics.json");
  if (!bench::write_bench_json(path, "micro_rtos", rows)) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
