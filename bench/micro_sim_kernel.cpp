// Micro-benchmarks of the discrete-event simulation kernel (substrate
// characterization + ablation data for DESIGN.md §4): timed event
// dispatch, a delta cycle through a signal, a clock nothing listens to
// (the lazy path), a clocked method and its scheduler fan-out (the
// generator path), the SC_THREAD fiber switch, and a FIFO
// producer/consumer pair.
//
// Output: BENCH_micro_sim_kernel.metrics.json — one row per workload with
// host ns per simulated step, so a trajectory of this file shows
// kernel-path drift over time.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "vhp/sim/fifo.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/module.hpp"

using namespace vhp;

namespace {

struct Bench : sim::Module {
  explicit Bench(sim::Kernel& k) : Module(k, "bench") {}
  using Module::make_bool_signal;
  using Module::make_signal;
  using Module::method;
  using Module::thread;
};

/// One measured run: wall time of the step loop and the work the model
/// counted doing, which the caller checks against the steps asked for.
struct Run {
  double wall_s = 0;
  u64 items = 0;
};

template <typename Step>
double time_steps(u64 steps, Step&& step) {
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < steps; ++i) step();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A self-re-notifying method: one timed event per step.
Run timed_event_dispatch(u64 steps) {
  sim::Kernel k;
  Bench tb{k};
  sim::Event ev{k, "ev"};
  u64 count = 0;
  tb.method("m", [&] {
      ++count;
      ev.notify_at(1);
    })
      .sensitive(ev);
  const double s = time_steps(steps, [&] { k.run(1); });
  return {s, count};
}

/// An external signal write and the delta cycle that commits it.
Run delta_cycle_with_signal(u64 steps) {
  sim::Kernel k;
  Bench tb{k};
  auto& sig = tb.make_signal<u32>("s", 0);
  u32 v = 0;
  const double s = time_steps(steps, [&] {
    sig.write(++v);
    k.run(1);
  });
  return {s, sig.read()};
}

/// A clock nobody listens to, one period per step: no event is scheduled,
/// the level is computed. The work counted is the steps after which the
/// clock reads the level its start and period predict.
Run clock_unlistened(u64 steps) {
  constexpr sim::SimTime kPeriod = 2;
  sim::Kernel k;
  sim::Clock clk{k, "clk", kPeriod};
  u64 correct = 0;
  const double s = time_steps(steps, [&] {
    k.run(kPeriod);
    const bool expected = k.now() % kPeriod < kPeriod - kPeriod / 2;
    correct += clk.read() == expected ? 1 : 0;
  });
  return {s, correct};
}

/// `fanout` posedge-sensitive methods on one clock, one cycle per step.
Run clocked_fanout(u64 steps, std::size_t fanout) {
  sim::Kernel k;
  sim::Clock clk{k, "clk", 2};
  Bench tb{k};
  u64 sink = 0;
  for (std::size_t i = 0; i < fanout; ++i) {
    tb.method("m" + std::to_string(i), [&] { ++sink; })
        .sensitive(clk.posedge_event())
        .dont_initialize();
  }
  const double s = time_steps(steps, [&] { k.run(2); });
  return {s, sink / fanout};
}

/// Fiber suspend/resume through the kernel: the SC_THREAD context switch.
Run thread_wait_resume(u64 steps) {
  sim::Kernel k;
  Bench tb{k};
  u64 wakes = 0;
  tb.thread("t", [&] {
    for (;;) {
      sim::wait(1);
      ++wakes;
    }
  });
  const double s = time_steps(steps, [&] { k.run(1); });
  return {s, wakes};
}

/// Producer/consumer fibers around a FIFO, one item per time step (a pure
/// delta ping-pong would livelock the timestep, as it would in SystemC).
Run fifo_throughput(u64 steps) {
  sim::Kernel k;
  Bench tb{k};
  sim::Fifo<u64> fifo{k, "f", 64};
  u64 consumed = 0;
  tb.thread("producer", [&] {
    u64 i = 0;
    for (;;) fifo.write(i++);
  });
  tb.thread("consumer", [&] {
    for (;;) {
      (void)fifo.read();
      ++consumed;
      sim::wait(1);
    }
  });
  const double s = time_steps(steps, [&] { k.run(1); });
  return {s, consumed};
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "simulation kernel speed: dispatch, deltas, clocked fan-out, fibers",
      "HDL substrate cost ablation, DESIGN.md §4");
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = quick ? 2 : 3;
  const u64 steps = quick ? 100'000 : 500'000;

  std::vector<bench::JsonRow> rows;
  std::printf("%24s %10s %12s %12s\n", "workload", "steps", "wall_min_s",
              "ns_per_step");
  const auto measure = [&](const std::string& name, u64 n,
                           const auto& workload) {
    Run best{1e100, 0};
    for (int i = 0; i < reps; ++i) {
      const Run one = workload(n);
      // Every step must have done its work (the first step may be the
      // initialization run, so allow one short).
      if (one.items + 1 < n) {
        std::fprintf(stderr, "FAIL: %s did %llu of %llu steps\n", name.c_str(),
                     static_cast<unsigned long long>(one.items),
                     static_cast<unsigned long long>(n));
        std::exit(1);
      }
      if (one.wall_s < best.wall_s) best = one;
    }
    const double ns = best.wall_s * 1e9 / static_cast<double>(n);
    std::printf("%24s %10llu %12.4f %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(n), best.wall_s, ns);
    bench::JsonRow row;
    row.params = strformat(
        "\"workload\":\"{}\",\"steps\":{},\"reps\":{},\"ns_per_step\":{}",
        name, n, reps, ns);
    row.wall_seconds = best.wall_s;
    row.metrics_json = strformat("{\"items\":{}}", best.items);
    rows.push_back(std::move(row));
  };

  measure("timed_event_dispatch", steps, timed_event_dispatch);
  measure("delta_cycle_with_signal", steps, delta_cycle_with_signal);
  measure("clock_unlistened", steps, clock_unlistened);
  for (const std::size_t fanout : {1, 16, 256}) {
    // Keep the wide fan-out rows to a comparable amount of method calls.
    const u64 n = std::max<u64>(1000, steps * 16 / std::max<std::size_t>(
                                                     fanout, 16));
    measure(strformat("clocked_fanout_{}", fanout), n,
            [fanout](u64 s) { return clocked_fanout(s, fanout); });
  }
  measure("thread_wait_resume", steps, thread_wait_resume);
  measure("fifo_throughput", steps, fifo_throughput);

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_micro_sim_kernel.metrics.json");
  if (!bench::write_bench_json(path, "micro_sim_kernel", rows)) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
