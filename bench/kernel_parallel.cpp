// Parallel-kernel scaling on the widened router workload: N independent
// per-port checksum pipelines (the compute shape of the router case study
// scaled to 16/32/64 ports) feeding one collector through signals — N+1
// islands, so the evaluation phase fans out over the worker pool while the
// collector island serializes behind the signal cut.
//
// Sweep: ports x workers (0 = serial legacy path). Three checks ride on
// the sweep, enforced under --gate:
//   parity    — folded digest and delta count bit-identical at every
//               worker count (the tentpole contract, measured on the bench
//               workload itself);
//   disarmed  — set_parallel(4) then set_parallel(0) against a never-armed
//               kernel, in interleaved repetitions on the 32-port netlist:
//               the disarmed median may exceed the serial median by no
//               more than the serial runs' own quartile spread;
//   speedup   — >= 1.5x at 4 workers on the 32-port netlist, checked only
//               on the full sweep (the --quick netlist is too small to
//               amortize pool dispatch) and only when the host actually
//               has >= 4 CPUs (the row is still reported).
//
// Output: BENCH_kernel_parallel.metrics.json.
#include "bench_util.hpp"

#include <algorithm>
#include <thread>

#include "vhp/sim/kernel.hpp"
#include "vhp/sim/module.hpp"

using namespace vhp;

namespace {

/// One router port modeled as a self-ticking checksum pipeline: every time
/// unit it mixes `rounds` iterations of xorshift into its state (the "body
/// checksum" work the router does per packet) and publishes the digest.
struct PortPipe : sim::Module {
  sim::Signal<u64>& digest;
  sim::Event tick;
  u64 state;
  const int rounds;

  PortPipe(sim::Kernel& k, std::size_t idx, int mix_rounds)
      : Module(k, "port" + std::to_string(idx)),
        digest(make_signal<u64>("digest")),
        tick(k, qualify("tick")),
        state(0x9e3779b97f4a7c15ULL * (idx + 1)),
        rounds(mix_rounds) {
    method("stage", [this] {
      u64 x = state;
      for (int r = 0; r < rounds; ++r) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x2545F4914F6CDD1DULL;
      }
      state = x;
      digest.write(x);
      tick.notify_at(1);
    }).sensitive(tick);
    // The method's initialization run at t=0 primes the self-tick.
  }
};

/// Folds every port digest. Sensitive only to the digests' value-changed
/// events (signal-owned, i.e. island cuts), so it is its own island and
/// the N pipelines evaluate fully in parallel ahead of it.
struct Collector : sim::Module {
  sim::Signal<u64>& folded;
  u64 acc = 0;

  Collector(sim::Kernel& k, const std::vector<PortPipe*>& ports)
      : Module(k, "collector"), folded(make_signal<u64>("folded")) {
    auto& fold = method("fold", [this, &ports] {
      u64 v = acc;
      for (std::size_t p = 0; p < ports.size(); ++p) {
        const u64 d = ports[p]->digest.read();
        v ^= (d << (p % 63)) | (d >> (63 - (p % 63)));
      }
      acc = v;
      folded.write(v);
    });
    for (PortPipe* p : ports) fold.sensitive(p->digest.value_changed_event());
    fold.dont_initialize();
  }
};

struct RunOutcome {
  double wall_s = 0;
  u64 folded = 0;
  u64 delta_count = 0;
  u64 islands = 0;
  std::string metrics;
};

/// One measured run. `arm_then_disarm` models the "configured but off"
/// path: the kernel is armed at 4 lanes, immediately disarmed, and must
/// then behave (and cost) like a never-armed serial kernel.
RunOutcome run_netlist(std::size_t ports, unsigned workers, int rounds,
                       sim::SimTime run_time, bool arm_then_disarm = false) {
  sim::Kernel kernel;
  std::vector<std::unique_ptr<PortPipe>> pipes;
  std::vector<PortPipe*> raw;
  for (std::size_t p = 0; p < ports; ++p) {
    pipes.push_back(std::make_unique<PortPipe>(kernel, p, rounds));
    raw.push_back(pipes.back().get());
  }
  Collector collector{kernel, raw};

  if (arm_then_disarm) {
    kernel.set_parallel(4);
    kernel.set_parallel(0);
  } else if (workers > 0) {
    kernel.set_parallel(workers);
  }

  const auto start = std::chrono::steady_clock::now();
  kernel.run_until(run_time);
  const auto end = std::chrono::steady_clock::now();

  RunOutcome r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.folded = collector.folded.read();
  r.delta_count = kernel.delta_count();
  r.islands = kernel.island_count();
  // strformat has no brace escaping, so the JSON skeleton is concatenated.
  const auto stats = kernel.parallel_stats();
  std::string lanes;
  for (std::size_t i = 0; i < stats.lanes.size(); ++i) {
    if (i > 0) lanes += ",";
    lanes += "{" +
             strformat("\"busy_ns\":{},\"islands_run\":{}",
                       stats.lanes[i].busy_ns, stats.lanes[i].islands_run) +
             "}";
  }
  r.metrics = "{" +
              strformat("\"islands\":{},\"parallel_deltas\":{},"
                        "\"repartitions\":{},\"lanes\":[{}]",
                        stats.islands, stats.parallel_deltas,
                        stats.repartitions, lanes) +
              "}";
  return r;
}

RunOutcome min_of(std::size_t ports, unsigned workers, int rounds,
                  sim::SimTime run_time, int reps) {
  RunOutcome best;
  best.wall_s = 1e100;
  for (int i = 0; i < reps; ++i) {
    RunOutcome one = run_netlist(ports, workers, rounds, run_time);
    if (one.wall_s < best.wall_s) best = std::move(one);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "parallel kernel scaling: per-port pipelines x evaluation lanes",
      "deterministic parallel delta-cycle kernel (tentpole acceptance)");
  const bool quick = bench::quick_mode(argc, argv);
  const bool gate = bench::gate_mode(argc, argv);

  const int reps = quick ? 2 : 3;
  const int rounds = quick ? 400 : 1500;
  const sim::SimTime run_time = quick ? 1000 : 3000;
  const std::vector<std::size_t> port_counts =
      quick ? std::vector<std::size_t>{16, 32}
            : std::vector<std::size_t>{16, 32, 64};
  const std::vector<unsigned> worker_counts{0, 1, 2, 4, 8};
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("host cores: %u   reps: %d   mix rounds: %d   sim time: %llu\n\n",
              cores, reps, rounds,
              static_cast<unsigned long long>(run_time));
  std::printf("%6s %8s %8s %12s %10s %10s\n", "ports", "workers", "islands",
              "wall_min_s", "speedup", "parity");

  bool parity_ok = true;
  double speedup_at_4_on_32 = 0.0;
  std::vector<bench::JsonRow> rows;

  for (std::size_t ports : port_counts) {
    RunOutcome serial;
    for (unsigned workers : worker_counts) {
      const RunOutcome out =
          min_of(ports, workers, rounds, run_time, reps);
      const bool match = workers == 0 ||
                         (out.folded == serial.folded &&
                          out.delta_count == serial.delta_count);
      if (workers == 0) serial = out;
      if (!match) parity_ok = false;
      const double speedup =
          out.wall_s > 0 ? serial.wall_s / out.wall_s : 0.0;
      if (ports == 32 && workers == 4) speedup_at_4_on_32 = speedup;
      std::printf("%6zu %8u %8llu %12.4f %9.2fx %10s\n", ports, workers,
                  static_cast<unsigned long long>(out.islands), out.wall_s,
                  speedup, match ? "ok" : "DIVERGED");

      bench::JsonRow row;
      row.params = strformat(
          "\"ports\":{},\"workers\":{},\"islands\":{},\"rounds\":{},"
          "\"sim_time\":{},\"folded\":{},\"delta_count\":{},\"speedup\":{},"
          "\"parity\":{}",
          ports, workers, out.islands, rounds, run_time, out.folded,
          out.delta_count, speedup, match ? "true" : "false");
      row.wall_seconds = out.wall_s;
      row.metrics_json = out.metrics;
      rows.push_back(std::move(row));
    }
  }

  // Disarmed overhead on the 32-port netlist: armed-then-disarmed vs a
  // never-armed kernel, run as interleaved pairs (alternating which goes
  // first) so drift in the host hits both sides alike.
  const int pairs = quick ? 5 : 7;
  RunOutcome base;
  RunOutcome disarmed;
  bool disarmed_parity = true;
  const bench::SpreadCheck check =
      bench::interleaved_spread_check(pairs, [&](bool arm_then_disarm) {
        RunOutcome one =
            run_netlist(32, 0, rounds, run_time, arm_then_disarm);
        const double wall = one.wall_s;
        (arm_then_disarm ? disarmed : base) = std::move(one);
        if (arm_then_disarm) {
          disarmed_parity = disarmed_parity &&
                            disarmed.folded == base.folded &&
                            disarmed.delta_count == base.delta_count;
        }
        return wall;
      });
  const bool disarmed_ok = disarmed_parity && check.ok();
  std::printf("\n");
  check.print("disarmed overhead (armed at 4, then workers=0)");

  {
    bench::JsonRow row;
    row.params = "\"config\":\"disarmed\",\"ports\":32," +
                 check.json_fields();
    row.wall_seconds = check.candidate_median_s;
    row.metrics_json = disarmed.metrics;
    rows.push_back(std::move(row));
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_kernel_parallel.metrics.json");
  if (bench::write_bench_json(path, "kernel_parallel", rows)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 2;
  }

  int failures = 0;
  if (!parity_ok) {
    std::fprintf(stderr, "FAIL: parallel run diverged from serial\n");
    ++failures;
  }
  if (!disarmed_ok) {
    std::fprintf(stderr,
                 disarmed_parity
                     ? "FAIL: disarmed parallel config costs %.2f%%, beyond "
                       "the serial runs' quartile spread\n"
                     : "FAIL: disarmed parallel config diverged from serial "
                       "(%.2f%%)\n",
                 check.overhead_pct());
    ++failures;
  }
  if (quick) {
    std::printf("speedup gate skipped: needs the full sweep (%.2fx measured "
                "at 4 workers on the quick 32-port netlist)\n",
                speedup_at_4_on_32);
  } else if (cores >= 4) {
    if (speedup_at_4_on_32 < 1.5) {
      std::fprintf(stderr,
                   "FAIL: %.2fx at 4 workers on 32 ports (need >= 1.5x)\n",
                   speedup_at_4_on_32);
      ++failures;
    } else {
      std::printf("speedup at 4 workers on 32 ports: %.2fx (>= 1.5x)\n",
                  speedup_at_4_on_32);
    }
  } else {
    std::printf(
        "speedup gate skipped: host has %u core(s); %.2fx measured is the "
        "single-core serialization floor, not a scaling result\n",
        cores, speedup_at_4_on_32);
  }
  return gate && failures > 0 ? 1 : 0;
}
