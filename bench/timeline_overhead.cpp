// Observability overhead: the flight-recorder-discipline acceptance check
// for the one switch that arms vhp::obs::timeline and the other costly
// instruments.
//
// Three configurations of the same fixed-cycle router co-simulation:
//   baseline  — default session, observability never mentioned
//   disarmed  — observability configured but off; every span-record call
//               must stay one branch on a const bool (no clock read, no
//               ring), and the CLOCK/TIME_ACK frames must stay at round 0
//   armed     — observability on: round stamping, two steady_clock
//               reads per span and mutex-guarded ring stores, stall
//               profiling and link accounting, as a reference point for
//               what the instruments cost
//
// The check is disarmed-vs-baseline in interleaved repetitions: the
// disarmed median may exceed the baseline median by no more than the
// baseline runs' own quartile spread (bench::interleaved_spread_check).
// The armed row is informational and not checked. Pass --gate to turn a
// failed check into exit 1 (scripts/check.sh does); without it the result
// is reported but not fatal, so full-suite bench sweeps stay green.
//
// Output: BENCH_timeline_overhead.metrics.json — the disarmed check and
// the armed reference, each with one representative run's metrics.
#include "bench_util.hpp"

using namespace vhp;

int main(int argc, char** argv) {
  bench::print_header(
      "timeline overhead: disarmed span tracing vs plain session vs armed",
      "timeline acceptance: a disarmed causal timeline costs nothing beyond "
      "run-to-run spread");
  const bool quick = bench::quick_mode(argc, argv);
  const bool gate = bench::gate_mode(argc, argv);
  const int pairs = quick ? 11 : 15;

  bench::ExperimentParams params;
  params.n_packets = 40;
  params.t_sync = 1000;
  params.gap_cycles = 400;
  params.fixed_cycles = quick ? 60000 : 120000;
  params.transport = cosim::TransportKind::kInProc;  // minimal noise floor

  // Disarmed: the knob exists and is explicitly off — the instrumented hot
  // paths still execute their enabled() branches, which is exactly what the
  // check prices.
  bench::ExperimentParams disarmed = params;
  disarmed.observability = false;
  bench::ExperimentParams armed = params;
  armed.observability = true;

  (void)bench::run_router_experiment(params);  // warm-up, not timed
  bench::ExperimentResult off;
  const bench::SpreadCheck check =
      bench::interleaved_spread_check(pairs, [&](bool candidate) {
        bench::ExperimentResult one =
            bench::run_router_experiment(candidate ? disarmed : params);
        const double wall = one.wall_seconds;
        if (candidate) off = std::move(one);
        return wall;
      });
  std::vector<double> armed_s;
  bench::ExperimentResult on;
  for (int i = 0; i < pairs; ++i) {
    on = bench::run_router_experiment(armed);
    armed_s.push_back(on.wall_seconds);
  }
  const double armed_median = bench::quantile(armed_s, 0.5);
  const double armed_pct =
      check.baseline_median_s > 0
          ? (armed_median / check.baseline_median_s - 1.0) * 100.0
          : 0.0;

  check.print("disarmed timeline");
  std::printf("armed timeline: median %.4f s, %+.2f%% (informational)\n",
              armed_median, armed_pct);

  std::vector<bench::JsonRow> rows;
  {
    bench::JsonRow row;
    row.params = strformat("\"config\":\"disarmed\",\"fixed_cycles\":{},"
                           "\"forwarded\":{},\"syncs\":{},",
                           *params.fixed_cycles, off.forwarded, off.syncs) +
                 check.json_fields();
    row.wall_seconds = check.candidate_median_s;
    row.metrics_json = off.metrics_json;
    rows.push_back(std::move(row));
  }
  {
    bench::JsonRow row;
    row.params = strformat(
        "\"config\":\"armed\",\"fixed_cycles\":{},\"forwarded\":{},"
        "\"syncs\":{},\"overhead_pct\":{}",
        *params.fixed_cycles, on.forwarded, on.syncs, armed_pct);
    row.wall_seconds = armed_median;
    row.metrics_json = on.metrics_json;
    rows.push_back(std::move(row));
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_timeline_overhead.metrics.json");
  if (bench::write_bench_json(path, "timeline_overhead", rows)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  if (!check.ok()) {
    std::fprintf(stderr,
                 "%s: disarmed timeline costs %+.2f%%, beyond the baseline's "
                 "quartile spread\n",
                 gate ? "FAIL" : "WARN", check.overhead_pct());
    if (gate) return 1;
  }
  return 0;
}
