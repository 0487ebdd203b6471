// Fault-layer overhead: the zero-hop acceptance check for vhp::fault.
//
// Three configurations of the same fixed-cycle router co-simulation:
//   baseline  — no fault configuration at all
//   disarmed  — an empty FaultPlan + recovery disabled in the config; both
//               must compile away (no decorator inserted, no extra hop)
//   armed     — a seeded drop plan with the recovery layer on, as a
//               reference point for what real chaos costs
//
// The check is disarmed-vs-baseline in interleaved repetitions: the
// disarmed median may exceed the baseline median by no more than the
// baseline runs' own quartile spread (bench::interleaved_spread_check).
// The armed row is informational and not checked. Pass --gate to turn a
// failed check into exit 1 (scripts/check.sh does).
//
// Output: BENCH_fault_overhead.metrics.json — the disarmed check and the
// armed reference, each with one representative run's metrics.
#include "bench_util.hpp"

#include "vhp/fault/plan.hpp"

using namespace vhp;

int main(int argc, char** argv) {
  bench::print_header(
      "fault layer overhead: disarmed config vs plain session vs armed chaos",
      "vhp::fault acceptance: a disarmed fault layer costs nothing beyond "
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

  // Disarmed: the fault fields are *set* but carry no rules and recovery
  // stays off — the session must not insert a single decorator for this.
  bench::ExperimentParams disarmed = params;
  disarmed.fault_plan = fault::FaultPlan{};
  disarmed.recovery = fault::RecoveryConfig{};

  bench::ExperimentParams armed = params;
  armed.fault_plan.seed = 11;
  {
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kDrop;
    rule.probability = 0.02;
    armed.fault_plan.add(rule);
  }
  armed.recovery.enabled = true;
  armed.recovery.rto = std::chrono::milliseconds{2};
  armed.recovery.rto_max = std::chrono::milliseconds{50};

  (void)bench::run_router_experiment(params);  // warm-up, not timed
  bench::ExperimentResult zero_hop;
  const bench::SpreadCheck check =
      bench::interleaved_spread_check(pairs, [&](bool candidate) {
        bench::ExperimentResult one =
            bench::run_router_experiment(candidate ? disarmed : params);
        const double wall = one.wall_seconds;
        if (candidate) zero_hop = std::move(one);
        return wall;
      });
  std::vector<double> armed_s;
  bench::ExperimentResult chaos;
  for (int i = 0; i < pairs; ++i) {
    chaos = bench::run_router_experiment(armed);
    armed_s.push_back(chaos.wall_seconds);
  }
  const double armed_median = bench::quantile(armed_s, 0.5);
  const double armed_pct =
      check.baseline_median_s > 0
          ? (armed_median / check.baseline_median_s - 1.0) * 100.0
          : 0.0;

  check.print("disarmed fault layer");
  std::printf("armed (2%% drop + recovery): median %.4f s, %+.2f%% "
              "(informational)\n",
              armed_median, armed_pct);

  std::vector<bench::JsonRow> rows;
  {
    bench::JsonRow row;
    row.params = strformat("\"config\":\"disarmed\",\"fixed_cycles\":{},"
                           "\"forwarded\":{},\"syncs\":{},",
                           *params.fixed_cycles, zero_hop.forwarded,
                           zero_hop.syncs) +
                 check.json_fields();
    row.wall_seconds = check.candidate_median_s;
    row.metrics_json = zero_hop.metrics_json;
    rows.push_back(std::move(row));
  }
  {
    bench::JsonRow row;
    row.params = strformat(
        "\"config\":\"armed\",\"fixed_cycles\":{},\"forwarded\":{},"
        "\"syncs\":{},\"overhead_pct\":{}",
        *params.fixed_cycles, chaos.forwarded, chaos.syncs, armed_pct);
    row.wall_seconds = armed_median;
    row.metrics_json = chaos.metrics_json;
    rows.push_back(std::move(row));
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_fault_overhead.metrics.json");
  if (bench::write_bench_json(path, "fault_overhead", rows)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  if (!check.ok()) {
    std::fprintf(stderr,
                 "%s: disarmed fault layer costs %+.2f%%, beyond the "
                 "baseline's quartile spread\n",
                 gate ? "FAIL" : "WARN", check.overhead_pct());
    if (gate) return 1;
  }
  return 0;
}
