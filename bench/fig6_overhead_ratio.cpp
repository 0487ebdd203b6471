// Figure 6 — "Co-Simulation Overhead vs T_sync": wall time normalized to
// the *untimed* simulation (no synchronization at all), on a log scale.
//
// Paper's observations to reproduce:
//   (i)  the overhead ratio falls steeply as T_sync grows (log-scale Y);
//   (ii) the paper quotes ~1000x at per-cycle sync, ~100x at T_sync=360;
//   (iii) the decay rate barely depends on N.
//
// Every cell, the untimed baseline included, runs R times (5; 3 with
// --quick) in interleaved rounds, so host drift hits all cells alike. The
// host's TCP round trip is bimodal, so one run per cell can read 45x and
// the next 2x: the table prints the ratio of medians and the min-max of
// each cell's runs, and the JSON holds each cell's median run.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace vhp;
using namespace vhp::bench;

/// One (N, T_sync) cell's repetitions; t_sync unset is the untimed run.
struct Cell {
  u64 n = 0;
  std::optional<u64> t_sync;
  std::vector<ExperimentResult> runs;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const int reps = quick ? 3 : 5;

  print_header("FIG6: overhead ratio (timed / untimed) vs T_sync",
               "Figure 6 (Section 6.1)");

  const std::vector<u64> ns = quick ? std::vector<u64>{40}
                                    : std::vector<u64>{40, 100};
  const std::vector<u64> t_syncs =
      quick ? std::vector<u64>{10, 100, 1000, 10000}
            : std::vector<u64>{1, 3, 10, 36, 100, 360, 1000, 3600, 10000};

  // Per N: the untimed baseline first, then the timed cells.
  std::vector<Cell> cells;
  for (u64 n : ns) {
    cells.push_back(Cell{n, std::nullopt, {}});
    for (u64 ts : t_syncs) cells.push_back(Cell{n, ts, {}});
  }
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate the sweep direction so no cell always runs first.
    for (std::size_t k = 0; k < cells.size(); ++k) {
      Cell& cell = cells[rep % 2 == 0 ? k : cells.size() - 1 - k];
      ExperimentParams p;
      p.n_packets = cell.n;
      p.t_sync = cell.t_sync;
      p.fixed_cycles = p.traffic_span_cycles();
      p.observability = obs_mode(argc, argv);
      p.record = record_mode(argc, argv);
      cell.runs.push_back(run_router_experiment(p));
    }
  }

  std::printf("%d runs per cell, interleaved; ratio = median timed / median "
              "untimed\n\n",
              reps);
  std::printf("%6s %8s %10s %10s   %s\n", "N", "Tsync", "ratio",
              "median s", "min-max s");
  std::vector<JsonRow> rows;
  double untimed = 0;
  for (Cell& cell : cells) {
    // R is odd, so the median is one of the runs.
    std::ranges::sort(cell.runs, {}, &ExperimentResult::wall_seconds);
    const ExperimentResult& med = cell.runs[cell.runs.size() / 2];
    const double lo = cell.runs.front().wall_seconds;
    const double hi = cell.runs.back().wall_seconds;
    if (!cell.t_sync) untimed = med.wall_seconds;
    const std::string ts =
        cell.t_sync ? strformat("{}", *cell.t_sync) : std::string("untimed");
    std::printf("%6llu %8s %9.1fx %10.4f   %.4f-%.4f\n",
                (unsigned long long)cell.n, ts.c_str(),
                med.wall_seconds / untimed, med.wall_seconds, lo, hi);
    rows.push_back(JsonRow{
        strformat("\"n\":{},\"t_sync\":{},\"reps\":{},\"min_s\":{},"
                  "\"max_s\":{}",
                  cell.n, cell.t_sync ? ts : std::string("null"), reps, lo,
                  hi),
        med.wall_seconds, med.metrics_json});
  }
  std::printf("\npaper shape: steep monotone decay on log scale; nearly "
              "identical curves for both N\n");
  const std::string json_path =
      json_output_path(argc, argv, "fig6_overhead_ratio.metrics.json");
  if (write_bench_json(json_path, "fig6_overhead_ratio", rows)) {
    std::printf("wrote %s (per-cell median runs, vhp::obs metrics)\n",
                json_path.c_str());
  } else {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
  }
  return 0;
}
