// Shared harness for the figure-reproduction benchmarks: builds the paper's
// experimental setup (4-port router + producers/consumers on the simulation
// kernel, checksum application on the virtual board, TCP loopback link),
// runs it to completion and reports wall time + accuracy.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "vhp/common/format.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::bench {

struct ExperimentParams {
  /// Total packets N (split across the 4 producers).
  u64 n_packets = 100;
  /// T_sync in clock cycles; nullopt = untimed baseline (no sync traffic).
  std::optional<u64> t_sync = 1000;
  /// Cycles between packets per producer.
  u64 gap_cycles = 400;
  std::size_t payload_bytes = 16;
  std::size_t buffer_depth = 4;
  /// Hard cap on simulated cycles (loose sync needs a drain tail).
  u64 max_cycles = 400000;
  /// When set, simulate EXACTLY this many cycles — no early exit, no
  /// drain-dependent tail. Wall-time experiments (Figures 5 and 6) need the
  /// simulated work held constant across T_sync values so only the
  /// synchronization cost varies; accuracy experiments (Figure 7) instead
  /// run to completion and leave this unset.
  std::optional<u64> fixed_cycles;
  cosim::TransportKind transport = cosim::TransportKind::kTcp;
  /// Emulated one-way link latency in microseconds on every channel
  /// (0 = raw loopback); see net/latency.hpp.
  u64 link_latency_us = 0;
  u64 seed = 42;
  /// Turn on the costly vhp::obs instruments for this run: the span
  /// recorder with round stamps on the CLOCK traffic, stall profiling,
  /// per-frame link accounting (ObsConfig::timeline.enabled, the one
  /// switch). Off by default: the figure benches measure wall time,
  /// profiling perturbs what they measure, and timeline_overhead gates the
  /// disarmed configuration.
  /// Metric counters are always live either way and always land in
  /// ExperimentResult::metrics_json.
  bool observability = false;
  /// Turn on the flight recorder (ring-only, no dump) for this run — the
  /// ISSUE-2 acceptance check: recording must stay under 5% wall-time
  /// overhead on fig6_overhead_ratio.
  bool record = false;
  /// Fault injection / link recovery for this run (vhp::fault). The
  /// defaults are disarmed: an empty plan compiles to nullptr and disabled
  /// recovery returns the link untouched, so configuring them must cost
  /// nothing — fault_overhead checks exactly that.
  fault::FaultPlan fault_plan{};
  fault::RecoveryConfig recovery{};

  /// Simulated work matched to the traffic: generation span + a drain tail.
  [[nodiscard]] u64 traffic_span_cycles() const {
    return (n_packets / 4) * gap_cycles + 4000;
  }
};

struct ExperimentResult {
  double wall_seconds = 0;
  u64 cycles_run = 0;
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 dropped_input_full = 0;
  u64 dropped_bad_checksum = 0;
  u64 syncs = 0;
  u64 interrupts = 0;
  bool drained = false;
  /// Full vhp::obs metrics dump of the run (counters both sides of the
  /// link, RTOS totals, stall buckets when observability was on).
  std::string metrics_json;

  [[nodiscard]] double accuracy() const {
    return emitted == 0 ? 1.0
                        : static_cast<double>(forwarded) /
                              static_cast<double>(emitted);
  }
};

/// Runs one co-simulation of the router case study and measures it.
inline ExperimentResult run_router_experiment(const ExperimentParams& p) {
  cosim::SessionConfig cfg;
  cfg.transport = p.transport;
  if (p.t_sync.has_value()) {
    cfg.cosim.sync.quantum(*p.t_sync);
  } else {
    cfg.set_untimed();
  }
  cfg.link_emulation.latency = std::chrono::microseconds{p.link_latency_us};
  cfg.board.rtos.cycles_per_tick = 10;
  cfg.obs.record.enabled = p.record;
  cfg.obs.timeline.enabled = p.observability;
  cfg.fault_plan = p.fault_plan;
  cfg.recovery = p.recovery;
  cfg.postmortem_prefix.clear();  // benches measure; no dump side effects
  cosim::CosimSession session{cfg};

  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = p.buffer_depth;
  tb_cfg.packets_per_port = p.n_packets / 4;
  tb_cfg.gap_cycles = p.gap_cycles;
  tb_cfg.payload_bytes = p.payload_bytes;
  tb_cfg.seed = p.seed;
  router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);

  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  router::ChecksumApp app{session.board(), app_cfg};

  session.start_board();

  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  constexpr u64 kChunk = 200;
  if (p.fixed_cycles.has_value()) {
    while (cycles < *p.fixed_cycles) {
      const u64 step = std::min(kChunk, *p.fixed_cycles - cycles);
      if (!session.run_cycles(step).ok()) break;
      cycles += step;
    }
  } else {
    while (cycles < p.max_cycles && !tb.traffic_done()) {
      if (!session.run_cycles(kChunk).ok()) break;
      cycles += kChunk;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  session.finish();

  ExperimentResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.cycles_run = cycles;
  r.emitted = tb.total_emitted();
  r.forwarded = tb.router().stats().forwarded;
  r.dropped_input_full = tb.router().stats().dropped_input_full;
  r.dropped_bad_checksum = tb.router().stats().dropped_bad_checksum;
  r.syncs = session.hw().stats().syncs;
  r.interrupts = session.hw().stats().interrupts_sent;
  r.drained = tb.traffic_done();
  r.metrics_json = session.obs().metrics_json();
  return r;
}

/// One row of a self-describing BENCH_*.json trajectory: the sweep point,
/// its headline result, and the full metrics dump of that run.
struct JsonRow {
  std::string params;   // JSON object body, e.g. "\"n\":20,\"t_sync\":1000"
  double wall_seconds = 0;
  std::string metrics_json;
};

/// Writes {"bench":name,"rows":[{<params>,"wall_seconds":s,"metrics":{...}}]}.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             const std::vector<JsonRow>& rows) {
  std::ostringstream out;
  out << "{\"bench\":\"" << name << "\",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ",";
    out << "{" << rows[i].params << ",\"wall_seconds\":"
        << rows[i].wall_seconds << ",\"metrics\":" << rows[i].metrics_json
        << "}";
  }
  out << "]}";
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out.str();
  return static_cast<bool>(f);
}

/// --json PATH override; `fallback` otherwise.
inline std::string json_output_path(int argc, char** argv,
                                    const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return fallback;
}

/// True when invoked with --obs (enable costly instruments in the runs).
inline bool obs_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--obs") return true;
  }
  return false;
}

/// True when invoked with --record (flight recorder on in the runs).
inline bool record_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--record") return true;
  }
  return false;
}

/// True when invoked with --gate (a failed check exits 1).
inline bool gate_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate") return true;
  }
  return false;
}

/// Linear-interpolated quantile `q` of `samples` (sorted in place).
inline double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

/// A candidate configuration's wall time judged against a baseline's own
/// run-to-run spread: the candidate median may exceed the baseline median
/// by no more than the baseline's quartile spread (Q3 - Q1).
struct SpreadCheck {
  int pairs = 0;
  double baseline_median_s = 0;
  double baseline_spread_s = 0;
  double candidate_median_s = 0;

  [[nodiscard]] double overhead_pct() const {
    return baseline_median_s > 0
               ? (candidate_median_s / baseline_median_s - 1.0) * 100.0
               : 0.0;
  }
  [[nodiscard]] bool ok() const {
    return candidate_median_s <= baseline_median_s + baseline_spread_s;
  }
  /// One line: "<what>: median +1.23% (baseline median ..., spread ...)".
  void print(const char* what) const {
    std::printf("%s: median %+.2f%% over %d interleaved pairs (baseline "
                "median %.4f s, quartile spread %.4f s) — %s\n",
                what, overhead_pct(), pairs, baseline_median_s,
                baseline_spread_s,
                ok() ? "within the spread" : "BEYOND the spread");
  }
  /// The check as JSON object members (no braces), for a JsonRow.
  [[nodiscard]] std::string json_fields() const {
    return strformat(
        "\"pairs\":{},\"overhead_pct\":{},\"baseline_median_s\":{},"
        "\"baseline_spread_s\":{},\"candidate_median_s\":{},\"ok\":{}",
        pairs, overhead_pct(), baseline_median_s, baseline_spread_s,
        candidate_median_s, ok() ? "true" : "false");
  }
};

/// Times a candidate against a baseline in `pairs` interleaved repetitions
/// — alternating which of the two runs first, so host drift hits both
/// alike — and compares their medians against the baseline's spread.
/// `run(candidate)` runs one repetition and returns its wall seconds.
template <class Run>
SpreadCheck interleaved_spread_check(int pairs, Run&& run) {
  std::vector<double> baseline;
  std::vector<double> candidate;
  for (int i = 0; i < pairs; ++i) {
    for (const bool is_candidate : {i % 2 == 1, i % 2 == 0}) {
      (is_candidate ? candidate : baseline).push_back(run(is_candidate));
    }
  }
  SpreadCheck check;
  check.pairs = pairs;
  check.baseline_median_s = quantile(baseline, 0.5);
  check.baseline_spread_s =
      quantile(baseline, 0.75) - quantile(baseline, 0.25);
  check.candidate_median_s = quantile(candidate, 0.5);
  return check;
}

/// True when invoked with --quick (CI-friendly reduced sweeps).
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace vhp::bench
