// Measurement plumbing shared by the four workloads: raw-sample
// percentiles, per-thread OS accounting from /proc, thread pinning, the
// in-memory span log of a traced repetition, and the per-repetition
// result every workload fills in.
//
// Everything here observes the library from outside: wall clocks around the
// public calls the examples make, the RTOS switch/state trace hooks, and
// the public stats()/coordinator()/obs() accessors.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/types.hpp"
#include "vhp/rtos/kernel.hpp"

namespace perfbench {

using vhp::u32;
using vhp::u64;

[[nodiscard]] inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw samples. Percentiles come from the sorted values themselves (nearest
/// rank), never from a bucketed histogram.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  /// The q-quantile (0 < q < 1) by nearest rank, or nullopt when fewer than
  /// ten samples lie beyond it: above it for q >= 0.5 (so p99 needs at
  /// least 1000 samples), below it otherwise (p10 needs at least 101).
  [[nodiscard]] std::optional<double> percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// Median of a small list (0 when empty); used across repetitions.
[[nodiscard]] double median_of(std::vector<double> values);

/// CPU, system and run-queue time of one host thread, in µs, from
/// /proc/self/task/<tid>/{schedstat,stat}. Read only at a region's ends.
struct ThreadClock {
  double cpu_us = 0;
  double sys_us = 0;
  double runq_us = 0;
};
[[nodiscard]] int current_tid();
[[nodiscard]] ThreadClock read_thread_clock(int tid);
/// Every thread of this process except `tid`, summed.
[[nodiscard]] ThreadClock read_other_threads(int tid);

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// Pins the calling thread to one CPU of the process's allowed set, counted
/// from the top (0 = highest-numbered allowed CPU) after the rotation last
/// set by rotate_cpus(). Threads the caller creates afterwards inherit the
/// pin, which is how the library's board and loop threads get theirs
/// without touching library code.
void pin_to_cpu(int rank_from_top);

/// Shifts the CPUs pin_to_cpu() hands out by `offset`. Successive
/// repetitions then run on different CPUs, so a virtual CPU that the host
/// keeps busy for a while slows only some of a run's repetitions.
void rotate_cpus(int offset);

/// Raises the open-file soft limit to the hard limit (256 shm sessions hold
/// thousands of eventfds).
void raise_fd_limit();

/// One recorded interval of a traced repetition. `parent` indexes the
/// enclosing span in the same log (-1 for a thread's region span);
/// `quantum` is the sync/barrier index it belongs to.
struct Span {
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  int parent = -1;
  u64 quantum = 0;
};

/// Spans of one host thread, appended only from that thread.
struct SpanLog {
  std::string thread;
  std::vector<Span> spans;
  void add(std::string name, u64 start_ns, u64 end_ns, int parent,
           u64 quantum) {
    spans.push_back(Span{std::move(name), start_ns, end_ns, parent, quantum});
  }
  /// Sum of durations of spans named `name`, clipped to [lo, hi].
  [[nodiscard]] double sum_us(const std::string& name, u64 lo, u64 hi) const;
};

/// Attributes RTOS dispatch slices to thread roles from the switch trace.
/// One tracker serves every board pumped on one host thread: a slice ends
/// at the next dispatch of any of them. Idle slices are kept only when the
/// board owns its host thread; on a loop-pumped board the idle thread's
/// slice also spans the master pump and other sessions' turns.
class SliceTracker {
 public:
  SliceTracker(SpanLog& log, bool owns_thread)
      : log_(log), owns_thread_(owns_thread) {}
  SliceTracker(const SliceTracker&) = delete;
  SliceTracker& operator=(const SliceTracker&) = delete;

  /// Installs the switch trace on `kernel` (before the board runs).
  void attach(vhp::rtos::Kernel& kernel);

 private:
  void on_dispatch(const vhp::rtos::Kernel& kernel,
                   const vhp::rtos::Thread& next);

  SpanLog& log_;
  bool owns_thread_;
  const char* role_ = nullptr;
  u64 start_ns_ = 0;
  u64 quantum_ = 0;
  std::map<const vhp::rtos::Thread*, const char*> roles_;
};

/// What one workload repetition hands back. Quantities are additive over
/// repetitions; `totals` keys follow the metric names they feed.
struct RepResult {
  bool ok = true;
  std::string error;  // first failed check or non-OK Status
  u64 ops_attempted = 0;
  u64 ops_failed = 0;
  double setup_s = 0;
  double wall_s = 0;  // timed region
  u64 region_start_ns = 0;
  u64 region_end_ns = 0;
  u64 cycles = 0;     // simulated master cycles inside the region
  /// Cycles the exact counts in `totals` cover, when more than the region
  /// (idle_density's sessions run their first quantum during setup).
  u64 count_cycles = 0;
  /// Exact simulated quantities (what crossed the link or left the model).
  std::map<std::string, u64> digest;
  /// Additive host-side counts and times (µs) over the region.
  std::map<std::string, double> totals;
  /// Raw samples ("slice_us", "cosim.exchange_us", ...).
  std::map<std::string, Samples> samples;
  /// Traced repetitions only: the region's spans, one log per thread.
  std::vector<SpanLog> logs;

  void fail(std::string why) {
    if (ok) error = std::move(why);
    ok = false;
  }
  /// Records a named check; a false one fails the repetition.
  void check(bool cond, const std::string& what) {
    if (!cond) fail("check failed: " + what);
  }
  /// Books the region's per-thread OS accounting under host.<role>.*.
  void add_thread(const std::string& role, const ThreadClock& begin,
                  const ThreadClock& end);
};

enum class Mode {
  kPlain,   // untraced: the end-to-end figures
  kTraced,  // sync-aligned driving, switch-trace slices, loop timer
  kArmed,   // untraced driving with the library's own instruments on
};

struct RepConfig {
  u64 seed = 1;
  Mode mode = Mode::kPlain;
};

/// A workload: a name, and one fresh, self-checking repetition per call.
struct Workload {
  const char* name;
  std::vector<Mode> trace_modes;  // repetition cycle of a --trace 1 run
  std::function<RepResult(const RepConfig&)> run_rep;
};

[[nodiscard]] Workload router_tcp_workload();
[[nodiscard]] Workload idle_density_workload();
[[nodiscard]] Workload fabric8_workload();
[[nodiscard]] Workload iss_firmware_workload();

/// FNV-1a over the digest's "key=value;" text.
[[nodiscard]] std::string digest_hash(const std::map<std::string, u64>& d);

}  // namespace perfbench
