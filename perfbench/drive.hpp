// The timed region shared by the run_cycles-driven workloads (router_tcp,
// fabric8, iss_firmware): how the master is advanced, what is timed around
// each call, and the per-thread accounting at the region's ends. Also the
// exact counts every CosimSession-based workload books.
#pragma once

#include <algorithm>
#include <string>

#include "measure.hpp"
#include "vhp/common/status.hpp"
#include "vhp/cosim/session.hpp"

namespace perfbench {

/// Books one session's exact counts into `r`: link traffic, HDL delta
/// cycles and RTOS work.
inline void book_session_counts(RepResult& r,
                                vhp::cosim::CosimSession& session) {
  const auto hw = session.hw().stats();
  const auto& ks = session.board().kernel().stats();
  r.totals["cosim.syncs"] += static_cast<double>(hw.syncs);
  r.totals["cosim.data_frames"] +=
      static_cast<double>(hw.data_reads + hw.data_writes);
  r.totals["cosim.interrupts"] += static_cast<double>(hw.interrupts_sent);
  r.totals["sim.delta_cycles"] +=
      static_cast<double>(session.hw().kernel().delta_count());
  r.totals["rtos.dispatches"] += static_cast<double>(ks.context_switches);
  r.totals["rtos.ticks"] += static_cast<double>(ks.ticks);
  r.totals["rtos.freezes"] += static_cast<double>(ks.freezes);
}

/// The fixed shape of a run_cycles-driven repetition.
struct Shape {
  u64 cycles;   // simulated master cycles in the region
  u64 call;     // run_cycles size of a plain or armed call
  u64 window;   // one period of the workload's traffic, a multiple of `call`
  u64 sampled;  // windows are sampled up to here; the rest drains traffic
};

/// Advances the master `shape.cycles` cycles through `advance(n)` (a
/// run_cycles call) and books the region into `r`.
///
/// Plain and armed repetitions make fixed calls of `shape.call` cycles;
/// plain ones time each call into the raw "slice_us" samples and each
/// window of traffic into "kcycle_us" (µs per kcycle). Traced repetitions
/// drive sync-aligned: a "cosim.simulate" call that stops one cycle short
/// of the next sync (`next_sync()`, the absolute cycle of the next
/// exchange), then a one-cycle call that carries the exchange itself,
/// recorded as `exchange` ("cosim.exchange" or "fabric.barrier") with its
/// raw samples.
/// The simulated trajectory is the same either way: a sync happens at the
/// end of the cycle that reaches it, whatever the call boundaries.
///
/// The master is the calling thread; every other thread of the process
/// (the board host thread, or the fabric's loop thread) is booked as
/// "boards".
template <class Advance, class NextSync>
vhp::Status drive_region(RepResult& r, Mode mode, const Shape& shape,
                         Advance&& advance, NextSync&& next_sync,
                         const std::string& exchange) {
  const u64 total = shape.cycles;
  const int tid = current_tid();
  const ThreadClock master0 = read_thread_clock(tid);
  const ThreadClock boards0 = read_other_threads(tid);
  SpanLog master{"master", {}};
  const u64 region_start = now_ns();
  const int region = 0;  // the region span; its end is set below
  master.add("region", region_start, region_start, -1, 0);

  vhp::Status status = vhp::Status::Ok();
  u64 cycle = 0;
  if (mode != Mode::kTraced) {
    Samples& slices = r.samples["slice_us"];
    Samples& windows = r.samples["kcycle_us"];
    u64 window_ns = 0;
    while (cycle < total && status.ok()) {
      const u64 n = std::min(shape.call, total - cycle);
      const u64 t0 = now_ns();
      status = advance(n);
      const u64 t1 = now_ns();
      cycle += n;
      if (mode != Mode::kPlain || n != shape.call) continue;
      slices.add(static_cast<double>(t1 - t0) / 1e3);
      window_ns += t1 - t0;
      if (cycle % shape.window == 0) {
        if (cycle <= shape.sampled) {
          // ns per cycle is µs per kcycle.
          windows.add(static_cast<double>(window_ns) /
                      static_cast<double>(shape.window));
        }
        window_ns = 0;
      }
    }
  } else {
    Samples& exchanges = r.samples[exchange + "_us"];
    u64 quantum = 0;
    auto simulate = [&](u64 n) {
      const u64 t0 = now_ns();
      status = advance(n);
      master.add("cosim.simulate", t0, now_ns(), region, quantum);
      cycle += n;
    };
    while (cycle < total && status.ok()) {
      const u64 due = next_sync();  // always beyond `cycle`
      if (due > total) {
        simulate(total - cycle);
        break;
      }
      if (due > cycle + 1) simulate(due - 1 - cycle);
      if (!status.ok()) break;
      const u64 t0 = now_ns();
      status = advance(1);
      const u64 t1 = now_ns();
      master.add(exchange, t0, t1, region, quantum++);
      exchanges.add(static_cast<double>(t1 - t0) / 1e3);
      cycle += 1;
    }
  }

  const u64 region_end = now_ns();
  master.spans[region].end_ns = region_end;
  r.add_thread("master", master0, read_thread_clock(tid));
  r.add_thread("boards", boards0, read_other_threads(tid));
  r.region_start_ns = region_start;
  r.region_end_ns = region_end;
  r.wall_s = static_cast<double>(region_end - region_start) / 1e9;
  r.cycles = cycle;
  if (mode == Mode::kTraced) {
    const double simulate = master.sum_us("cosim.simulate", region_start,
                                          region_end);
    const double ex = master.sum_us(exchange, region_start, region_end);
    r.totals["cosim.simulate_us"] += simulate;
    r.totals[exchange + "_us"] += ex;
    r.totals["host.master.wall_us"] += r.wall_s * 1e6;
    r.totals["host.master.attributed_us"] += simulate + ex;
    r.logs.push_back(std::move(master));
  }
  return status;
}

/// Books the slices a SliceTracker logged during the region: per-role times
/// plus the reconciliation of the thread they ran on ("boards" or "loop").
/// `enclosing_us`, when given, is the time of the spans the slices nest in
/// (idle_density's session steps); it is then the thread's attributed time.
/// Call once the board side has quiesced (after finish()).
inline void book_slices(RepResult& r, SpanLog log, const std::string& thread,
                        std::optional<double> enclosing_us = std::nullopt) {
  double attributed = 0;
  for (const char* role : {"board.comm", "board.app", "board.idle", "iss"}) {
    const double us = log.sum_us(role, r.region_start_ns, r.region_end_ns);
    if (us > 0) r.totals[std::string(role) + "_us"] += us;
    attributed += us;
  }
  r.totals["host." + thread + ".wall_us"] +=
      static_cast<double>(r.region_end_ns - r.region_start_ns) / 1e3;
  r.totals["host." + thread + ".attributed_us"] +=
      enclosing_us.value_or(attributed);
  r.logs.push_back(std::move(log));
}

}  // namespace perfbench
