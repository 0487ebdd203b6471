// idle_density: 256 sessions whose only board app is parked on a
// semaphore, hosted by svc::SessionHost on one svc::EventLoop thread (the
// calling thread), over shm with batching at T_sync = 200. No DATA traffic
// and a clock-only HDL model: every quantum is pure synchronization, board
// freeze/thaw and loop dispatch. One host thread; no randomness, so the
// seed is unused.
#include "drive.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/svc/event_loop.hpp"
#include "vhp/svc/session_host.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 256;
constexpr u64 kTsync = 200;
constexpr u64 kCyclesPerTick = 10;
constexpr u64 kCyclesPerSession = 30 * kTsync;  // per repetition
constexpr u64 kCyclesPerStep = 512;
constexpr auto kTimerPeriod = std::chrono::milliseconds{1};

struct Hosted {
  std::unique_ptr<vhp::cosim::CosimSession> session;
  std::unique_ptr<vhp::rtos::Semaphore> parked;
  std::unique_ptr<vhp::svc::SessionHost> host;
  u64 last_freeze_ns = 0;
};

RepResult run_rep(const RepConfig& rc) {
  RepResult r;
  SpanLog loop_log{"loop", {}};
  SliceTracker slices{loop_log, /*owns_thread=*/false};
  Samples& turn_us = r.samples["slice_us"];
  Samples& kcycle_us = r.samples["kcycle_us"];
  Samples& timer_late = r.samples["svc.timer_late_ms"];
  const int tid = current_tid();
  const bool traced = rc.mode == Mode::kTraced;

  // Setup ends at the last session's boot freeze (its initial TIME_ACK);
  // the region runs from there to the last session's cycle target.
  std::size_t booted = 0;
  std::size_t remaining = kSessions;
  u64 setup_end = 0;
  u64 cycles_at_setup = 0;
  ThreadClock loop0;
  std::function<void()> timer_tick;
  u64 timer_due = 0;

  const u64 setup_start = now_ns();
  vhp::svc::EventLoop loop;
  std::vector<std::unique_ptr<Hosted>> hosted;
  hosted.reserve(kSessions);
  auto cycles_done = [&hosted] {
    u64 sum = 0;
    for (const auto& h : hosted) sum += h->host->cycles_done();
    return sum;
  };
  // Time inside SessionHost::step (both board pumps and the master pump),
  // from the always-live svc.host.step_ns sums.
  auto step_us = [&hosted] {
    double sum = 0;
    for (const auto& h : hosted) {
      sum += static_cast<double>(h->session->obs()
                                     .metrics()
                                     .histogram("svc.host.step_ns")
                                     .sum_ns()) /
             1e3;
    }
    return sum;
  };
  double step_us_at_setup = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto h = std::make_unique<Hosted>();
    h->session = std::make_unique<vhp::cosim::CosimSession>(
        vhp::cosim::SessionConfigBuilder{}
            .shm()
            .batching()
            .t_sync(kTsync)
            .cycles_per_tick(kCyclesPerTick)
            .postmortem_prefix("")
            .build_or_throw());
    vhp::board::Board& board = h->session->board();
    h->parked = std::make_unique<vhp::rtos::Semaphore>(board.kernel(), 0);
    vhp::rtos::Semaphore* parked = h->parked.get();
    board.spawn_app("parked", 8, [parked] { parked->wait(); });
    // A slice of this workload is one session's quantum in wall time,
    // freeze to freeze: the turn a hosted session waits for.
    Hosted* self = h.get();
    board.kernel().set_state_trace(
        [&, self](vhp::rtos::OsState state, vhp::SwTicks) {
          if (state != vhp::rtos::OsState::kIdle) return;
          const u64 now = now_ns();
          if (self->last_freeze_ns == 0) {
            if (++booted == kSessions) {
              setup_end = now;
              cycles_at_setup = cycles_done();
              step_us_at_setup = step_us();
              loop0 = read_thread_clock(tid);
            }
          } else if (setup_end != 0 && self->last_freeze_ns >= setup_end &&
                     rc.mode == Mode::kPlain) {
            // One turn advances every session by a quantum: the loop's
            // wall time for kSessions * kTsync simulated cycles.
            const double turn = static_cast<double>(now - self->last_freeze_ns);
            turn_us.add(turn / 1e3);
            kcycle_us.add(turn / 1e3 / (kSessions * kTsync / 1e3));
          }
          self->last_freeze_ns = now;
        });
    if (traced) slices.attach(board.kernel());
    vhp::svc::SessionHostConfig host_cfg;
    host_cfg.cycles = kCyclesPerSession;
    host_cfg.cycles_per_step = kCyclesPerStep;
    h->host = std::make_unique<vhp::svc::SessionHost>(
        loop, *h->session, host_cfg, [&remaining, &loop](vhp::Status) {
          if (--remaining == 0) loop.stop();
        });
    hosted.push_back(std::move(h));
  }
  if (traced) {
    // Lateness of a re-armed bench timer: how long a loop callback waits
    // for its turn behind the hosted sessions.
    timer_tick = [&] {
      const u64 now = now_ns();
      if (setup_end != 0 && timer_due >= setup_end) {
        timer_late.add(static_cast<double>(now - timer_due) / 1e6);
        loop_log.add("svc.timer_wait", timer_due, now, -1, 0);
      }
      if (remaining == 0) return;
      timer_due = now + static_cast<u64>(
                            std::chrono::nanoseconds{kTimerPeriod}.count());
      (void)loop.schedule(kTimerPeriod, timer_tick);
    };
    timer_due = now_ns() + static_cast<u64>(
                               std::chrono::nanoseconds{kTimerPeriod}.count());
    (void)loop.schedule(kTimerPeriod, timer_tick);
  }

  pin_to_cpu(0);
  for (auto& h : hosted) h->host->start();
  loop.run();
  const u64 region_end = now_ns();
  const ThreadClock loop1 = read_thread_clock(tid);

  if (setup_end == 0) {
    r.fail("not every session booted");
    setup_end = region_end;
  }
  r.setup_s = static_cast<double>(setup_end - setup_start) / 1e9;
  r.region_start_ns = setup_end;
  r.region_end_ns = region_end;
  r.wall_s = static_cast<double>(region_end - setup_end) / 1e9;
  r.add_thread("loop", loop0, loop1);
  const double steps_in_region_us = step_us() - step_us_at_setup;
  r.totals["svc.step_us"] += steps_in_region_us;
  if (traced) book_slices(r, std::move(loop_log), "loop", steps_in_region_us);

  u64 cycles = 0, syncs = 0, acks = 0, ticks = 0, clock_ticks = 0;
  u64 data_frames = 0, interrupts = 0, sessions_ok = 0;
  double steps = 0, batch_frames = 0, batch_flushes = 0;
  for (const auto& h : hosted) {
    auto& hw = h->session->hw();
    auto& board = h->session->board();
    const auto st = hw.stats();
    const bool ok = h->host->done() && h->host->status().ok() &&
                    h->host->cycles_done() == kCyclesPerSession &&
                    st.syncs == kCyclesPerSession / kTsync &&
                    board.kernel().tick_count().value() ==
                        kCyclesPerSession / kCyclesPerTick &&
                    st.data_reads + st.data_writes == 0;
    sessions_ok += ok ? 1 : 0;
    if (!ok && r.ok) {
      r.fail("session check failed: " +
             (h->host->status().ok() ? std::string("counts")
                                     : h->host->status().to_string()));
    }
    cycles += hw.cycle();
    syncs += st.syncs;
    acks += st.acks_received;
    ticks += board.kernel().tick_count().value();
    clock_ticks += board.stats().clock_ticks_received;
    data_frames += st.data_reads + st.data_writes;
    interrupts += st.interrupts_sent;
    auto& metrics = h->session->obs().metrics();
    steps += static_cast<double>(metrics.counter("svc.host.steps").value());
    metrics.for_each_counter([&](const std::string& name,
                                 const vhp::obs::Counter& c) {
      if (name.rfind("net.batch.", 0) != 0) return;
      const auto ends_with = [&name](const std::string& suffix) {
        return name.size() > suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
      };
      if (ends_with(".frames")) batch_frames += static_cast<double>(c.value());
      if (ends_with(".flushes")) batch_flushes += static_cast<double>(c.value());
    });
    book_session_counts(r, *h->session);
  }
  r.cycles = cycles - cycles_at_setup;
  r.count_cycles = cycles;
  r.digest = {
      {"sessions_ok", sessions_ok},
      {"cycles", cycles},
      {"syncs", syncs},
      {"acks", acks},
      {"board_ticks", ticks},
      {"board_clock_ticks", clock_ticks},
      {"data_frames", data_frames},
      {"interrupts", interrupts},
  };
  r.totals["svc.steps"] += steps;
  r.totals["svc.loop_iterations"] += static_cast<double>(loop.iterations());
  r.totals["net.batch.frames"] += batch_frames;
  r.totals["net.batch.flushes"] += batch_flushes;

  r.check(data_frames == 0, "idle sessions move no DATA frames");
  r.ops_attempted = kSessions;
  r.ops_failed = r.ok ? kSessions - sessions_ok : kSessions;
  return r;
}

}  // namespace

Workload idle_density_workload() {
  return Workload{"idle_density", {Mode::kPlain, Mode::kTraced}, run_rep};
}

}  // namespace perfbench
