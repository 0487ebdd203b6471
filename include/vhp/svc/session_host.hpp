// Event-driven hosting of a CosimSession (DESIGN.md §14).
//
// The classic drive is a board thread (Board::run_boards pumps the RTOS
// until starved, then waits in net::wait_until) plus the caller waiting in
// run_cycles() (the same wait, over the gather).
// SessionHost runs the same two pumps without either wait, by cooperative
// stepping on a shared svc::EventLoop: the board's RTOS runs in fibers
// pumped until starved (Board::pump), the master kernel runs in
// non-blocking slices (CosimKernel::pump), and the host re-posts itself
// while either side makes progress. When neither does it returns, and the
// loop waits on the fds below. Hundreds of sessions share one loop thread
// this way — per-session cost is one step callback per quantum, not one
// parked OS thread.
//
// Wakeup sources, in order of preference:
//   * self-posting: a step that made progress posts the next step — the
//     hot path for self-contained (inproc/shm) sessions never touches
//     epoll timeouts;
//   * transport doorbells: every readable_fd() of both link sides is
//     watched, so an external peer (or a latency-emulation thread)
//     delivering a frame wakes exactly the right session;
//   * a fallback timer: a re-poll every net::kRepollPeriod covers
//     decorator timers (retransmission timeouts, latency deadlines) and any
//     transport without an fd.
// The doorbells and the timer stay armed after the host sends SHUTDOWN,
// until the board has halted on it: only then does the host report done.
//
// All SessionHosts of one loop step on the loop thread; Board fibers are
// not migratable, so start() defers the boot to that thread too.
#pragma once

#include <chrono>
#include <functional>
#include <memory>

#include "vhp/cosim/session.hpp"
#include "vhp/svc/event_loop.hpp"

namespace vhp::svc {

struct SessionHostConfig {
  /// Total HW clock cycles to drive the session for.
  u64 cycles = 0;
  /// Master-kernel cycles per step slice: the scheduling granularity of
  /// the loop. Smaller = fairer interleaving across sessions, larger =
  /// less callback overhead. The quantum boundary still rules the
  /// protocol — a slice that hits an un-acked tick parks early.
  u64 cycles_per_step = 1024;
};

class SessionHost {
 public:
  using DoneFn = std::function<void(Status)>;

  /// Hosts `session` on `loop`. The session must not have start_board()
  /// called — the host pumps the board cooperatively. `on_done` runs on
  /// the loop thread once `config.cycles` cycles completed (or on the
  /// first transport/protocol error) and the board has halted on its
  /// SHUTDOWN. Both referents must outlive the host.
  SessionHost(EventLoop& loop, cosim::CosimSession& session,
              SessionHostConfig config, DoneFn on_done = {});
  ~SessionHost();

  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Arms the host: boots the board, registers doorbells and the fallback
  /// timer, posts the first step. Safe from any thread (defers to the
  /// loop thread); call at most once.
  void start();

  [[nodiscard]] bool done() const { return done_.load(); }
  /// Final status; Ok until done() (errors land together with done_).
  [[nodiscard]] Status status() const;
  [[nodiscard]] u64 cycles_done() const { return cycles_done_.load(); }

 private:
  void arm_on_loop();
  void step();
  /// Records the final status, sends SHUTDOWN and starts halt_board().
  void finish(Status s);
  /// Pumps the board; once it has halted, releases the watches and the
  /// timer and reports done.
  void halt_board();

  EventLoop& loop_;
  cosim::CosimSession& session_;
  SessionHostConfig config_;
  DoneFn on_done_;
  Logger log_{"svc"};

  obs::Counter& steps_;
  obs::LatencyHistogram& step_ns_;
  /// Loop-wide census: svc.sessions on the *loop's* hub counts hosts
  /// currently live (armed, not done).
  obs::Gauge& sessions_gauge_;

  std::vector<int> watched_fds_;
  /// Re-schedules itself (by copy) until done; owned here so the pending
  /// timer's copy holds no reference cycle.
  std::function<void()> fallback_tick_;
  EventLoop::TimerId fallback_timer_ = 0;

  std::atomic<bool> done_{false};
  std::atomic<u64> cycles_done_{0};
  bool started_ = false;
  bool armed_ = false;
  bool step_posted_ = false;  // loop-thread only: collapse wakeup storms
  bool halting_ = false;  // loop-thread only: SHUTDOWN sent, board not halted
  Status status_ = Status::Ok();  // written on the loop thread before done_
};

}  // namespace vhp::svc
