// Event-driven hosting of a CosimSession (DESIGN.md §14).
//
// The classic drive is a board thread (Board::run_boards pumps the RTOS
// until starved, then waits in net::wait_until) plus the caller waiting in
// run_cycles() (the same wait, over the gather).
// SessionHost runs the same two pumps without either wait, by cooperative
// stepping on a shared svc::EventLoop: the board's RTOS runs in fibers
// pumped until starved (Board::pump), the master kernel runs in
// non-blocking slices (CosimKernel::pump). Hundreds of sessions share one
// loop thread this way — per-session cost is one step callback per
// quantum, not one parked OS thread.
//
// The host holds both ends of every frame of its session (a session is a
// one-node fabric whose node is never external), so every frame a step
// waits for was sent by an earlier step, and one rule after every step
// drives it:
//   * a step that moved the session (ran cycles or completed a gather)
//     posts the next step;
//   * any other step schedules one re-poll timer net::kRepollPeriod out.
//     It is parked on what no fd announces: a latency decorator's held
//     frame or a retransmission timeout.
// After the host sends SHUTDOWN the same rule steps the board alone until
// it has halted on it: only then does the host report done.
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

  /// Arms the host: boots the board and posts the first step. Safe from
  /// any thread (defers to the loop thread); call at most once.
  void start();

  [[nodiscard]] bool done() const { return done_.load(); }
  /// Final status; Ok until done() (errors land together with done_).
  [[nodiscard]] Status status() const;
  [[nodiscard]] u64 cycles_done() const { return cycles_done_.load(); }

 private:
  void step();
  /// The rule for a step that did not move the session: re-poll it
  /// net::kRepollPeriod out.
  void park();
  /// Records the final status, sends SHUTDOWN and starts halt_board().
  void finish(Status s);
  /// Pumps the board; once it has halted, reports done, else parks.
  void halt_board();

  EventLoop& loop_;
  cosim::CosimSession& session_;
  SessionHostConfig config_;
  DoneFn on_done_;

  obs::Counter& steps_;
  obs::LatencyHistogram& step_ns_;
  /// Loop-wide census: svc.sessions on the *loop's* hub counts hosts
  /// currently live (armed, not done).
  obs::Gauge& sessions_gauge_;

  /// The pending re-poll timer of a parked host; 0 when none.
  EventLoop::TimerId parked_timer_ = 0;

  std::atomic<bool> done_{false};
  std::atomic<u64> cycles_done_{0};
  bool started_ = false;
  bool halting_ = false;  // loop-thread only: SHUTDOWN sent, board not halted
  Status status_ = Status::Ok();  // written on the loop thread before done_
};

}  // namespace vhp::svc
