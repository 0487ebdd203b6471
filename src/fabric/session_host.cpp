#include "vhp/svc/session_host.hpp"

#include <algorithm>
#include <utility>

namespace vhp::svc {

namespace {

u64 mono_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SessionHost::SessionHost(EventLoop& loop, cosim::CosimSession& session,
                         SessionHostConfig config, DoneFn on_done)
    : loop_(loop), session_(session), config_(config),
      on_done_(std::move(on_done)),
      steps_(session_.obs().metrics().counter("svc.host.steps")),
      step_ns_(session_.obs().metrics().histogram("svc.host.step_ns")),
      sessions_gauge_(loop_.obs().metrics().gauge("svc.sessions")) {}

SessionHost::~SessionHost() {
  // The loop must not call into a destroyed host. Callers normally run the
  // session to done() before teardown; this is the safety net for early
  // destruction while the loop is already stopped.
  for (int fd : watched_fds_) loop_.unwatch(fd);
  if (fallback_timer_ != 0) loop_.cancel(fallback_timer_);
}

Status SessionHost::status() const {
  return done_.load() ? status_ : Status::Ok();
}

void SessionHost::start() {
  if (started_) return;
  started_ = true;
  loop_.post([this] { arm_on_loop(); });
}

void SessionHost::arm_on_loop() {
  if (armed_) return;
  armed_ = true;
  sessions_gauge_.add(1);
  session_.board().boot();
  // Watch every transport doorbell of both sides; an external frame wakes
  // exactly this session. Self-contained sessions rarely need these — the
  // self-posting step keeps them hot — but a latency-emulation thread or a
  // remote peer delivers through here.
  watched_fds_ = session_.hw().readable_fds();
  for (int fd : session_.board().readable_fds()) watched_fds_.push_back(fd);
  std::sort(watched_fds_.begin(), watched_fds_.end());
  watched_fds_.erase(
      std::unique(watched_fds_.begin(), watched_fds_.end()),
      watched_fds_.end());
  for (int fd : watched_fds_) {
    Status s = loop_.watch(fd, [this] {
      if (!done_.load() && !step_posted_) {
        step_posted_ = true;
        loop_.post([this] { step(); });
      }
    });
    if (!s.ok()) log_.warn("watch({}) failed: {}", fd, s.to_string());
  }
  // Periodic re-poll: covers decorator timers and fd-less transports.
  // One-shot chain (schedule() has no periodic mode): the tick lives in
  // the host and re-schedules a copy of itself, so there is no
  // self-referential ownership — cancel() in finish() ends the chain.
  fallback_tick_ = [this] {
    if (done_.load()) return;
    fallback_timer_ = loop_.schedule(net::kRepollPeriod, fallback_tick_);
    if (!step_posted_) {
      step_posted_ = true;
      loop_.post([this] { step(); });
    }
  };
  fallback_timer_ = loop_.schedule(net::kRepollPeriod, fallback_tick_);
  step_posted_ = true;
  loop_.post([this] { step(); });
}

void SessionHost::step() {
  step_posted_ = false;
  if (done_.load()) return;
  if (halting_) {
    halt_board();
    return;
  }
  steps_.inc();
  const u64 t0 = mono_ns();
  cosim::CosimKernel& hw = session_.hw();
  board::Board& board = session_.board();
  // Board first: the initial freeze ack, and any budget granted by the
  // previous slice, drain here.
  board.pump();
  const u64 before = cycles_done_.load();
  const u64 remaining = config_.cycles - before;
  u64 ran = 0;
  bool blocked = false;
  Status s = hw.pump(std::min<u64>(remaining, config_.cycles_per_step), &ran,
                     &blocked);
  cycles_done_.store(before + ran);
  if (!s.ok()) {
    session_.dump_postmortem(s.to_string());
    finish(s);
    step_ns_.record_ns(mono_ns() - t0);
    return;
  }
  // Deliver this slice's grants and frames to the board.
  const board::Board::PumpStatus bs = board.pump();
  if (cycles_done_.load() >= config_.cycles && !hw.awaiting_ack()) {
    finish(Status::Ok());
    step_ns_.record_ns(mono_ns() - t0);
    return;
  }
  if (blocked && ran == 0 && bs == board::Board::PumpStatus::kDone) {
    // The board halted (app shutdown, link teardown) but the master still
    // owes cycles — without this the host would park forever.
    finish(Status{StatusCode::kAborted,
                  "board halted before the cycle target"});
    step_ns_.record_ns(mono_ns() - t0);
    return;
  }
  if (ran > 0 || !blocked) {
    // Progress (or an un-exhausted slice budget): keep stepping. A parked
    // session costs nothing — the doorbells and the fallback timer take
    // over.
    step_posted_ = true;
    loop_.post([this] { step(); });
  }
  step_ns_.record_ns(mono_ns() - t0);
}

void SessionHost::finish(Status s) {
  status_ = std::move(s);
  session_.finish();  // flush + SHUTDOWN (board thread was never started)
  halting_ = true;
  halt_board();
}

void SessionHost::halt_board() {
  // The SHUTDOWN may still be in flight (a latency decorator holds it until
  // its delivery time): the doorbells and the fallback timer keep stepping
  // the host, and each step pumps the board alone, until it has halted.
  if (session_.board().pump() != board::Board::PumpStatus::kDone) return;
  for (int fd : watched_fds_) loop_.unwatch(fd);
  watched_fds_.clear();
  if (fallback_timer_ != 0) {
    loop_.cancel(fallback_timer_);
    fallback_timer_ = 0;
  }
  sessions_gauge_.add(-1);
  done_.store(true);
  if (on_done_) on_done_(status_);
}

}  // namespace vhp::svc
