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
  if (parked_timer_ != 0) loop_.cancel(parked_timer_);
}

Status SessionHost::status() const {
  return done_.load() ? status_ : Status::Ok();
}

void SessionHost::start() {
  if (started_) return;
  started_ = true;
  loop_.post([this] {
    sessions_gauge_.add(1);
    session_.board().boot();
    loop_.post([this] { step(); });
  });
}

void SessionHost::park() {
  parked_timer_ = loop_.schedule(net::kRepollPeriod, [this] {
    parked_timer_ = 0;
    step();
  });
}

void SessionHost::step() {
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
  } else {
    // Deliver this slice's grants and frames to the board.
    const board::Board::PumpStatus bs = board.pump();
    if (cycles_done_.load() >= config_.cycles && !hw.awaiting_ack()) {
      finish(Status::Ok());
    } else if (blocked && ran == 0 && bs == board::Board::PumpStatus::kDone) {
      // The board halted (app shutdown, link teardown) but the master still
      // owes cycles — without this the host would park forever.
      finish(Status{StatusCode::kAborted,
                    "board halted before the cycle target"});
    } else if (ran > 0 || !blocked) {
      // Moved (ran cycles or completed a gather): the next step can too.
      loop_.post([this] { step(); });
    } else {
      park();
    }
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
  // its delivery time): the host parks, and each re-poll pumps the board
  // alone, until it has halted.
  if (session_.board().pump() != board::Board::PumpStatus::kDone) {
    park();
    return;
  }
  sessions_gauge_.add(-1);
  done_.store(true);
  if (on_done_) on_done_(status_);
}

}  // namespace vhp::svc
