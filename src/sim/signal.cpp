#include "vhp/sim/signal.hpp"

#include <stdexcept>
#include <string>

#include "vhp/sim/kernel.hpp"

namespace vhp::sim {

SignalBase::SignalBase(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)),
      changed_(kernel, name_ + ".changed") {
  // Signal-owned events are the island cut: sensitivity to them never
  // merges the reader with the writer (signals are delta-delayed, so
  // cross-island reads are race-free by construction).
  changed_.owner_signal_ = this;
  kernel_.register_signal(this);
}

SignalBase::~SignalBase() { kernel_.unregister_signal(this); }

void SignalBase::request_update() { kernel_.request_update(this); }

void SignalBase::notify_change_hooks() {
  for (auto& hook : change_hooks_) hook(kernel_.now());
}

BoolSignal::BoolSignal(Kernel& kernel, std::string name, bool init)
    : Signal<bool>(kernel, std::move(name), init),
      posedge_(kernel, this->name() + ".pos"),
      negedge_(kernel, this->name() + ".neg") {
  posedge_.owner_signal_ = this;
  negedge_.owner_signal_ = this;
}

void BoolSignal::on_changed() {
  (cur_ ? posedge_ : negedge_).notify_delta();
}

Clock::Clock(Kernel& kernel, std::string name, SimTime period,
             SimTime start_time)
    : BoolSignal(kernel, std::move(name), false), period_(period),
      high_(period - period / 2), origin_(kernel.now() + start_time),
      tick_(kernel, this->name() + ".tick") {
  if (period < 2) {
    throw std::invalid_argument("sim::Clock '" + this->name() +
                                "': period must be at least 2, got " +
                                std::to_string(period));
  }
  // The toggling "process" is the tick event itself: a method process
  // sensitive to it writes the opposite value and re-arms the event.
  auto proc = std::make_unique<MethodProcess>(
      kernel, this->name() + ".gen", [this] { toggle(); });
  proc->sensitive(tick_).dont_initialize();
  Process& gen = kernel.register_process(std::move(proc));
  // The generator writes this signal; keep both in one island no matter
  // what construction affinity was active at our construction site.
  kernel.co_locate(gen, *this);
  // Every clock starts on the generator path: listeners are attached after
  // construction, so the first edge decides.
  tick_.notify_at(start_time);
  kernel.register_clock(this);
}

Clock::~Clock() { kernel_.unregister_clock(this); }

void Clock::toggle() {
  const bool rising = !read();
  write(rising);
  // The edge fired: keep ticking while anything listens, else go lazy.
  // High for the first (period + 1) / 2, low for the rest.
  armed_ = listened();
  if (armed_) tick_.notify_at(rising ? high_ : period_ - high_);
}

bool Clock::listened() const {
  return !change_hooks_.empty() || changed_.listened() ||
         posedge_.listened() || negedge_.listened();
}

bool Clock::level_at(SimTime t) const {
  return t >= origin_ && (t - origin_) % period_ < high_;
}

SimTime Clock::next_edge_after(SimTime t) const {
  if (t < origin_) return origin_;
  const SimTime posedge = t - (t - origin_) % period_;
  return t < posedge + high_ ? posedge + high_ : posedge + period_;
}

void Clock::visit(SimTime t) {
  cur_ = next_ = level_at(t - 1);
  if (level_at(t) != cur_) write(!cur_);
}

void Clock::settle(SimTime t) { cur_ = next_ = level_at(t); }

void Clock::rearm() {
  armed_ = true;
  const SimTime now = kernel_.now();
  tick_.notify_at(next_edge_after(now) - now);
}

}  // namespace vhp::sim
