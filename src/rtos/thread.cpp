#include "vhp/rtos/thread.hpp"

#include <cassert>

#include "vhp/rtos/kernel.hpp"
#include "vhp/rtos/scheduler.hpp"

namespace vhp::rtos {

Thread::Thread(Kernel& kernel, std::string name, int priority, Entry entry,
               std::size_t stack_bytes)
    : kernel_(kernel),
      name_(std::move(name)),
      priority_(priority),
      base_priority_(priority),
      entry_(std::move(entry)),
      wakeup_(kernel.real_time_clock(),
              [this](Alarm&, u64) { kernel_.wake_sleeper(this); }),
      fiber_(
          [this] {
            entry_();
            // Thread function returned: unschedule before the fiber
            // finishes so the run loop never re-picks this thread.
            state_ = State::kExited;
            kernel_.on_thread_exit(this);
          },
          stack_bytes) {
  assert(priority >= 0 && priority < kPriorities);
}

}  // namespace vhp::rtos
