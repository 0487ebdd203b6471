// Cooperative user-level execution contexts (fibers).
//
// Two subsystems need suspendable call stacks: the simulation kernel's
// thread processes (SystemC SC_THREADs suspend inside arbitrarily nested
// calls via wait()) and the RTOS threads of the virtual board (an eCos-like
// scheduler switches between thread stacks). Both are built on this class.
//
// Implementation: each fiber runs on an mmap'ed stack whose lowest page is
// PROT_NONE, so a stack overflow faults deterministically instead of
// corrupting a neighbouring fiber's stack. On x86-64 a switch pushes the
// callee-saved registers, MXCSR and the x87 control word onto the old stack
// and loads the other side's stack pointer: no system call, where glibc's
// swapcontext makes an rt_sigprocmask call on every switch. Each side
// keeps its own floating-point control state (rounding mode, exception
// masks); a fiber starts with its creator's. Other architectures switch
// with ucontext. Every switch is annotated for AddressSanitizer and
// ThreadSanitizer, so both follow execution onto fiber stacks.
//
// A suspended fiber may be resumed from a different OS thread than the one
// that suspended it; only one thread may run it at a time.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>

namespace vhp {

class Fiber {
 public:
  using Fn = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 128 * 1024;

  /// The fiber does not run until the first resume().
  explicit Fiber(Fn fn, std::size_t stack_bytes = kDefaultStackBytes);

  /// Destroying a suspended fiber is legal (an RTOS tears down blocked
  /// threads at shutdown) but releases its stack without unwinding it: the
  /// destructors of objects live on that stack never run. So a fiber's
  /// function must not own heap memory or other resources across a
  /// suspension point; keep such state in an object that outlives the
  /// fiber (the module, the kernel, the thread).
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or its function returns. Must be called
  /// from outside the fiber (typically a scheduler). If the fiber's function
  /// exited with an exception, it is rethrown here, in the resumer.
  void resume();

  /// Suspends the currently running fiber, returning control to its last
  /// resumer. Must be called from inside a fiber.
  static void yield_to_resumer();

  /// True once the fiber's function has returned (or thrown).
  [[nodiscard]] bool finished() const { return finished_; }

  /// The fiber currently executing on this OS thread, or nullptr.
  static Fiber* current();

 private:
  [[noreturn]] static void start(Fiber* self);
  /// Resumer to fiber, on the resumer's stack; returns when the fiber
  /// yields or finishes.
  void switch_in();
  /// Fiber to resumer, on the fiber's stack; returns when resumed.
  void switch_out();
  /// First thing the fiber runs after every switch in.
  void land(void* fake_stack);

  Fn fn_;
  std::exception_ptr exception_;
  void* mapping_ = nullptr;
  std::size_t mapping_size_ = 0;
  /// The saved contexts: on x86-64 the fiber's stack pointer while it is
  /// suspended and the resumer's while it runs; elsewhere a ucontext_t each.
  void* context_ = nullptr;
  void* resumer_context_ = nullptr;
  /// Sanitizer bookkeeping, null in plain builds: the resumer's stack as
  /// AddressSanitizer last reported it, and the ThreadSanitizer contexts
  /// of the fiber and of its resumer.
  const void* resumer_stack_ = nullptr;
  std::size_t resumer_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
  bool finished_ = false;
};

}  // namespace vhp
