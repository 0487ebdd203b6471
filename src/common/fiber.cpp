#include "vhp/common/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define VHP_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define VHP_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(VHP_FIBER_ASAN)
#define VHP_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(VHP_FIBER_TSAN)
#define VHP_FIBER_TSAN 1
#endif
#endif

#if VHP_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if VHP_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)

// vhp_fiber_switch(save, load): pushes the System V callee-saved registers,
// MXCSR and the x87 control word, stores the stack pointer to *save, loads
// `load` as the stack pointer and pops the same frame from it. Every
// suspended side's stack holds that 64-byte frame below its return
// address, so the CFI stays true across the switch.
//
// vhp_fiber_start: a new fiber's first "return" lands here with the Fiber*
// in r12 and its entry function in r13 (see prepare_stack); rbp is zero
// and the return address is undefined, so unwinders stop here.
asm(R"(
        .text
        .p2align 4
        .globl  vhp_fiber_switch
        .hidden vhp_fiber_switch
        .type   vhp_fiber_switch, @function
vhp_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbp, 0
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbx, 0
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r12, 0
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r13, 0
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r14, 0
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r15, 0
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r15
        popq    %r14
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r14
        popq    %r13
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r13
        popq    %r12
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r12
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbx
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbp
        ret
        .cfi_endproc
        .size   vhp_fiber_switch, .-vhp_fiber_switch

        .p2align 4
        .globl  vhp_fiber_start
        .hidden vhp_fiber_start
        .type   vhp_fiber_start, @function
vhp_fiber_start:
        .cfi_startproc
        .cfi_undefined %rip
        movq    %r12, %rdi
        callq   *%r13
        ud2
        .cfi_endproc
        .size   vhp_fiber_start, .-vhp_fiber_start
)");

extern "C" void vhp_fiber_switch(void** save, void* load);
extern "C" void vhp_fiber_start();

#else
#include <ucontext.h>

#include <new>
#endif

namespace vhp {
namespace {

thread_local Fiber* tls_current_fiber = nullptr;

std::size_t page_size() {
  static const auto sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return sz;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

using Entry = void (*)(Fiber*);

#if defined(__x86_64__)

/// Builds the frame vhp_fiber_switch pops for a fiber that has not run yet
/// at the top of [lo, hi), and returns the stack pointer to load. Its
/// "return" enters vhp_fiber_start with rsp 16-byte aligned, so `entry`
/// starts as if called from an aligned frame.
void* prepare_stack(char* /*lo*/, char* hi, Fiber* self, Entry entry,
                    void** /*resumer_context*/) {
  auto* frame = reinterpret_cast<std::uint64_t*>(
      (reinterpret_cast<std::uintptr_t>(hi) & ~std::uintptr_t{15}) - 64);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = mxcsr | (std::uint64_t{fpu_cw} << 32);
  frame[1] = 0;                                         // r15
  frame[2] = 0;                                         // r14
  frame[3] = reinterpret_cast<std::uint64_t>(entry);    // r13
  frame[4] = reinterpret_cast<std::uint64_t>(self);     // r12
  frame[5] = 0;                                         // rbx
  frame[6] = 0;                                         // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&vhp_fiber_start);
  return frame;
}

/// Saves the running side into *from and continues *to.
inline void jump(void** from, void* const* to) { vhp_fiber_switch(from, *to); }

#else

void trampoline(unsigned entry_hi, unsigned entry_lo, unsigned self_hi,
                unsigned self_lo) {
  // makecontext only passes ints; pointers travel as two halves each.
  const auto join = [](unsigned hi, unsigned lo) {
    return (static_cast<std::uintptr_t>(hi) << 32) | lo;
  };
  reinterpret_cast<Entry>(join(entry_hi, entry_lo))(
      reinterpret_cast<Fiber*>(join(self_hi, self_lo)));
}

/// Carves the two ucontext_t (the fiber's and its resumer's) from the top
/// of [lo, hi) and points the fiber's at `entry` on the rest of the stack.
void* prepare_stack(char* lo, char* hi, Fiber* self, Entry entry,
                    void** resumer_context) {
  const auto top = reinterpret_cast<std::uintptr_t>(hi) - 2 * sizeof(ucontext_t);
  auto* ctx = new (reinterpret_cast<void*>(top & ~std::uintptr_t{63}))
      ucontext_t[2]{};
  ::getcontext(&ctx[0]);
  ctx[0].uc_stack.ss_sp = lo;
  ctx[0].uc_stack.ss_size = static_cast<std::size_t>(
      reinterpret_cast<char*>(ctx) - lo);
  ctx[0].uc_link = nullptr;  // the entry function never returns
  const auto e = reinterpret_cast<std::uintptr_t>(entry);
  const auto s = reinterpret_cast<std::uintptr_t>(self);
  ::makecontext(&ctx[0], reinterpret_cast<void (*)()>(&trampoline), 4,
                static_cast<unsigned>(e >> 32), static_cast<unsigned>(e),
                static_cast<unsigned>(s >> 32), static_cast<unsigned>(s));
  *resumer_context = &ctx[1];
  return &ctx[0];
}

inline void jump(void** from, void* const* to) {
  ::swapcontext(static_cast<ucontext_t*>(*from),
                static_cast<ucontext_t*>(*to));
}

#endif

}  // namespace

Fiber::Fiber(Fn fn, std::size_t stack_bytes) : fn_(std::move(fn)) {
  assert(fn_ && "fiber needs a function");
  const std::size_t ps = page_size();
  const std::size_t usable = round_up(stack_bytes, ps);
  mapping_size_ = usable + ps;  // + guard page at the low end
  mapping_ = ::mmap(nullptr, mapping_size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping_ == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "fiber stack mmap");
  }
  if (::mprotect(mapping_, ps, PROT_NONE) != 0) {
    ::munmap(mapping_, mapping_size_);
    throw std::system_error(errno, std::generic_category(), "fiber guard page");
  }
  char* lo = static_cast<char*>(mapping_) + ps;
  context_ = prepare_stack(lo, lo + usable, this, &Fiber::start,
                           &resumer_context_);
#if VHP_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if VHP_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if VHP_FIBER_ASAN
  // A fiber that never unwound leaves its frames' redzones poisoned; the
  // next mapping at this address would inherit them.
  const std::size_t ps = page_size();
  __asan_unpoison_memory_region(static_cast<char*>(mapping_) + ps,
                                mapping_size_ - ps);
#endif
  ::munmap(mapping_, mapping_size_);
}

void Fiber::start(Fiber* self) {
  self->land(nullptr);
  try {
    self->fn_();
  } catch (...) {
    self->exception_ = std::current_exception();
  }
  self->finished_ = true;
  // Return control to the last resumer; this fiber never runs again.
  self->switch_out();
  assert(false && "resumed a finished fiber");
  __builtin_unreachable();
}

void Fiber::switch_in() {
#if VHP_FIBER_ASAN
  void* fake_stack = nullptr;
  const std::size_t ps = page_size();
  __sanitizer_start_switch_fiber(&fake_stack,
                                 static_cast<char*>(mapping_) + ps,
                                 mapping_size_ - ps);
#endif
#if VHP_FIBER_TSAN
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  jump(&resumer_context_, &context_);
#if VHP_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switch_out() {
  void* fake_stack = nullptr;
#if VHP_FIBER_ASAN
  // A finished fiber passes no save slot, which frees its fake stack.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack,
                                 resumer_stack_, resumer_stack_size_);
#endif
#if VHP_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  jump(&context_, &resumer_context_);
  // Resumed, possibly by another OS thread than the one that suspended it.
  land(fake_stack);
}

void Fiber::land([[maybe_unused]] void* fake_stack) {
#if VHP_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, &resumer_stack_,
                                  &resumer_stack_size_);
#endif
}

void Fiber::resume() {
  assert(!finished_ && "cannot resume a finished fiber");
  assert(tls_current_fiber != this && "fiber cannot resume itself");
  Fiber* prev = tls_current_fiber;
  tls_current_fiber = this;
  switch_in();
  tls_current_fiber = prev;
  if (finished_ && exception_ != nullptr) {
    std::exception_ptr ex = exception_;
    exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield_to_resumer() {
  Fiber* self = tls_current_fiber;
  assert(self != nullptr && "yield_to_resumer outside any fiber");
  self->switch_out();
}

Fiber* Fiber::current() { return tls_current_fiber; }

}  // namespace vhp
