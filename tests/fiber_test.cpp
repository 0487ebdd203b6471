// Unit tests for the fiber primitive both subsystems' threads stand on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "vhp/common/fiber.hpp"

namespace vhp {
namespace {

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f{[&] { x = 42; }};
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> trace;
  Fiber f{[&] {
    trace.push_back(1);
    Fiber::yield_to_resumer();
    trace.push_back(3);
    Fiber::yield_to_resumer();
    trace.push_back(5);
  }};
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = nullptr;
  Fiber f{[&] { observed = Fiber::current(); }};
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedFibers) {
  std::vector<int> trace;
  Fiber inner{[&] {
    trace.push_back(2);
    Fiber::yield_to_resumer();
    trace.push_back(4);
  }};
  Fiber outer{[&] {
    trace.push_back(1);
    inner.resume();
    trace.push_back(3);
    inner.resume();
    trace.push_back(5);
  }};
  outer.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f{[] { throw std::runtime_error("boom"); }};
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, DeepCallStackSurvives) {
  // Recursion depth that needs a real stack, not just a few frames.
  std::function<int(int)> rec = [&](int n) -> int {
    volatile char pad[128] = {};  // force frame growth
    (void)pad;
    return n == 0 ? 0 : 1 + rec(n - 1);
  };
  int result = -1;
  Fiber f{[&] { result = rec(200); }, 256 * 1024};
  f.resume();
  EXPECT_EQ(result, 200);
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kFibers = 50;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int round = 0; round < 10; ++round) {
        ++counters[static_cast<std::size_t>(i)];
        Fiber::yield_to_resumer();
      }
    }));
  }
  for (int round = 0; round < 10; ++round) {
    for (auto& f : fibers) f->resume();
  }
  for (auto& f : fibers) {
    f->resume();  // let the loop exit
    EXPECT_TRUE(f->finished());
  }
  for (int c : counters) EXPECT_EQ(c, 10);
}

TEST(Fiber, PerThreadCurrentIsolation) {
  // Two OS threads each running their own fiber must not share tls state.
  std::atomic<bool> ok{true};
  auto worker = [&] {
    Fiber f{[&] {
      for (int i = 0; i < 1000; ++i) {
        if (Fiber::current() == nullptr) ok = false;
        Fiber::yield_to_resumer();
      }
    }};
    for (int i = 0; i < 1000; ++i) f.resume();
    f.resume();
  };
  std::thread a{worker};
  std::thread b{worker};
  a.join();
  b.join();
  EXPECT_TRUE(ok);
}

TEST(Fiber, DestroySuspendedFiberIsSafe) {
  // An RTOS tears down blocked threads at shutdown; the mapping must be
  // released without touching the suspended frames.
  auto f = std::make_unique<Fiber>([] {
    Fiber::yield_to_resumer();
    FAIL() << "never resumed";
  });
  f->resume();
  EXPECT_FALSE(f->finished());
  f.reset();  // no crash, no assert
}

TEST(Fiber, RoundingModeStaysWithItsSide) {
  // Each side of a switch keeps its own floating-point control state: a
  // fiber starts with its creator's and neither side leaks a change to the
  // other.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  std::vector<int> fiber_saw;
  Fiber f{[&] {
    fiber_saw.push_back(std::fegetround());
    std::fesetround(FE_UPWARD);
    Fiber::yield_to_resumer();
    fiber_saw.push_back(std::fegetround());
  }};
  std::fesetround(FE_DOWNWARD);  // after construction: not the fiber's
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  std::fesetround(FE_TOWARDZERO);
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(fiber_saw, (std::vector<int>{FE_TONEAREST, FE_UPWARD}));
}

#if defined(__x86_64__)
std::uint16_t x87_control_word() {
  std::uint16_t cw = 0;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw;
}

void set_x87_control_word(std::uint16_t cw) {
  asm volatile("fldcw %0" : : "m"(cw));
}

TEST(Fiber, X87ControlWordStaysWithItsSide) {
  // The precision-control bits (8-9) live only in the x87 control word,
  // not in MXCSR, so this covers the half fesetround cannot isolate.
  const std::uint16_t initial = x87_control_word();
  const auto with_precision = [&](std::uint16_t pc) {
    return static_cast<std::uint16_t>((initial & ~0x0300u) | (pc << 8));
  };
  const std::uint16_t single = with_precision(0);
  const std::uint16_t dbl = with_precision(2);
  std::vector<std::uint16_t> fiber_saw;
  Fiber f{[&] {
    fiber_saw.push_back(x87_control_word());
    set_x87_control_word(single);
    Fiber::yield_to_resumer();
    fiber_saw.push_back(x87_control_word());
  }};
  set_x87_control_word(dbl);
  f.resume();
  EXPECT_EQ(x87_control_word(), dbl);
  f.resume();
  EXPECT_EQ(x87_control_word(), dbl);
  set_x87_control_word(initial);
  EXPECT_EQ(fiber_saw, (std::vector<std::uint16_t>{initial, single}));
}
#endif

TEST(Fiber, SuspendedOnOneThreadFinishesOnAnother) {
  // Parallel-kernel lanes resume a thread process on whichever worker
  // picks its island; the fiber's frame, locals and Fiber::current() must
  // follow it. Thread a stays alive until b is done, so their ids differ.
  pid_t first_tid = 0;
  pid_t second_tid = 0;
  pid_t tid_a = 0;
  pid_t tid_b = 0;
  Fiber* seen = nullptr;
  int result = 0;
  Fiber f{[&] {
    int on_stack = 41;
    first_tid = ::gettid();
    Fiber::yield_to_resumer();
    second_tid = ::gettid();
    seen = Fiber::current();
    result = on_stack + 1;
  }};
  std::atomic<bool> suspended{false};
  std::atomic<bool> finished{false};
  std::thread a{[&] {
    tid_a = ::gettid();
    f.resume();
    suspended = true;
    while (!finished) std::this_thread::yield();
  }};
  while (!suspended) std::this_thread::yield();
  EXPECT_FALSE(f.finished());
  std::thread b{[&] {
    tid_b = ::gettid();
    f.resume();
    EXPECT_EQ(Fiber::current(), nullptr);
  }};
  b.join();
  finished = true;
  a.join();
  EXPECT_TRUE(f.finished());
  EXPECT_NE(tid_a, tid_b);
  EXPECT_EQ(first_tid, tid_a);
  EXPECT_EQ(second_tid, tid_b);
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(result, 42);
}

// The System V ABI has the stack 16-byte aligned at every call, so a
// frame pointer (the saved rbp, forced by __builtin_frame_address) is
// 16-byte aligned at every level. Checked before printf runs: glibc's
// printf spills SSE registers with aligned stores, so a misaligned stack
// would crash it instead of failing the test.
[[gnu::noinline]] bool frames_aligned(int depth) {
  alignas(16) volatile char local[16];
  const auto frame =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const auto slot = reinterpret_cast<std::uintptr_t>(&local[0]);
  if (frame % 16 != 0 || slot % 16 != 0) return false;
  char text[32];
  std::snprintf(text, sizeof text, "%.2f", 0.5 * depth);
  return depth == 0 || frames_aligned(depth - 1);
}

TEST(Fiber, StackIsAlignedAtEntryAndInNestedCalls) {
  bool at_entry = false;
  bool nested = false;
  Fiber f{[&] {
    at_entry = frames_aligned(0);
    Fiber::yield_to_resumer();
    nested = frames_aligned(5);
  }};
  f.resume();
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_TRUE(at_entry);
  EXPECT_TRUE(nested);
}

}  // namespace
}  // namespace vhp
