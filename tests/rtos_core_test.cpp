// RTOS kernel core tests: scheduling, priorities, timeslicing, virtual time,
// delays, yields, shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "vhp/rtos/kernel.hpp"

namespace vhp::rtos {
namespace {

KernelConfig fast_cfg() {
  KernelConfig cfg;
  cfg.cycles_per_tick = 10;
  cfg.timeslice_ticks = 3;
  return cfg;
}

TEST(RtosKernel, RunsSingleThreadToCompletion) {
  Kernel k{fast_cfg()};
  bool ran = false;
  k.spawn("t", 5, [&] { ran = true; });
  k.run(/*until_quiescent=*/true);
  EXPECT_TRUE(ran);
}

TEST(RtosKernel, HigherPriorityRunsFirst) {
  Kernel k{fast_cfg()};
  std::vector<std::string> order;
  k.spawn("low", 10, [&] { order.push_back("low"); });
  k.spawn("high", 2, [&] { order.push_back("high"); });
  k.spawn("mid", 5, [&] { order.push_back("mid"); });
  k.run(true);
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST(RtosKernel, YieldRoundRobinsEqualPriority) {
  Kernel k{fast_cfg()};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    k.spawn("t" + std::to_string(i), 5, [&, i] {
      for (int round = 0; round < 3; ++round) {
        order.push_back(i);
        k.yield();
      }
    });
  }
  k.run(true);
  ASSERT_EQ(order.size(), 9u);
  // Perfect interleave: 0,1,2,0,1,2,0,1,2.
  for (std::size_t j = 0; j < order.size(); ++j) {
    EXPECT_EQ(order[j], static_cast<int>(j % 3));
  }
}

TEST(RtosKernel, ConsumeAdvancesTicks) {
  Kernel k{fast_cfg()};  // 10 cycles per tick
  SwTicks observed{};
  k.spawn("t", 5, [&] {
    k.consume(95);
    observed = k.tick_count();
  });
  k.run(true);
  EXPECT_EQ(observed.value(), 9u);  // 95/10 full boundaries crossed
  EXPECT_EQ(k.cycle_count(), 95u);
}

TEST(RtosKernel, TimesliceRotatesCpuHogs) {
  Kernel k{fast_cfg()};  // slice = 3 ticks = 30 cycles
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    k.spawn("hog" + std::to_string(i), 5, [&, i] {
      for (int chunk = 0; chunk < 3; ++chunk) {
        order.push_back(i);
        k.consume(30);  // exactly one timeslice
      }
    });
  }
  k.run(true);
  ASSERT_EQ(order.size(), 6u);
  // Each 30-cycle consume expires the slice, handing over: 0,1,0,1,0,1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RtosKernel, DelayWakesAtRightTick) {
  Kernel k{fast_cfg()};
  std::vector<std::pair<std::string, u64>> log;
  k.spawn("sleeper", 5, [&] {
    k.delay(SwTicks{5});
    log.emplace_back("woke", k.tick_count().value());
  });
  k.spawn("worker", 6, [&] {
    k.consume(200);  // 20 ticks of background work
    log.emplace_back("done", k.tick_count().value());
  });
  k.run(true);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, "woke");
  EXPECT_EQ(log[0].second, 5u);
  EXPECT_EQ(log[1].first, "done");
  EXPECT_EQ(log[1].second, 20u);
}

TEST(RtosKernel, DelayZeroIsYield) {
  Kernel k{fast_cfg()};
  bool other_ran = false;
  std::vector<bool> observed;
  k.spawn("a", 5, [&] {
    k.delay(SwTicks{0});
    observed.push_back(other_ran);
  });
  k.spawn("b", 5, [&] { other_ran = true; });
  k.run(true);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_TRUE(observed[0]);
}

TEST(RtosKernel, SleepingThreadsAdvanceViaIdle) {
  // With every thread asleep, the idle thread must consume virtual time in
  // free-running mode so the alarms eventually fire.
  Kernel k{fast_cfg()};
  u64 woke_tick = 0;
  k.spawn("sleeper", 5, [&] {
    k.delay(SwTicks{100});
    woke_tick = k.tick_count().value();
  });
  k.run(true);
  EXPECT_EQ(woke_tick, 100u);
  EXPECT_GT(k.stats().idle_cycles, 0u);
}

TEST(RtosKernel, PreemptionOnWake) {
  // A high-priority thread waking mid-consume preempts the low one at the
  // next preemption point.
  Kernel k{fast_cfg()};
  std::vector<std::string> order;
  k.spawn("high", 2, [&] {
    k.delay(SwTicks{3});
    order.push_back("high");
  });
  k.spawn("low", 10, [&] {
    order.push_back("low-start");
    k.consume(100);  // high wakes at tick 3, inside this consume
    order.push_back("low-end");
  });
  k.run(true);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "low-start");
  EXPECT_EQ(order[1], "high");
  EXPECT_EQ(order[2], "low-end");
}

TEST(RtosKernel, ShutdownFromThreadStopsRun) {
  Kernel k{fast_cfg()};
  int after_shutdown = 0;
  k.spawn("a", 5, [&] { k.shutdown(); });
  k.spawn("b", 9, [&] { ++after_shutdown; });  // lower priority, never runs
  k.run();
  EXPECT_TRUE(k.shutting_down());
  EXPECT_EQ(after_shutdown, 0);
}

TEST(RtosKernel, StatsCountSwitchesAndTicks) {
  Kernel k{fast_cfg()};
  k.spawn("t", 5, [&] { k.consume(100); });
  k.run(true);
  EXPECT_GE(k.stats().context_switches, 1u);
  EXPECT_EQ(k.stats().ticks, 10u);
}

TEST(RtosKernel, ManyThreadsAllComplete) {
  Kernel k{fast_cfg()};
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    k.spawn("t" + std::to_string(i), 3 + (i % 20), [&] {
      k.consume(17);
      ++completed;
    });
  }
  k.run(true);
  EXPECT_EQ(completed, 64);
}

}  // namespace
}  // namespace vhp::rtos
