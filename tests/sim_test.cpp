// Unit tests for the discrete-event simulation kernel: events, processes,
// delta cycles, signals, clocks, ports, fifos.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "vhp/common/types.hpp"
#include "vhp/sim/fifo.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/module.hpp"
#include "vhp/sim/port.hpp"

namespace vhp::sim {
namespace {

// Convenience: a module exposing process registration for ad-hoc tests.
struct Harness : Module {
  explicit Harness(Kernel& k) : Module(k, "tb") {}
  using Module::make_bool_signal;
  using Module::make_signal;
  using Module::method;
  using Module::thread;
};

TEST(Event, TimedNotificationFiresAtRightTime) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  std::vector<SimTime> fired;
  tb.method("watch", [&] { fired.push_back(k.now()); })
      .sensitive(ev)
      .dont_initialize();
  ev.notify_at(10);
  k.run_until(100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 10u);
}

TEST(Event, EarlierTimedNotificationOverridesLater) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  std::vector<SimTime> fired;
  tb.method("watch", [&] { fired.push_back(k.now()); })
      .sensitive(ev)
      .dont_initialize();
  ev.notify_at(50);
  ev.notify_at(10);  // earlier wins; 50 is dropped
  k.run_until(100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 10u);
}

TEST(Event, LaterTimedNotificationIgnoredWhileEarlierPending) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  int count = 0;
  tb.method("watch", [&] { ++count; }).sensitive(ev).dont_initialize();
  ev.notify_at(10);
  ev.notify_at(50);  // ignored
  k.run_until(100);
  EXPECT_EQ(count, 1);
}

TEST(Event, CancelSuppressesPending) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  int count = 0;
  tb.method("watch", [&] { ++count; }).sensitive(ev).dont_initialize();
  ev.notify_at(10);
  ev.cancel();
  k.run_until(100);
  EXPECT_EQ(count, 0);
}

TEST(Event, DeltaNotificationRunsInNextDelta) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  std::vector<u64> deltas;
  tb.method("watch", [&] { deltas.push_back(k.delta_count()); })
      .sensitive(ev)
      .dont_initialize();
  ev.notify_delta();
  k.run_until(0);
  ASSERT_EQ(deltas.size(), 1u);
  // Still at time 0 but one delta later than the notifying one.
  EXPECT_EQ(k.now(), 0u);
}

TEST(Process, InitializationRunsOnceUnlessSuppressed) {
  Kernel k;
  Harness tb{k};
  int init_runs = 0;
  int suppressed_runs = 0;
  tb.method("init", [&] { ++init_runs; });
  tb.method("no_init", [&] { ++suppressed_runs; }).dont_initialize();
  k.run_until(10);
  EXPECT_EQ(init_runs, 1);
  EXPECT_EQ(suppressed_runs, 0);
}

TEST(Process, MethodRetriggersOnEveryNotification) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  int count = 0;
  tb.method("watch", [&] { ++count; }).sensitive(ev).dont_initialize();
  for (int i = 0; i < 3; ++i) {
    ev.notify_at(5);  // relative delay
    k.run(10);
  }
  EXPECT_EQ(count, 3);
}

TEST(Process, ThreadWaitsForDelays) {
  Kernel k;
  Harness tb{k};
  std::vector<SimTime> stamps;
  tb.thread("worker", [&] {
    stamps.push_back(k.now());
    wait(10);
    stamps.push_back(k.now());
    wait(5);
    stamps.push_back(k.now());
  });
  k.run_until(100);
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 10, 15}));
}

TEST(Process, ThreadWaitsOnEvent) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  SimTime woke_at = 0;
  bool done = false;
  tb.thread("waiter", [&] {
    wait(ev);
    woke_at = k.now();
    done = true;
  });
  tb.thread("notifier", [&] {
    wait(30);
    ev.notify();
  });
  k.run_until(100);
  EXPECT_TRUE(done);
  EXPECT_EQ(woke_at, 30u);
}

TEST(Process, DynamicWaitMasksStaticSensitivity) {
  Kernel k;
  Harness tb{k};
  Event static_ev{k, "static"};
  Event dynamic_ev{k, "dynamic"};
  std::vector<SimTime> wakes;
  auto& p = tb.thread("t", [&] {
    wait(dynamic_ev);  // static_ev firing meanwhile must NOT wake us
    wakes.push_back(k.now());
  });
  p.sensitive(static_ev).dont_initialize();
  // dont_initialize'd thread starts on its static event.
  static_ev.notify_at(5);   // starts the thread; it then waits dynamically
  static_ev.notify_at(10);  // must be ignored (dynamic wait active)
  dynamic_ev.notify_at(20);
  k.run_until(100);
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 20u);
}

TEST(Process, WaitAnyReturnsFirstFiringEvent) {
  Kernel k;
  Harness tb{k};
  Event a{k, "a"};
  Event b{k, "b"};
  std::vector<std::pair<const Event*, SimTime>> wakes;
  tb.thread("t", [&] {
    for (int i = 0; i < 2; ++i) {
      Event* fired = wait_any({&a, &b});  // sequence before reading now()
      wakes.emplace_back(fired, k.now());
    }
  });
  b.notify_at(10);
  a.notify_at(25);
  k.run_until(100);
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0].first, &b);
  EXPECT_EQ(wakes[0].second, 10u);
  EXPECT_EQ(wakes[1].first, &a);
  EXPECT_EQ(wakes[1].second, 25u);
}

TEST(Process, StaleWaitAnyRegistrationDoesNotWakeLater) {
  // Thread waits on {a, b}; a fires (wins). Later b fires while the thread
  // is waiting on c only — the stale b registration must not wake it.
  Kernel k;
  Harness tb{k};
  Event a{k, "a"};
  Event b{k, "b"};
  Event c{k, "c"};
  std::vector<std::pair<const Event*, SimTime>> wakes;
  tb.thread("t", [&] {
    // Sequence each wait before reading now() (argument evaluation order
    // is unspecified).
    Event* first = wait_any({&a, &b});
    wakes.emplace_back(first, k.now());
    Event* second = wait_any({&c});
    wakes.emplace_back(second, k.now());
  });
  a.notify_at(5);
  b.notify_at(10);  // stale registration from the first wait
  c.notify_at(20);
  k.run_until(100);
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0].first, &a);
  EXPECT_EQ(wakes[1].first, &c);
  EXPECT_EQ(wakes[1].second, 20u);  // not woken at 10 by stale b
}

TEST(Process, WaitWithTimeoutTimesOut) {
  Kernel k;
  Harness tb{k};
  Event never{k, "never"};
  bool got = true;
  SimTime woke_at = 0;
  tb.thread("t", [&] {
    got = wait_with_timeout(never, 40);
    woke_at = k.now();
  });
  k.run_until(100);
  EXPECT_FALSE(got);
  EXPECT_EQ(woke_at, 40u);
}

TEST(Process, WaitWithTimeoutSucceedsAndCancelsTimer) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  std::vector<bool> results;
  std::vector<SimTime> times;
  tb.thread("t", [&] {
    results.push_back(wait_with_timeout(ev, 50));
    times.push_back(k.now());
    // The cancelled timeout must not disturb a later plain delay.
    wait(100);
    times.push_back(k.now());
  });
  ev.notify_at(10);
  k.run_until(300);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0]);
  EXPECT_EQ(times[0], 10u);
  EXPECT_EQ(times[1], 110u);  // not cut short by the stale 50-unit timer
}

TEST(Signal, WriteVisibleNextDelta) {
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("s", 1);
  u32 seen_during_write_delta = 0;
  tb.thread("t", [&] {
    sig.write(2);
    seen_during_write_delta = sig.read();  // update not applied yet
    wait(1);
  });
  k.run_until(5);
  EXPECT_EQ(seen_during_write_delta, 1u);
  EXPECT_EQ(sig.read(), 2u);
}

TEST(Signal, ChangedEventOnlyOnRealChange) {
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("s", 7);
  int changes = 0;
  tb.method("watch", [&] { ++changes; })
      .sensitive(sig.value_changed_event())
      .dont_initialize();
  tb.thread("driver", [&] {
    sig.write(7);  // same value: no event
    wait(10);
    sig.write(8);  // change: event
    wait(10);
    sig.write(8);  // same: no event
    wait(10);
  });
  k.run_until(100);
  EXPECT_EQ(changes, 1);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("s", 0);
  tb.thread("t", [&] {
    sig.write(1);
    sig.write(2);
    sig.write(3);
    wait(1);
  });
  k.run_until(5);
  EXPECT_EQ(sig.read(), 3u);
}

TEST(BoolSignal, EdgeEvents) {
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_bool_signal("b", false);
  std::vector<std::pair<char, SimTime>> edges;
  tb.method("pos", [&] { edges.emplace_back('p', k.now()); })
      .sensitive(sig.posedge_event())
      .dont_initialize();
  tb.method("neg", [&] { edges.emplace_back('n', k.now()); })
      .sensitive(sig.negedge_event())
      .dont_initialize();
  tb.thread("driver", [&] {
    wait(10);
    sig.write(true);
    wait(10);
    sig.write(false);
    wait(10);
  });
  k.run_until(100);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].first, 'p');
  EXPECT_EQ(edges[0].second, 10u);
  EXPECT_EQ(edges[1].first, 'n');
  EXPECT_EQ(edges[1].second, 20u);
}

TEST(Clock, GeneratesPeriodicPosedges) {
  Kernel k;
  Clock clk{k, "clk", /*period=*/10};
  Harness tb{k};
  std::vector<SimTime> posedges;
  tb.method("watch", [&] { posedges.push_back(k.now()); })
      .sensitive(clk.posedge_event())
      .dont_initialize();
  k.run_until(45);
  EXPECT_EQ(posedges, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(Clock, DutyCycleHalfPeriod) {
  Kernel k;
  Clock clk{k, "clk", 10};
  Harness tb{k};
  std::vector<SimTime> negedges;
  tb.method("watch", [&] { negedges.push_back(k.now()); })
      .sensitive(clk.negedge_event())
      .dont_initialize();
  k.run_until(19);
  EXPECT_EQ(negedges, (std::vector<SimTime>{5, 15}));
}

TEST(Clock, SynchronousCounterPipeline) {
  // A classic two-stage synchronous design: proves evaluate/update split.
  Kernel k;
  Clock clk{k, "clk", 2};
  Harness tb{k};
  auto& stage1 = tb.make_signal<u32>("s1", 0);
  auto& stage2 = tb.make_signal<u32>("s2", 0);
  tb.method("ff",
            [&] {
              stage1.write(stage1.read() + 1);
              stage2.write(stage1.read());  // reads the OLD stage1
            })
      .sensitive(clk.posedge_event())
      .dont_initialize();
  k.run_until(9);  // posedges at 0,2,4,6,8 -> 5 clock ticks
  EXPECT_EQ(stage1.read(), 5u);
  EXPECT_EQ(stage2.read(), 4u);  // exactly one cycle behind
}

TEST(Clock, RejectsPeriodBelowTwo) {
  // Period 1 would give the clock a zero-width low phase: each negedge
  // would share its time step with the next posedge.
  Kernel k;
  EXPECT_THROW((Clock{k, "p0", 0}), std::invalid_argument);
  EXPECT_THROW((Clock{k, "p1", 1}), std::invalid_argument);
  Clock two{k, "p2", 2};
  EXPECT_EQ(two.period(), 2u);
}

// ---------------------------------------------------------------------------
// The lazy path of sim::Clock: a clock nothing listens to schedules no
// events, and its level is computed from start, period and time.

/// The level after every edge at or before `t`: posedge at start + k *
/// period, negedge (period + 1) / 2 later.
bool clock_level(SimTime t, SimTime period, SimTime start) {
  return t >= start && (t - start) % period < period - period / 2;
}

TEST(LazyClock, ReadsBetweenRunsFollowTheClosedForm) {
  for (const SimTime period : {2u, 3u, 4u}) {
    for (const SimTime start : {0u, 1u, 5u}) {
      SCOPED_TRACE("period=" + std::to_string(period) +
                   " start=" + std::to_string(start));
      Kernel k;
      Clock clk{k, "clk", period, start};
      for (SimTime t = 0; t <= 60; t += 1 + t % 4) {
        k.run_until(t);
        ASSERT_EQ(clk.read(), clock_level(t, period, start)) << "t=" << t;
      }
    }
  }
}

TEST(LazyClock, FirstDeltaReadsThePreEdgeLevel) {
  // A thread woken by a timed event reads the level before any edge at its
  // wake time, and the level after it one delta cycle later — where the
  // generator's write would have landed.
  for (const SimTime period : {2u, 3u, 4u}) {
    for (const SimTime start : {1u, 2u, 5u}) {
      SCOPED_TRACE("period=" + std::to_string(period) +
                   " start=" + std::to_string(start));
      Kernel k;
      Clock clk{k, "clk", period, start};
      Harness tb{k};
      Event delta{k, "delta"};
      std::vector<std::tuple<SimTime, bool, bool>> reads;
      tb.thread("reader", [&] {
        for (SimTime step = 1;; ++step) {
          wait(1 + step % 3);
          const bool first = clk.read();
          delta.notify_delta();
          wait(delta);
          reads.emplace_back(k.now(), first, clk.read());
        }
      });
      k.run_until(40);
      ASSERT_GT(reads.size(), 10u);
      for (const auto& [t, first, second] : reads) {
        EXPECT_EQ(first, clock_level(t - 1, period, start)) << "t=" << t;
        EXPECT_EQ(second, clock_level(t, period, start)) << "t=" << t;
      }
    }
  }
}

TEST(LazyClock, MethodSpawnedMidRunSeesEveryLaterPosedge) {
  Kernel k;
  Clock clk{k, "clk", 4, 1};  // posedges 1, 5, 9, 13, ...
  Harness tb{k};
  std::vector<SimTime> posedges;
  tb.thread("spawner", [&] {
    wait(10);
    tb.method("late", [&] { posedges.push_back(k.now()); })
        .sensitive(clk.posedge_event())
        .dont_initialize();
  });
  k.run_until(9);
  // The initialization run and the first edge; the edges at 3, 5, 7 and 9
  // cost nothing.
  EXPECT_EQ(k.delta_count(), 2u);
  EXPECT_TRUE(clk.read());
  k.run_until(30);
  EXPECT_EQ(posedges, (std::vector<SimTime>{13, 17, 21, 25, 29}));
}

TEST(LazyClock, DynamicWaitOnALazyClockWakesAtTheNextPosedge) {
  Kernel k;
  Clock clk{k, "clk", 6, 2};  // posedges 2, 8, 14, 20, 26; negedges 5, 11, ...
  Harness tb{k};
  std::vector<std::pair<SimTime, bool>> wakes;
  tb.thread("waiter", [&] {
    wait(11);
    wait(clk.posedge_event());
    wakes.emplace_back(k.now(), clk.read());
    wait(9);  // the clock has gone lazy again after its negedge at 17
    wait(clk.posedge_event());
    wakes.emplace_back(k.now(), clk.read());
  });
  k.run_until(40);
  EXPECT_EQ(wakes, (std::vector<std::pair<SimTime, bool>>{{14, true},
                                                          {26, true}}));
}

TEST(LazyClock, ChangeHookAddedMidRunRecordsEveryLaterEdge) {
  Kernel k;
  Clock clk{k, "clk", 4};
  k.run_until(9);
  EXPECT_TRUE(clk.read());  // posedge at 8
  std::vector<std::pair<SimTime, bool>> edges;
  clk.add_change_hook([&](SimTime t) { edges.emplace_back(t, clk.read()); });
  k.run_until(17);
  EXPECT_EQ(edges, (std::vector<std::pair<SimTime, bool>>{
                       {10, false}, {12, true}, {14, false}, {16, true}}));
}

TEST(LazyClock, AlwaysListenedClockKeepsTheGeneratorOrder) {
  // The generator re-arms its tick in the edge's first delta cycle, so a
  // notification a posedge listener schedules for the next edge fires
  // after the tick: that edge's updates apply the clock's first.
  Kernel k;
  Clock clk{k, "clk", 4};
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("sig", 0);
  Event at_negedge{k, "at_negedge"};
  std::vector<std::string> updates;
  clk.add_change_hook([&](SimTime t) {
    updates.push_back("clk@" + std::to_string(t));
  });
  sig.add_change_hook([&](SimTime t) {
    updates.push_back("sig@" + std::to_string(t));
  });
  tb.method("on_posedge", [&] { at_negedge.notify_at(2); })
      .sensitive(clk.posedge_event())
      .dont_initialize();
  tb.method("writer", [&] { sig.write(sig.read() + 1); })
      .sensitive(at_negedge)
      .dont_initialize();
  k.run_until(7);
  EXPECT_EQ(updates, (std::vector<std::string>{"clk@0", "clk@2", "sig@2",
                                               "clk@4", "clk@6", "sig@6"}));
}

TEST(LazyClock, AnUnlistenedClockLeavesTheKernelIdle) {
  Kernel k;
  Clock clk{k, "clk", 2};
  k.run_until(5);
  ASSERT_TRUE(k.idle());

  Harness tb{k};
  Event last{k, "last"};
  SimTime fired_at = 0;
  tb.method("last", [&] { fired_at = k.now(); })
      .sensitive(last)
      .dont_initialize();
  last.notify_at(20);
  k.run_to_completion();  // returns once the last other event has fired
  EXPECT_EQ(fired_at, 25u);
  EXPECT_EQ(k.now(), 25u);
  EXPECT_FALSE(clk.read());  // negedge at 25
  EXPECT_TRUE(k.idle());

  // A listener makes the clock pending activity again: a change hook at
  // once, before any run re-arms the clock's tick ...
  clk.add_change_hook([](SimTime) {});
  EXPECT_FALSE(k.idle());
}

TEST(LazyClock, APosedgeListenerKeepsTheKernelBusy) {
  Kernel k;
  Clock clk{k, "clk", 2};
  Harness tb{k};
  int posedges = 0;
  tb.method("edge", [&] { ++posedges; })
      .sensitive(clk.posedge_event())
      .dont_initialize();
  k.run_until(5);
  EXPECT_EQ(posedges, 3);  // 0, 2, 4
  EXPECT_FALSE(k.idle());
}

TEST(Port, InOutBinding) {
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("s", 0);
  InPort<u32> in;
  OutPort<u32> out;
  in.bind(sig);
  out.bind(sig);
  EXPECT_TRUE(in.bound());
  tb.thread("t", [&] {
    out.write(11);
    wait(1);
  });
  k.run_until(2);
  EXPECT_EQ(in.read(), 11u);
}

TEST(Port, BoolPortExposesEdges) {
  Kernel k;
  Clock clk{k, "clk", 4};
  Harness tb{k};
  BoolInPort port;
  port.bind(clk);
  int edges = 0;
  tb.method("w", [&] { ++edges; })
      .sensitive(port.posedge_event())
      .dont_initialize();
  k.run_until(19);
  EXPECT_EQ(edges, 5);  // 0,4,8,12,16
}

TEST(Fifo, BlockingProducerConsumer) {
  Kernel k;
  Harness tb{k};
  Fifo<int> fifo{k, "f", 2};
  std::vector<int> consumed;
  tb.thread("producer", [&] {
    for (int i = 1; i <= 6; ++i) fifo.write(i);  // blocks on full
  });
  tb.thread("consumer", [&] {
    for (int i = 0; i < 6; ++i) {
      consumed.push_back(fifo.read());
      wait(10);
    }
  });
  k.run_until(100);
  EXPECT_EQ(consumed, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fifo, NonBlockingDropsWhenFull) {
  Kernel k;
  Fifo<int> fifo{k, "f", 2};
  EXPECT_TRUE(fifo.nb_write(1));
  EXPECT_TRUE(fifo.nb_write(2));
  EXPECT_FALSE(fifo.nb_write(3));  // the paper's drop-on-full
  EXPECT_EQ(fifo.size(), 2u);
  int v = 0;
  EXPECT_TRUE(fifo.nb_read(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(fifo.nb_read(v));
  EXPECT_FALSE(fifo.nb_read(v));
}

TEST(Kernel, RunUntilAdvancesTimeWithoutEvents) {
  Kernel k;
  k.run_until(1000);
  EXPECT_EQ(k.now(), 1000u);
  EXPECT_TRUE(k.idle());
}

TEST(Kernel, StopRequestHaltsRun) {
  Kernel k;
  Harness tb{k};
  tb.thread("stopper", [&] {
    wait(50);
    k.stop();
    wait(1000);  // never reached within this run
  });
  k.run_until(500);
  EXPECT_EQ(k.now(), 50u);
  EXPECT_TRUE(k.stop_requested());
}

TEST(Kernel, RunToCompletionDrainsAllActivity) {
  Kernel k;
  Harness tb{k};
  int done_at = -1;
  tb.thread("t", [&] {
    wait(25);
    wait(25);
    done_at = static_cast<int>(k.now());
  });
  k.run_to_completion();
  EXPECT_EQ(done_at, 50);
}

TEST(Kernel, ExternalSignalWriteAppliesWithoutRunnableProcesses) {
  // Regression: a write from testbench code (outside any process) queues an
  // update with nothing runnable; the update phase must still run.
  Kernel k;
  Harness tb{k};
  auto& sig = tb.make_signal<u32>("s", 0);
  int changes = 0;
  tb.method("watch", [&] { ++changes; })
      .sensitive(sig.value_changed_event())
      .dont_initialize();
  sig.write(5);
  k.run_until(1);
  EXPECT_EQ(sig.read(), 5u);
  EXPECT_EQ(changes, 1);
}

TEST(Kernel, DeltaLimitCatchesZeroDelayFeedbackLoop) {
  Kernel k;
  Harness tb{k};
  auto& a = tb.make_signal<u32>("a", 0);
  auto& b = tb.make_signal<u32>("b", 0);
  // Classic livelock: two methods feeding each other new values with no
  // time elapsing in between.
  tb.method("fwd", [&] { b.write(a.read() + 1); })
      .sensitive(a.value_changed_event())
      .dont_initialize();
  tb.method("bwd", [&] { a.write(b.read() + 1); })
      .sensitive(b.value_changed_event())
      .dont_initialize();
  k.set_delta_limit(1000);
  a.write(1);
  EXPECT_THROW(k.run_until(10), std::runtime_error);
}

TEST(Kernel, DeltaLimitAllowsLegitimateDeltaBursts) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  int hops = 0;
  tb.method("chain",
            [&] {
              if (++hops < 50) ev.notify_delta();  // finite burst
            })
      .sensitive(ev)
      .dont_initialize();
  k.set_delta_limit(1000);
  ev.notify_delta();
  k.run_until(10);
  EXPECT_EQ(hops, 50);
}

TEST(Kernel, ImmediateNotificationWithinEvaluation) {
  Kernel k;
  Harness tb{k};
  Event ev{k, "ev"};
  bool woke = false;
  tb.thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  tb.thread("poker", [&] {
    wait(5);
    ev.notify();  // immediate
  });
  k.run_until(10);
  EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace vhp::sim
