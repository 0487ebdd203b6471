// Fiber-free parallel-kernel suite: the differential fuzzer with thread
// processes disabled (methods only, fast enough for ThreadSanitizer to
// watch the worker pool), plus unit tests for the partitioner,
// the island contract enforcement, the worker pool and the timed-queue
// pruning fix. Carries the composite label "kernel-par-tsan" so both
// `ctest -L tsan` (the tsan preset) and `ctest -L kernel-par` (the
// scripts/check.sh gate) select it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernel_parallel_fuzz.hpp"
#include "vhp/sim/worker_pool.hpp"

namespace vhp::sim {
namespace {

FuzzConfig tsan_config(u64 seed) {
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.threads = false;  // no fibers under TSan
  // Under TSan a parallel delta cycle at 4-8 lanes on 4 CPUs costs up to
  // milliseconds, and every ticker keeps its netlist busy, so the runs are
  // short. The clock layer's edges multiply a run's delta cycles ~30-fold:
  // only the lazy-against-eager test below adds it, on fewer seeds and
  // lanes (the fiber suite runs it on all 30 seeds).
  cfg.run_time = 100;
  cfg.clocks = false;
  return cfg;
}

TEST(KernelParallelFuzzTsan, BitIdenticalAcrossWorkerCounts) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FuzzConfig cfg = tsan_config(seed * 104729);
    const FuzzResult serial = run_fuzz_net(cfg, 0);
    ASSERT_GT(serial.islands, 1u);
    EXPECT_GE(serial.ticks, cfg.n_modules * (cfg.run_time / 9));
    for (unsigned lanes : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      const FuzzResult par = run_fuzz_net(cfg, lanes);
      ASSERT_EQ(par.finals, serial.finals);
      EXPECT_EQ(par.delta_count, serial.delta_count);
      EXPECT_EQ(par.end_time, serial.end_time);
      ASSERT_EQ(par.trace.size(), serial.trace.size());
      for (std::size_t i = 0; i < serial.trace.size(); ++i) {
        ASSERT_TRUE(par.trace[i] == serial.trace[i]) << "trace entry " << i;
      }
    }
  }
}

TEST(KernelParallelFuzzTsan, LazyClocksMatchForcedEagerClocks) {
  // The method-only twin of KernelParallelFuzz's differential: lazy clocks
  // read, listened, spawned on and hooked from a parallel kernel.
  for (u64 seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FuzzConfig cfg = tsan_config(seed * 104729);
    cfg.clocks = true;
    cfg.run_time = 1500;  // long enough for the late observers to attach
    FuzzConfig eager_cfg = cfg;
    eager_cfg.force_eager_clocks = true;
    for (unsigned lanes : {0u, 2u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      EXPECT_EQ(first_difference(run_fuzz_net(cfg, lanes),
                                 run_fuzz_net(eager_cfg, lanes)),
                "");
    }
  }
}

TEST(KernelParallelFuzzTsan, ParallelStatsReportTheRun) {
  const FuzzConfig cfg = tsan_config(99991);
  FuzzNet net{cfg};
  Kernel& kernel = net.kernel;
  kernel.set_parallel(2);
  kernel.run_until(cfg.run_time);

  EXPECT_EQ(kernel.parallel_lanes(), 2u);
  const Kernel::ParallelStats stats = kernel.parallel_stats();
  EXPECT_GT(stats.islands, 1u);
  EXPECT_GT(stats.parallel_deltas, 0u);
  EXPECT_GT(stats.repartitions, 0u);
  ASSERT_EQ(stats.lanes.size(), 2u);
  // Which lane wins an island is a scheduling race (the worker can steal
  // every island before lane 0 claims one), so only the totals are stable.
  u64 islands_run = 0;
  u64 busy_ns = 0;
  for (const auto& lane : stats.lanes) {
    islands_run += lane.islands_run;
    busy_ns += lane.busy_ns;
  }
  EXPECT_GT(islands_run, 0u);
  EXPECT_GT(busy_ns, 0u);
}

// ---------------------------------------------------------------------------
// Partition shape: which construction patterns merge islands, which cut.

struct Leaf : Module {
  Signal<u64>& out;
  Event ev;
  explicit Leaf(Kernel& k, const std::string& name)
      : Module(k, name), out(make_signal<u64>("out")), ev(k, qualify("ev")) {
    method("tick", [this] { out.write(out.read() + 1); })
        .sensitive(ev)
        .dont_initialize();
  }
  using Module::method;
  using Module::thread;
};

TEST(Partition, IndependentModulesAreSeparateIslands) {
  Kernel k;
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  EXPECT_EQ(k.island_count(), 2u);
}

TEST(Partition, SignalSensitivityIsACutEdge) {
  Kernel k;
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  // Listening to a foreign SIGNAL keeps the modules separate: the signal's
  // delta-delayed value is the race-free communication channel.
  b.method("watch", [] {}).sensitive(a.out.value_changed_event())
      .dont_initialize();
  EXPECT_EQ(k.island_count(), 2u);
}

TEST(Partition, PlainEventSensitivityGluesIslands) {
  Kernel k;
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  // Listening to a foreign PLAIN event means the notifier mutates this
  // process's runnable state directly — one island.
  b.method("watch", [] {}).sensitive(a.ev).dont_initialize();
  EXPECT_EQ(k.island_count(), 1u);
}

TEST(Partition, CoLocateMergesAffinityGroups) {
  Kernel k;
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  Leaf c{k, "c"};
  k.co_locate(a.affinity_group(), b.affinity_group());
  EXPECT_EQ(k.island_count(), 2u);
  k.co_locate(b.affinity_group(), c.affinity_group());
  EXPECT_EQ(k.island_count(), 1u);
}

TEST(Partition, ClockStaysItsOwnIslandBehindItsEdgeEvents) {
  Kernel k;
  Clock clk{k, "clk", 2};
  Leaf a{k, "a"};
  a.method("on_clk", [] {}).sensitive(clk.posedge_event()).dont_initialize();
  // The clock's toggle process is entity-unioned with its signal; the
  // posedge sensitivity is signal-owned, i.e. a cut edge.
  EXPECT_EQ(k.island_count(), 2u);
}

TEST(Partition, DyingKernelClearsTheConstructionContext) {
  // Module construction leak-forwards its affinity group into the
  // thread-local construction context on purpose (so members built after
  // the Module subobject inherit it). The kernel's destructor must
  // invalidate a context still pointing at it: the tag is a raw address,
  // and a successor kernel allocated at the same spot would inherit the
  // dead kernel's group id — colliding with its own freshly numbered
  // groups and merging unrelated islands (a clock co-scheduled with a
  // router testbench, in the originally observed failure).
  {
    Kernel k;
    Leaf a{k, "a"};
    EXPECT_EQ(Kernel::construction_context().first, &k);
    EXPECT_EQ(Kernel::construction_context().second, a.affinity_group());
  }
  EXPECT_EQ(Kernel::construction_context().first, nullptr);
  EXPECT_EQ(Kernel::construction_context().second, 0u);

  // A fresh kernel on the same thread numbers its groups from 1 again and
  // keeps non-module entities (ambient construction) out of any group.
  Kernel k2;
  Event loose{k2, "loose"};
  Leaf b{k2, "b"};
  Leaf c{k2, "c"};
  Leaf d{k2, "d"};
  b.method("watch", [] {}).sensitive(loose).dont_initialize();
  // loose has no affinity: it glues only through its sensitivity edge, so
  // c and d stay separate islands from b.
  EXPECT_EQ(k2.island_count(), 3u);
}

TEST(Partition, MidSimulationSpawnLandsInTheOwningIsland) {
  Kernel k;
  k.set_parallel(2);
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  bool spawned_ran = false;
  a.method("spawn_once", [&, armed = false]() mutable {
    if (armed) return;
    armed = true;
    a.method("spawned", [&] { spawned_ran = true; }).sensitive(a.ev);
  });
  k.run(1);
  EXPECT_EQ(k.island_count(), 2u);  // the child merged into a's island
  a.ev.notify_delta();
  k.run(1);
  EXPECT_TRUE(spawned_ran);
}

// ---------------------------------------------------------------------------
// Island-contract enforcement: cross-island eval-phase mutations throw.
// Single-lane runs keep detection deterministic (no real data race while
// the contract is being violated on purpose).

TEST(IslandContract, CrossIslandSignalWriteThrows) {
  Kernel k;
  k.set_parallel(1);
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  b.method("offend", [&] { a.out.write(42); });
  EXPECT_THROW(k.run(1), std::logic_error);
}

TEST(IslandContract, CrossIslandNotifyThrows) {
  Kernel k;
  k.set_parallel(1);
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  b.method("offend", [&] { a.ev.notify_delta(); });
  EXPECT_THROW(k.run(1), std::logic_error);
}

TEST(IslandContract, CoLocateLegalizesTheSharing) {
  Kernel k;
  k.set_parallel(1);
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  b.method("drive", [&] { a.ev.notify_delta(); });
  k.co_locate(a.affinity_group(), b.affinity_group());
  EXPECT_NO_THROW(k.run(1));
  EXPECT_EQ(a.out.read(), 1u);  // a's tick ran off b's notification
}

TEST(IslandContract, SerialKernelNeverChecks) {
  Kernel k;  // parallel off: the legacy path must stay permissive
  Leaf a{k, "a"};
  Leaf b{k, "b"};
  b.method("offend", [&] { a.out.write(42); });
  EXPECT_NO_THROW(k.run(1));
  EXPECT_EQ(a.out.read(), 42u);
}

// ---------------------------------------------------------------------------
// WorkerPool: every item runs exactly once, across epochs, on any lane.

TEST(WorkerPool, RunsEveryItemExactlyOnce) {
  WorkerPool pool{4};
  EXPECT_EQ(pool.lanes(), 4u);
  constexpr std::size_t kItems = 512;
  std::vector<std::atomic<int>> hits(kItems);
  for (int epoch = 0; epoch < 50; ++epoch) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run(kItems, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "item " << i << " epoch " << epoch;
    }
  }
  u64 items = 0;
  for (const auto& lane : pool.stats()) items += lane.items;
  EXPECT_EQ(items, 50u * kItems);
}

TEST(WorkerPool, SingleLaneRunsInline) {
  WorkerPool pool{1};
  EXPECT_EQ(pool.lanes(), 1u);
  std::vector<std::size_t> order;
  pool.run(8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, EmptyRunIsANoOp) {
  WorkerPool pool{2};
  pool.run(0, [](std::size_t) { FAIL() << "no items to run"; });
}

// ---------------------------------------------------------------------------
// Timed-queue pruning (satellite fix): cancel-heavy workloads must not grow
// the queue without bound, and stale entries are dropped lazily by scans.

TEST(KernelTimedQueue, CancelHeavyBurstIsFullyPruned) {
  Kernel k;
  Event e{k, "e"};
  for (int i = 0; i < 10000; ++i) {
    e.notify_at(5);
    e.cancel();
  }
  // Every entry is stale; the first scan erases them all.
  EXPECT_FALSE(k.next_event_time().has_value());
  EXPECT_EQ(k.timed_queue_size(), 0u);
}

TEST(KernelTimedQueue, RescheduleKeepsOnlyABoundedTail) {
  Kernel k;
  Event e{k, "e"};
  // Each earlier re-notify invalidates the previous (later) entry.
  for (int i = 0; i < 1000; ++i) e.notify_at(2000 - i);
  ASSERT_TRUE(k.next_event_time().has_value());
  EXPECT_EQ(*k.next_event_time(), 1001u);
  // The valid entry sorts first, so the scan stops there; the stale tail
  // dies when the event does.
  e.cancel();
  EXPECT_FALSE(k.next_event_time().has_value());
  EXPECT_EQ(k.timed_queue_size(), 0u);
}

TEST(KernelTimedQueue, EqualTimesFireInScheduleOrder) {
  // Notifications due at one instant trigger in the order they were
  // scheduled, so that instant's first evaluation phase runs their
  // processes in that order — also when other times interleave and a
  // cancelled entry sits among them.
  Kernel k;
  Leaf tb{k, "tb"};
  constexpr int kEvents = 12;
  std::vector<std::unique_ptr<Event>> events;
  std::vector<std::pair<SimTime, int>> fired;
  for (int i = 0; i < kEvents; ++i) {
    events.push_back(std::make_unique<Event>(k, "e" + std::to_string(i)));
    tb.method("m" + std::to_string(i),
              [&, i] { fired.emplace_back(k.now(), i); })
        .sensitive(*events.back())
        .dont_initialize();
  }
  const int schedule[kEvents] = {7, 2, 11, 0, 5, 9, 3, 10, 1, 8, 6, 4};
  std::vector<std::pair<SimTime, int>> expected;
  for (const int i : schedule) {
    const SimTime at = i % 3 == 0 ? 10 : 4 + i;
    events[static_cast<std::size_t>(i)]->notify_at(at);
    if (i != 5) expected.emplace_back(at, i);
  }
  events[5]->cancel();
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  k.run_until(20);
  EXPECT_EQ(fired, expected);
}

TEST(KernelTimedQueue, CancelHeavyRunningWorkloadStaysBounded) {
  Kernel k;
  struct Canceller : Module {
    Event tick;
    Event victim;
    explicit Canceller(Kernel& kk) : Module(kk, "c"),
                                     tick(kk, "c.tick"),
                                     victim(kk, "c.victim") {
      method("step", [this] {
        tick.notify_at(1);
        victim.notify_at(5);
        victim.cancel();
      }).sensitive(tick);
    }
  } c{k};
  k.run(5000);
  // 5000 cancelled notifications passed through; the advance scans prune
  // everything that slides in front of the next valid tick.
  EXPECT_LT(k.timed_queue_size(), 50u);
  ASSERT_TRUE(k.next_event_time().has_value());
}

}  // namespace
}  // namespace vhp::sim
