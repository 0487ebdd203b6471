// The many-core board tier (DESIGN.md §13): SMP kernel dispatch (affinity,
// per-core budgets, cross-core interrupt routing), board-wide freeze
// semantics, lookahead across cores, and full 4-core ISS sessions with the
// memory hierarchy in the timing path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/multicore.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/message.hpp"
#include "vhp/rtos/kernel.hpp"
#include "vhp/rtos/sync.hpp"

namespace vhp {
namespace {

using rtos::Kernel;
using rtos::KernelConfig;
using rtos::OsState;
using rtos::Semaphore;
using rtos::Thread;

KernelConfig smp_cfg(u32 cores, bool budget = false) {
  KernelConfig cfg;
  cfg.cycles_per_tick = 10;
  cfg.timeslice_ticks = 5;
  cfg.budget_mode = budget;
  cfg.cores = cores;
  return cfg;
}

TEST(SmpKernel, AffinityPinsThreadsToTheirCores) {
  Kernel k{smp_cfg(3)};
  std::vector<u32> seen(3, 99);
  for (u32 c = 0; c < 3; ++c) {
    auto& t = k.spawn("pinned" + std::to_string(c), 8,
                      [&k, &seen, c] { seen[c] = k.current_core(); });
    t.set_affinity(static_cast<int>(c));
  }
  k.run(/*until_quiescent=*/true);
  EXPECT_EQ(seen, (std::vector<u32>{0, 1, 2}));
}

TEST(SmpKernel, AnyCoreThreadsRunWithoutAffinity) {
  Kernel k{smp_cfg(2)};
  int ran = 0;
  k.spawn("anywhere", 8, [&] { ++ran; });
  k.run(true);
  EXPECT_EQ(ran, 1);
}

TEST(SmpKernel, InterruptPinnedToCoreKPreemptsOnlyCoreK) {
  // The satellite contract: a DSR routed to core 1 wakes its handler on
  // core 1 ahead of core 1's lower-priority work, while the core-0 thread
  // that raised the interrupt keeps running uninterrupted through its own
  // consume() — the wake must not set the resched flag on core 0.
  Kernel k{smp_cfg(2)};
  std::vector<std::string> events;
  Semaphore irq_work{k, 0};

  auto& handler = k.spawn("handler", 1, [&] {
    irq_work.wait();
    events.push_back("handler");
  });
  handler.set_affinity(1);

  k.interrupts().attach(
      7,
      rtos::InterruptHandler{
          [](u32) { return rtos::IsrResult::kCallDsr; },
          [&](u32) { irq_work.post(); }},
      /*core=*/1);

  auto& w1 = k.spawn("w1", 5, [&] {
    events.push_back("w1-before");
    k.yield();  // reschedule point: handler (higher prio, same core) wins
    events.push_back("w1-after");
  });
  w1.set_affinity(1);

  auto& w0 = k.spawn("w0", 4, [&] {
    events.push_back("w0-a");
    k.interrupts().raise(7);  // DSR queued for core 1
    events.push_back("w0-b");
    k.consume(30);  // no tick crossing, and no resched from the cross-core wake
    events.push_back("w0-c");
  });
  w0.set_affinity(0);

  k.run(true);

  // Core 0's thread ran to completion contiguously: the cross-core wake
  // never preempted it.
  const auto idx = [&](const std::string& e) {
    return std::find(events.begin(), events.end(), e) - events.begin();
  };
  EXPECT_EQ(idx("w0-b"), idx("w0-a") + 1);
  EXPECT_EQ(idx("w0-c"), idx("w0-b") + 1);
  // On core 1 the handler preempted the lower-priority worker.
  EXPECT_LT(idx("handler"), idx("w1-after"));
  EXPECT_EQ(k.interrupts().core_of(7), 1u);
}

TEST(SmpKernel, DsrRoutingFollowsRoute) {
  Kernel k{smp_cfg(2)};
  u32 dsr_core = 99;
  k.interrupts().attach(
      9, rtos::InterruptHandler{[](u32) { return rtos::IsrResult::kCallDsr; },
                                [&](u32) { dsr_core = k.current_core(); }});
  EXPECT_EQ(k.interrupts().core_of(9), 0u);
  k.interrupts().route(9, 1);
  EXPECT_EQ(k.interrupts().core_of(9), 1u);
  k.spawn("raiser", 8, [&] { k.interrupts().raise(9); });
  k.run(true);
  // The DSR executed in core 1's dispatch context.
  EXPECT_EQ(dsr_core, 1u);
}

TEST(SmpBudget, FreezeOnlyWhenEveryCoreDrained) {
  // One grant feeds both cores; the board-wide freeze (the TIME_ACK) fires
  // once, after the second core's budget is gone too.
  Kernel k{smp_cfg(2, /*budget=*/true)};
  int freezes = 0;
  k.set_freeze_callback([&](SwTicks) {
    ++freezes;
    k.shutdown();
  });
  bool w0_done = false, w1_done = false;
  auto& w0 = k.spawn("w0", 8, [&] {
    k.consume(100);
    w0_done = true;
  });
  w0.set_affinity(0);
  auto& w1 = k.spawn("w1", 8, [&] {
    k.consume(40);  // leftover 60 cycles drain through core 1's idle thread
    w1_done = true;
  });
  w1.set_affinity(1);
  k.grant_cycles(100);
  k.run();
  EXPECT_EQ(freezes, 1);
  EXPECT_TRUE(w0_done);
  EXPECT_TRUE(w1_done);
  EXPECT_EQ(k.core_cycle_count(0), 100u);
  EXPECT_EQ(k.core_cycle_count(1), 100u);  // 40 app + 60 idle
  EXPECT_EQ(k.core_budget_cycles(0), 0u);
  EXPECT_EQ(k.core_budget_cycles(1), 0u);
}

TEST(SmpBudget, GrantFansOutPerCore) {
  Kernel k{smp_cfg(3, true)};
  k.grant_cycles(50);
  for (u32 c = 0; c < 3; ++c) EXPECT_EQ(k.core_budget_cycles(c), 50u);
  EXPECT_EQ(k.stats().grants, 1u);
}

TEST(SmpBudget, StarvedThreadOnAnyCoreYieldsZeroLookahead) {
  Kernel k{smp_cfg(2, true)};
  std::vector<std::optional<u64>> lookaheads;
  k.set_freeze_callback([&](SwTicks) {
    lookaheads.push_back(k.next_event_cycles());
    if (lookaheads.size() == 1) {
      k.grant_cycles(100);  // lets the worker finish and delay
    } else {
      k.shutdown();
    }
  });
  auto& w1 = k.spawn("w1", 8, [&] {
    k.consume(60);           // first freeze happens mid-consume: lookahead 0
    k.delay(SwTicks{5});     // second freeze: lookahead = distance to alarm
  });
  w1.set_affinity(1);
  k.run();
  ASSERT_GE(lookaheads.size(), 2u);
  ASSERT_TRUE(lookaheads[0].has_value());
  EXPECT_EQ(*lookaheads[0], 0u);  // core-1 thread starved mid-consume
  ASSERT_TRUE(lookaheads[1].has_value());
  // 5 ticks ahead on the shared RTC; every core drained the same grants, so
  // the core-0 distance is the board-wide minimum.
  EXPECT_GT(*lookaheads[1], 0u);
  EXPECT_LE(*lookaheads[1], 5u * k.cycles_per_tick());
}

TEST(SmpKernel, CrossCoreWakeupsDrainDeterministically) {
  // A producer pinned to core 0 feeds two consumers pinned to core 1; the
  // whole interleaving must be identical run over run.
  auto run_once = [] {
    Kernel k{smp_cfg(2)};
    std::vector<std::string> events;
    Semaphore items{k, 0};
    for (int c = 0; c < 2; ++c) {
      auto& t = k.spawn("consumer" + std::to_string(c), 6, [&, c] {
        for (int i = 0; i < 3; ++i) {
          items.wait();
          events.push_back("c" + std::to_string(c) + "-" + std::to_string(i));
          k.consume(7);
        }
      });
      t.set_affinity(1);
    }
    auto& p = k.spawn("producer", 5, [&] {
      for (int i = 0; i < 6; ++i) {
        items.post();
        events.push_back("p" + std::to_string(i));
        k.consume(13);
      }
    });
    p.set_affinity(0);
    k.run(true);
    return events;
  };
  const auto first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_EQ(first.size(), 12u);
}

// ---------- many-core ISS sessions ----------

/// SPMD firmware: every core asks for its id (syscall 4), writes
/// 0xC0DE0000 | id to RAM at 0x5000 + 4*id, then exits with its id.
iss::Asm spmd_marker_program() {
  iss::Asm a;
  a.addi(17, 0, 4);  // a7 = core id syscall
  a.ecall();
  a.addi(5, 10, 0);        // x5 = id
  a.li(6, 0xC0DE0000u);
  a.or_(6, 6, 5);          // marker
  a.slli(7, 5, 2);
  a.li(8, 0x5000);
  a.add(8, 8, 7);
  a.sw(6, 8, 0);
  a.addi(17, 0, 0);  // exit(id)
  a.ecall();
  return a;
}

TEST(MultiCoreBoard, FourSpmdCoresRunBehindTheHierarchy) {
  auto pair = net::make_inproc_link_pair();
  board::BoardConfig cfg;
  cfg.free_running = true;
  cfg.rtos.cores = 4;
  cfg.memory = mem::MemConfig{};
  board::Board board{cfg, std::move(pair.board)};
  ASSERT_NE(board.memory_system(), nullptr);

  sim::Memory ram{"ram"};
  spmd_marker_program().load_into(ram, 0x1000);

  iss::MultiCoreBoardConfig mc;
  mc.entry_pcs = {0x1000, 0x1000, 0x1000, 0x1000};
  iss::MultiCoreBoard cores{board, ram, mc};

  std::thread hw{[&] {
    while (!cores.all_exited()) std::this_thread::yield();
    ASSERT_TRUE(net::send_msg(*pair.hw.clock, net::Shutdown{}).ok());
  }};
  board.run();
  hw.join();

  for (u32 c = 0; c < 4; ++c) {
    EXPECT_TRUE(cores.core(c).exited());
    EXPECT_EQ(cores.core(c).exit_code(), c);
    EXPECT_EQ(ram.read_u32(0x5000 + 4 * c), 0xC0DE0000u | c);
    // Every core fetched through its own cold I-cache.
    EXPECT_GT(cores.memory().port(c).icache().misses(), 0u);
    EXPECT_GT(cores.memory().port(c).pipeline().stats().instructions, 0u);
  }
  // All four instruction streams hit the same banks (same program): the
  // shared memory saw real traffic.
  EXPECT_GT(cores.memory().memory().requests(), 0u);
}

TEST(MultiCoreSession, TimedFourCoreSessionIsDeterministic) {
  // Full session: timed co-simulation, 4-core board with the hierarchy,
  // parallel master kernel — two identical runs must agree on every
  // virtual-time observable (the cross-core wakeup drain is deterministic
  // under .parallel(N)).
  auto run_once = [] {
    auto cfg = cosim::SessionConfigBuilder{}
                   .inproc()
                   .t_sync(200)
                   .cycles_per_tick(10)
                   .cores(4)
                   .memory(mem::MemConfig{})
                   .parallel(2)
                   .build_or_throw();
    cosim::CosimSession session{cfg};

    sim::Memory ram{"ram"};
    spmd_marker_program().load_into(ram, 0x1000);
    iss::MultiCoreBoardConfig mc;
    mc.entry_pcs = {0x1000, 0x1000, 0x1000, 0x1000};
    iss::MultiCoreBoard cores{session.board(), ram, mc};

    session.start_board();
    EXPECT_TRUE(session.run_cycles(3000).ok());
    session.finish();

    auto& k = session.board().kernel();
    std::vector<u64> observables{k.tick_count().value(),
                                 cores.memory().memory().requests(),
                                 cores.memory().memory().conflicts()};
    for (u32 c = 0; c < 4; ++c) {
      observables.push_back(k.core_cycle_count(c));
      observables.push_back(cores.memory().port(c).icache().misses());
      observables.push_back(
          cores.memory().port(c).pipeline().stats().total_cycles);
      observables.push_back(cores.core(c).exit_code());
      observables.push_back(cores.core(c).exited() ? 1 : 0);
    }
    return observables;
  };
  const auto first = run_once();
  EXPECT_EQ(first, run_once());
  // Sanity: the firmware actually completed inside the granted window.
  EXPECT_EQ(first.back(), 1u);
}

/// Firmware that streams loads through 64 KiB (16 times the default
/// D-cache) without end: every load misses and queues on the shared banks.
iss::Asm streaming_load_program() {
  iss::Asm a;
  a.li(5, 0x10000);  // x5 = stream base
  a.li(7, 0x20000);  // x7 = stream end
  a.addi(6, 5, 0);   // x6 = cursor
  const auto loop = a.make_label();
  a.bind(loop);
  a.lw(8, 6, 0);
  a.addi(6, 6, 32);  // next line
  a.bne(6, 7, loop);
  a.addi(6, 5, 0);
  a.j(loop);
  return a;
}

TEST(MultiCoreSession, MetricsDumpedWhileTheBoardRunsReadOnlyGauges) {
  // Another thread dumps the metrics while two cores hammer the banks. The
  // bank and pipeline totals are the board thread's plain counters; the
  // dump may read only the gauges the board publishes after each pump
  // (the tsan preset runs this test to hold that).
  auto cfg = cosim::SessionConfigBuilder{}
                 .inproc()
                 .t_sync(200)
                 .cycles_per_tick(10)
                 .cores(2)
                 .memory(mem::MemConfig{})
                 .build_or_throw();
  cosim::CosimSession session{cfg};
  sim::Memory ram{"ram"};
  streaming_load_program().load_into(ram, 0x1000);
  iss::MultiCoreBoardConfig mc;
  mc.entry_pcs = {0x1000, 0x1000};
  iss::MultiCoreBoard cores{session.board(), ram, mc};

  std::atomic<bool> running{true};
  std::atomic<u64> dumps{0};
  std::thread dumper{[&] {
    while (running.load()) {
      (void)session.obs().metrics_json();
      dumps.fetch_add(1);
    }
  }};
  session.start_board();
  for (int chunk = 0; chunk < 20; ++chunk) {
    EXPECT_TRUE(session.run_cycles(1000).ok());
  }
  running = false;
  dumper.join();
  session.finish();
  EXPECT_GT(dumps.load(), 0u);

  // The board thread has been joined: its last publish is the model's
  // final totals.
  auto& metrics = session.obs().metrics();
  const u64 requests = cores.memory().memory().requests();
  EXPECT_GT(requests, 0u);
  EXPECT_EQ(metrics.gauge("mem.requests").value(),
            static_cast<i64>(requests));
  EXPECT_EQ(metrics.gauge("mem.core1.instructions").value(),
            static_cast<i64>(
                cores.memory().port(1).pipeline().stats().instructions));
}

TEST(MultiCoreSession, SingleCoreDefaultKeepsFlatTiming) {
  // The legacy path: no cores()/memory() — the board has no memory system
  // and the kernel runs the single-core dispatch loop.
  auto cfg = cosim::SessionConfigBuilder{}.inproc().t_sync(100).build_or_throw();
  cosim::CosimSession session{cfg};
  EXPECT_EQ(session.board().memory_system(), nullptr);
  EXPECT_EQ(session.board().kernel().cores(), 1u);
  session.start_board();
  EXPECT_TRUE(session.run_cycles(500).ok());
  session.finish();
  // 500 sim cycles at 1 board cycle each, 100 cycles per tick -> 5 ticks:
  // the protocol arithmetic is untouched by the SMP machinery.
  EXPECT_EQ(session.board().kernel().tick_count().value(), 5u);
}

}  // namespace
}  // namespace vhp
