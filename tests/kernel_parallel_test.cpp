// Differential fuzz tests for the deterministic parallel kernel — fiber
// variant: every netlist includes thread processes (dynamic waits,
// wait_with_timeout, wait_any). It carries the plain "kernel-par" label
// and stays out of the tsan preset, where its worker-count sweep outlasts
// the 120 s test timeout; the method-only twin lives in
// kernel_parallel_tsan_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "kernel_parallel_fuzz.hpp"

namespace vhp::sim {
namespace {

void expect_bit_identical(const FuzzResult& serial, const FuzzResult& par) {
  ASSERT_EQ(par.finals.size(), serial.finals.size());
  for (std::size_t i = 0; i < serial.finals.size(); ++i) {
    ASSERT_EQ(par.finals[i], serial.finals[i]) << "signal index " << i;
  }
  EXPECT_EQ(par.delta_count, serial.delta_count);
  EXPECT_EQ(par.end_time, serial.end_time);
  EXPECT_EQ(par.islands, serial.islands);
  EXPECT_EQ(par.spawned, serial.spawned);
  ASSERT_EQ(par.trace.size(), serial.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    ASSERT_TRUE(par.trace[i] == serial.trace[i])
        << "trace entry " << i << ": t=" << serial.trace[i].time << " '"
        << serial.trace[i].name << "' vs t=" << par.trace[i].time << " '"
        << par.trace[i].name << "'";
  }
}

TEST(KernelParallelFuzz, BitIdenticalAcrossWorkerCounts) {
  std::size_t total_spawned = 0;
  u64 total_deltas = 0;
  for (u64 seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FuzzConfig cfg;
    cfg.seed = seed * 7919;
    const FuzzResult serial = run_fuzz_net(cfg, 0);
    ASSERT_GT(serial.islands, 1u) << "netlist degenerated to one island";
    ASSERT_FALSE(serial.trace.empty()) << "netlist produced no activity";
    total_spawned += serial.spawned;
    total_deltas += serial.delta_count;
    // The base netlist itself stays busy: a ticker re-arms itself at most
    // 9 time units out, so each module's fires at least run_time / 9 times.
    EXPECT_GE(serial.ticks, cfg.n_modules * (cfg.run_time / 9));
    for (unsigned lanes : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      expect_bit_identical(serial, run_fuzz_net(cfg, lanes));
    }
  }
  // The generator really exercised the hard paths: mid-simulation
  // process/signal creation and nontrivial delta traffic.
  EXPECT_GT(total_spawned, 0u);
  EXPECT_GT(total_deltas, 1000u);
}

TEST(KernelParallelFuzz, ReArmingParallelMidRunStaysIdentical) {
  // Flipping between serial and parallel between run_until legs must not
  // change anything observable either (the partition survives, the pool is
  // re-created lazily).
  FuzzConfig cfg;
  cfg.seed = 1234;
  const FuzzResult serial = run_fuzz_net(cfg, 0);

  FuzzNet net{cfg};
  Kernel& kernel = net.kernel;
  kernel.run_until(cfg.run_time / 4);
  kernel.set_parallel(3);
  kernel.run_until(cfg.run_time / 2);
  kernel.set_parallel(0);
  kernel.run_until(3 * cfg.run_time / 4);
  kernel.set_parallel(2);
  kernel.run_until(cfg.run_time);

  EXPECT_EQ(net.finals(), serial.finals);
  EXPECT_EQ(kernel.delta_count(), serial.delta_count);
}

TEST(KernelParallelFuzz, LazyClocksMatchForcedEagerClocks) {
  // Each seed's clock layer runs as built (unlistened clocks lazy, late
  // listeners re-arming them) and with every edge forced through the
  // generator; serial and parallel. Everything the model observes must
  // match, while the lazy runs really skip edges.
  u64 lazy_deltas = 0;
  u64 eager_deltas = 0;
  for (u64 seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FuzzConfig cfg;
    cfg.seed = seed * 7919;
    FuzzConfig eager_cfg = cfg;
    eager_cfg.force_eager_clocks = true;
    for (unsigned lanes : {0u, 2u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      const FuzzResult lazy = run_fuzz_net(cfg, lanes);
      const FuzzResult eager = run_fuzz_net(eager_cfg, lanes);
      EXPECT_EQ(first_difference(lazy, eager), "");
      lazy_deltas += lazy.delta_count;
      eager_deltas += eager.delta_count;
    }
  }
  EXPECT_LT(lazy_deltas, eager_deltas);
}

}  // namespace
}  // namespace vhp::sim
