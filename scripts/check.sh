#!/usr/bin/env bash
# Full local gate: build and test the release, asan and tsan presets back to
# back. The tsan run selects the suites labeled "tsan" in
# tests/CMakeLists.txt. Every fiber switch is annotated for the sanitizers,
# so that label takes fiber suites too; a suite left out says why there.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in default asan tsan; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" "$@"
done

# Fabric gate: the N-node barrier suites on their own, loudly. The full
# fabric set (-L fabric, matching "fabric" and "fabric-tsan") runs on the
# release build; the fiber-free half re-runs under ThreadSanitizer (the tsan
# preset's "tsan" filter intersected with -L fabric-tsan).
echo "==== [fabric] release gate ===="
ctest --preset default -L fabric "$@"
echo "==== [fabric] tsan gate ===="
ctest --preset tsan -L fabric-tsan "$@"

# Fault gate, same shape: the chaos soaks and fault unit suites on the
# release build (-L fault matches "fault" and "fault-tsan"), the
# fiber-free fault suite again under ThreadSanitizer, and the
# fault_overhead bench in --gate mode, which fails if a *disarmed* fault
# layer's median wall time exceeds the plain session's by more than the
# plain runs' own quartile spread.
echo "==== [fault] release gate ===="
ctest --preset default -L fault "$@"
echo "==== [fault] tsan gate ===="
ctest --preset tsan -L fault-tsan "$@"
echo "==== [fault] bench gate ===="
cmake --build --preset default -j "$jobs" --target fault_overhead
./build/bench/fault_overhead --gate --quick --json /tmp/fault_overhead_gate.metrics.json

# Adaptive synchronization gate (ISSUE 6), same shape: the SyncPolicy /
# adaptive-coordinator and session parity suites (-L adaptive matches
# "adaptive" and "adaptive-tsan"), the fiber-free half under
# ThreadSanitizer, and the fabric_scale bench in --gate mode, which fails
# if the adaptive mean barrier wait at N=8 regresses above the fixed
# baseline.
echo "==== [adaptive] release gate ===="
ctest --preset default -L adaptive "$@"
echo "==== [adaptive] tsan gate ===="
ctest --preset tsan -L adaptive-tsan "$@"
echo "==== [adaptive] bench gate ===="
cmake --build --preset default -j "$jobs" --target fabric_scale
./build/bench/fabric_scale --gate --inproc --json /tmp/fabric_scale_gate.metrics.json

# Causal-timeline gate (ISSUE 7), same shape: the timeline suites plus the
# vhptrace CLI contract (-L timeline matches "timeline" and
# "timeline-tsan"), the fiber-free half under ThreadSanitizer, the
# timeline_overhead bench (--gate fails if a session with observability
# configured but *disarmed* has a median wall time above the plain
# session's by more than the plain runs' quartile spread), and a recorded,
# observed fabric run driven through `vhptrace critical --gate 5` — the
# offline decomposition must reconcile with total fabric wall-clock within
# 5%.
echo "==== [timeline] release gate ===="
ctest --preset default -L timeline "$@"
echo "==== [timeline] tsan gate ===="
ctest --preset tsan -L timeline-tsan "$@"
echo "==== [timeline] bench gate ===="
cmake --build --preset default -j "$jobs" --target timeline_overhead fabric_scale vhptrace
./build/bench/timeline_overhead --gate --quick --json /tmp/timeline_overhead_gate.metrics.json
echo "==== [timeline] critical-path smoke ===="
rm -f /tmp/vhp_timeline_smoke.*.vhprec
./build/bench/fabric_scale --quick --inproc --record /tmp/vhp_timeline_smoke \
  --json /tmp/fabric_scale_record.metrics.json
./build/tools/vhptrace critical --gate 5 /tmp/vhp_timeline_smoke.hw.vhprec \
  /tmp/vhp_timeline_smoke.node*.board.vhprec

# Parallel-kernel gate (ISSUE 8), same shape: the differential fuzzer and
# session/fabric parity suites (-L kernel-par matches "kernel-par" and
# "kernel-par-tsan"), the fiber-free half — fuzzer, partitioner, island
# contract, worker pool — again under ThreadSanitizer, and the
# kernel_parallel bench in --gate mode on the full sweep (~25 s; the quick
# netlist is too small to amortize pool dispatch): serial/parallel parity
# on the bench netlist, a disarmed median within the serial runs' own
# quartile spread over interleaved repetitions, and (on hosts with >= 4
# CPUs) at least 1.5x at 4 workers on the 32-port netlist. Then the
# kernel micro benches, whose per-row work check exits 1 if a clocked row
# loses edges or the unlistened clock reads a wrong level, and the RTOS
# micro benches, which exit 1 unless every yield ping-pong made all its
# switches (or another row dropped operations).
echo "==== [kernel-par] release gate ===="
ctest --preset default -L kernel-par "$@"
echo "==== [kernel-par] tsan gate ===="
ctest --preset tsan -L kernel-par-tsan "$@"
echo "==== [kernel-par] bench gate ===="
cmake --build --preset default -j "$jobs" --target kernel_parallel micro_sim_kernel micro_rtos
./build/bench/kernel_parallel --gate --json /tmp/kernel_parallel_gate.metrics.json
./build/bench/micro_sim_kernel --quick --json /tmp/micro_sim_kernel.metrics.json
./build/bench/micro_rtos --quick --json /tmp/micro_rtos.metrics.json

# Memory-hierarchy / many-core gate (ISSUE 9), same shape: the fiber-free
# cache/bank/pipeline units plus the SMP kernel and 4-core session suites
# on the release build (-L mem matches "mem" and "mem-tsan"), both again
# under ThreadSanitizer (both carry "mem-tsan"), and the mem_contention
# bench in --gate mode, which fails if the disarmed single-core board's
# median wall time exceeds the pre-hierarchy flat loop's by more than that
# loop's quartile spread.
echo "==== [mem] release gate ===="
ctest --preset default -L mem "$@"
echo "==== [mem] tsan gate ===="
ctest --preset tsan -L mem-tsan "$@"
echo "==== [mem] bench gate ===="
cmake --build --preset default -j "$jobs" --target mem_contention
./build/bench/mem_contention --gate --quick --json /tmp/mem_contention_gate.metrics.json

# Session-server gate (ISSUE 10), same shape: the shm-ring / batching /
# event-loop units plus the hosted-session parity suite on the release
# build (-L svc matches "svc" and "svc-tsan"), the fiber-free half again
# under ThreadSanitizer, and the session_density bench in --gate mode:
# 256 shm+batched sessions on one event-loop thread must complete at
# µs-level per-session quantum overhead, and board-side DATA batching on
# the sharded-router-with-telemetry workload must coalesce >= 4 frames
# per flush. The bench auto-skips its verdict on hosts with < 4 cores.
echo "==== [svc] release gate ===="
ctest --preset default -L svc "$@"
echo "==== [svc] tsan gate ===="
ctest --preset tsan -L svc-tsan "$@"
echo "==== [svc] bench gate ===="
cmake --build --preset default -j "$jobs" --target session_density
# No --quick: the gated rows are the 256-session ones.
./build/bench/session_density --gate --json /tmp/session_density_gate.metrics.json

# Transport gate: the transport micro benches, whose work check exits 1
# when an echo loses a frame. Their round_trip and tcp_bandwidth rows wait
# in Channel::recv, which is net::wait_until, on inproc, shm and TCP, so
# the one wait runs here end to end (~2.4 s).
echo "==== [transport] bench gate ===="
cmake --build --preset default -j "$jobs" --target micro_transport
./build/bench/micro_transport --quick --json /tmp/micro_transport.metrics.json

# Benchmark gate: perfbench builds its own package from src/ (into
# .bench_build/) and links the library targets by name, so moving a source
# between targets must keep it building. Each workload runs one second at
# the reference seed and must reproduce its committed digest.
echo "==== [perfbench] self-test ===="
python3 perfbench/test_perfbench.py

echo "All presets passed."
