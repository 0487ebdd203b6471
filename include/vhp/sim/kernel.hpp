// The discrete-event simulation kernel (the "simulate()" engine the paper
// modifies into "driver_simulate()" — see vhp/cosim/cosim_kernel.hpp for
// that modified loop).
//
// Scheduling model (SystemC-compatible):
//   1. evaluation phase: run every runnable process; immediate
//      notifications may make further processes runnable within the phase;
//   2. update phase: apply signal updates requested during evaluation;
//   3. delta notification phase: fire pending delta notifications, making
//      processes runnable for the next delta cycle;
//   4. when no delta activity remains, advance time to the earliest timed
//      notification.
//
// Timed notifications wait in a vector-backed binary heap ordered by
// (time, schedule sequence number), so notifications due at one instant
// fire in the order they were scheduled; the update and delta phases swap
// their queues with member scratch vectors that keep their capacity. A
// notification, delta cycle or thread wake allocates nothing once the
// vectors have grown.
//
// An unlistened sim::Clock schedules no events at all: its level is
// computed from start, period and time whenever time advances (see the
// Clock comment in vhp/sim/signal.hpp), so it is not pending activity.
//
// Deterministic parallel mode (set_parallel): the evaluation phase fans
// islands (see vhp/sim/partition.hpp) out over a fixed worker pool, with
// per-island staging queues instead of the global ones; phases 2 and 3 then
// run single-threaded on the staged requests merged in canonical order
// (island id, then intra-island request order). Because islands only
// communicate through delta-delayed signals, every observable result —
// signal values, delta counts, virtual time, recordings — is bit-identical
// to the serial kernel regardless of worker count or OS scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vhp/sim/event.hpp"
#include "vhp/sim/process.hpp"
#include "vhp/sim/signal.hpp"
#include "vhp/sim/time.hpp"

namespace vhp::sim {

class Partition;
class WorkerPool;
struct Island;

class Kernel {
 public:
  Kernel();
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t delta_count() const { return delta_count_; }

  /// Runs for `duration` time units from now (processes all activity with
  /// timestamp <= now + duration, then sets now to exactly now + duration).
  void run(SimTime duration) { run_until(now_ + duration); }

  /// Runs until absolute time `t` (inclusive), then sets now == t.
  void run_until(SimTime t);

  /// Runs until no activity remains or stop() was requested. An
  /// unlistened clock is no activity: the run returns once the last other
  /// event has fired (a listened clock keeps it running, as its edges are
  /// events).
  void run_to_completion();

  /// Earliest pending timed notification, if any: armed clock ticks count,
  /// an unlistened clock's edges do not (they are computed, not
  /// scheduled). Lazily erases stale (cancelled/overridden) entries on top
  /// of the queue so a cancel-heavy workload keeps it bounded.
  [[nodiscard]] std::optional<SimTime> next_event_time() const;

  /// When the kernel next has work: now() while a process is runnable or
  /// awaits initialization, or a delta notification or signal update is
  /// pending; otherwise next_event_time(), after re-arming any unlistened
  /// clock that has gained a listener so its next edge counts. nullopt
  /// when nothing is pending. run_until() up to just before that time
  /// evaluates nothing.
  [[nodiscard]] std::optional<SimTime> next_activity_time();

  /// True when no runnable process, delta, update or timed notification
  /// remains. An unlistened clock does not count; a listened one does,
  /// including one that gained its listener and is not re-armed yet.
  [[nodiscard]] bool idle() const;

  /// Requests the run loop to return after the current delta cycle.
  /// Callable from inside a process (including island workers).
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Livelock guard: a model whose processes keep notifying each other
  /// with delta notifications never lets the timestep advance (the classic
  /// zero-delay feedback bug; SystemC spins forever too). With a limit set,
  /// exceeding `limit` delta cycles within one timestep throws
  /// std::runtime_error naming the simulation time. 0 disables (default).
  void set_delta_limit(std::uint64_t limit) { delta_limit_ = limit; }

  /// --- deterministic parallel execution ---

  /// `lanes` = total evaluation parallelism including the calling thread:
  /// 0 disables (serial kernel, byte-identical legacy path), 1 runs the
  /// island machinery without extra threads, N spawns N-1 workers. Results
  /// are bit-identical across all values; see partition.hpp for the model
  /// contract (islands may only touch foreign state through signals).
  void set_parallel(unsigned lanes);
  [[nodiscard]] unsigned parallel_lanes() const { return parallel_lanes_; }

  struct ParallelStats {
    std::uint64_t islands = 0;
    std::uint64_t parallel_deltas = 0;
    std::uint64_t repartitions = 0;
    struct Lane {
      std::uint64_t busy_ns = 0;
      std::uint64_t islands_run = 0;
    };
    std::vector<Lane> lanes;  // lane 0 = the thread calling run()
  };
  [[nodiscard]] ParallelStats parallel_stats() const;

  /// Builds (if dirty) and returns the number of islands. Usable with the
  /// serial kernel too (partition inspection in tests).
  [[nodiscard]] std::size_t island_count();

  /// --- island affinity (construction-time grouping) ---
  /// Entities constructed while a construction affinity group is active
  /// inherit it; Module's constructor opens a fresh group, so a module and
  /// its members always share an island.
  [[nodiscard]] std::uint32_t new_affinity_group() {
    return affinity_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] std::uint32_t construction_affinity() const;
  void set_construction_affinity(std::uint32_t group);
  /// Raw thread-local construction context (kernel tag + group); used by
  /// Module::AffinityScope to save/restore across nested construction.
  [[nodiscard]] static std::pair<const void*, std::uint32_t>
  construction_context();
  static void set_construction_context(const void* kernel_tag,
                                       std::uint32_t group);

  /// Merges two affinity groups into one island (modules that share state
  /// outside of signals, e.g. a testbench driving a router's FIFOs).
  void co_locate(std::uint32_t group_a, std::uint32_t group_b);
  /// Entity-level merge (e.g. Clock's generator process with its signal).
  void co_locate(Process& process, SignalBase& signal);

  /// Invalidate the island partition (new sensitivity edge, new entity).
  /// Parallel evaluation lanes may call this concurrently (a process
  /// spawned mid-evaluation gains sensitivity), hence the atomic flag.
  void mark_partition_dirty() {
    partition_dirty_.store(true, std::memory_order_relaxed);
  }

  /// Throws std::logic_error if called from a parallel evaluation worker
  /// whose island does not own `event` (cross-island eval-phase mutation).
  void check_eval_access(const Event& event) const;

  /// --- registration API (used by Module; rarely called directly) ---
  Process& register_process(std::unique_ptr<Process> process);
  /// Entity bookkeeping for the partitioner (Event/SignalBase ctors).
  void register_event(Event* event);
  void register_signal(SignalBase* signal);
  void unregister_signal(SignalBase* signal);
  /// Clocks whose level the kernel keeps while they are unlistened.
  void register_clock(Clock* clock);
  void unregister_clock(Clock* clock);

  /// Statistics.
  [[nodiscard]] std::uint64_t process_count() const {
    return processes_.size();
  }
  /// Test introspection: current timed-queue size including stale entries.
  [[nodiscard]] std::size_t timed_queue_size() const {
    return timed_queue_.size();
  }

 private:
  friend class Event;
  friend class SignalBase;
  friend class Process;
  friend class MethodProcess;
  friend class ThreadProcess;

  void schedule_timed(Event* event, SimTime abs_time, std::uint64_t token);
  void schedule_delta(Event* event);
  /// Removes every queued reference to a dying event (Event destructor);
  /// also lazily erases stale timed entries encountered during the scan.
  void forget_event(Event* event);
  void request_update(SignalBase* signal);
  void make_runnable(Process* process);

  /// Runs initialization (first-run) of all processes not yet initialized.
  void initialize_new_processes();

  /// One full delta cycle (evaluate + update + delta notify).
  /// Returns false if there was nothing to do.
  bool do_delta_cycle();
  /// Parallel-evaluation variant (parallel_lanes_ > 0).
  bool do_delta_cycle_parallel();
  /// Phases 2 + 3, shared between the serial and parallel variants.
  void run_update_and_delta_phases();

  /// All delta cycles at the current time point.
  void exhaust_deltas();

  /// True while a process is runnable or uninitialized, or a delta
  /// notification or update is pending.
  [[nodiscard]] bool delta_pending() const;
  /// Re-arms every unlistened clock that has gained a listener.
  void arm_listened_clocks();
  /// Moves time forward to `t` > now_: unlistened clocks take their level
  /// before `t` and request an edge at `t` as an update.
  void advance_to(SimTime t);

  /// Rebuilds the island partition if dirty.
  void ensure_partition();
  /// Evaluation phase of one island (runs on a worker-pool lane).
  void evaluate_island(Island& island);
  /// Appends mid-evaluation entity registrations to the kernel registries
  /// in canonical island order (assigning deterministic entity ids).
  void commit_staged_entities(Island& island);

  SimTime now_ = 0;
  std::uint64_t delta_count_ = 0;
  std::uint64_t delta_limit_ = 0;
  std::atomic<bool> stop_requested_{false};
  bool in_evaluation_ = false;

  struct TimedEntry {
    SimTime time;
    std::uint64_t seq;  // schedule order: breaks ties between equal times
    Event* event;
    std::uint64_t token;
  };
  /// Heap order: true when `a` fires after `b`.
  static bool later(const TimedEntry& a, const TimedEntry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
  /// False once the entry's notification was cancelled or overridden.
  static bool live(const TimedEntry& entry);
  void push_timed(SimTime time, Event* event, std::uint64_t token);
  /// Removes the heap's top entry and returns it.
  TimedEntry pop_timed() const;

  std::uint64_t timed_seq_ = 0;
  /// Binary min-heap on (time, seq) under later(). mutable:
  /// next_event_time() is logically const but prunes stale entries.
  mutable std::vector<TimedEntry> timed_queue_;
  std::vector<Event*> delta_queue_;
  std::vector<Process*> runnable_;
  std::vector<SignalBase*> update_queue_;
  /// The update and delta phases swap their queue with these, so both
  /// vectors keep their capacity across delta cycles.
  std::vector<SignalBase*> update_scratch_;
  std::vector<Event*> delta_scratch_;
  std::vector<Clock*> clocks_;

  /// --- partition inputs (entity registries + explicit unions) ---
  std::uint64_t next_entity_id_ = 0;
  std::vector<Event*> events_;
  std::vector<SignalBase*> signals_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entity_unions_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> group_unions_;
  std::atomic<std::uint32_t> affinity_counter_{0};

  /// --- parallel engine state ---
  unsigned parallel_lanes_ = 0;
  std::atomic<bool> partition_dirty_{true};
  std::uint64_t parallel_deltas_ = 0;
  std::uint64_t repartitions_ = 0;
  std::unique_ptr<Partition> partition_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<Island*> active_islands_;

  /// Owned processes LAST: a dying ThreadProcess unregisters its timeout
  /// event from the queues and registries above (members destroy in reverse
  /// declaration order, so everything it touches must be declared first).
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Process*> uninitialized_;
};

}  // namespace vhp::sim
