#include "vhp/sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "vhp/common/log.hpp"
#include "vhp/sim/partition.hpp"
#include "vhp/sim/worker_pool.hpp"

namespace vhp::sim {

namespace {
const Logger kLog{"sim"};

/// The island an evaluation lane is currently executing, tagged with its
/// kernel so concurrent kernels on other threads (e.g. a board-side model)
/// never observe a foreign island context.
thread_local Island* tls_eval_island = nullptr;
thread_local const Kernel* tls_eval_kernel = nullptr;

/// Construction affinity context (see Kernel::construction_affinity).
/// Thread-local so mid-simulation entity creation on worker lanes neither
/// races nor leaks across kernels.
thread_local const void* tls_ctor_kernel = nullptr;
thread_local std::uint32_t tls_ctor_group = 0;

[[noreturn]] void throw_cross_island(const char* what, const std::string& name,
                                     std::uint32_t owner,
                                     std::uint32_t executing) {
  throw std::logic_error(
      std::string("parallel kernel: cross-island ") + what + " on '" + name +
      "' (owned by island " + std::to_string(owner) +
      ", executing island " + std::to_string(executing) +
      "); islands may only communicate through signals — use "
      "Kernel::co_locate to merge modules that share state directly");
}
}  // namespace

Kernel::Kernel() = default;

Kernel::~Kernel() {
  // Invalidate a construction context still pointing at this kernel: the
  // tag is a raw address, and a later kernel allocated at the same spot
  // would otherwise inherit the dead kernel's group for entities built
  // outside any module (observed as a bogus island merge under ASan's
  // allocator, where back-to-back sessions reuse the allocation).
  if (tls_ctor_kernel == this) {
    tls_ctor_kernel = nullptr;
    tls_ctor_group = 0;
  }
}

std::uint32_t Kernel::construction_affinity() const {
  return tls_ctor_kernel == this ? tls_ctor_group : 0;
}

void Kernel::set_construction_affinity(std::uint32_t group) {
  tls_ctor_kernel = this;
  tls_ctor_group = group;
}

std::pair<const void*, std::uint32_t> Kernel::construction_context() {
  return {tls_ctor_kernel, tls_ctor_group};
}

void Kernel::set_construction_context(const void* kernel_tag,
                                      std::uint32_t group) {
  tls_ctor_kernel = kernel_tag;
  tls_ctor_group = group;
}

void Kernel::co_locate(std::uint32_t group_a, std::uint32_t group_b) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    throw std::logic_error(
        "co_locate is not callable from a parallel evaluation phase");
  }
  if (group_a == 0 || group_b == 0 || group_a == group_b) return;
  group_unions_.emplace_back(group_a, group_b);
  partition_dirty_ = true;
}

void Kernel::co_locate(Process& process, SignalBase& signal) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    throw std::logic_error(
        "co_locate is not callable from a parallel evaluation phase");
  }
  entity_unions_.emplace_back(process.entity_id_, signal.entity_id_);
  partition_dirty_ = true;
}

void Kernel::check_eval_access(const Event& event) const {
  if (tls_eval_kernel != this || tls_eval_island == nullptr) return;
  if (event.island_ != tls_eval_island->id) {
    throw_cross_island("dynamic wait registration", event.name_,
                       event.island_, tls_eval_island->id);
  }
}

Process& Kernel::register_process(std::unique_ptr<Process> process) {
  Process& ref = *process;
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    // Mid-evaluation creation (the cosim SyncAgent pattern): stage into the
    // executing island; committed — with a deterministic entity id — after
    // the evaluation barrier.
    ref.island_ = tls_eval_island->id;
    tls_eval_island->staged_processes.push_back(std::move(process));
    return ref;
  }
  ref.entity_id_ = next_entity_id_++;
  processes_.push_back(std::move(process));
  uninitialized_.push_back(&ref);
  partition_dirty_ = true;
  return ref;
}

void Kernel::register_event(Event* event) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    event->island_ = tls_eval_island->id;
    event->affinity_ = construction_affinity();
    tls_eval_island->staged_events.push_back(event);
    return;
  }
  event->entity_id_ = next_entity_id_++;
  event->affinity_ = construction_affinity();
  events_.push_back(event);
  partition_dirty_ = true;
}

void Kernel::register_signal(SignalBase* signal) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    signal->island_ = tls_eval_island->id;
    signal->affinity_ = construction_affinity();
    tls_eval_island->staged_signals.push_back(signal);
    return;
  }
  signal->entity_id_ = next_entity_id_++;
  signal->affinity_ = construction_affinity();
  signals_.push_back(signal);
  partition_dirty_ = true;
}

void Kernel::unregister_signal(SignalBase* signal) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    throw std::logic_error("destroying signal '" + signal->name_ +
                           "' during a parallel evaluation phase is "
                           "unsupported");
  }
  std::erase(signals_, signal);
  const std::uint64_t id = signal->entity_id_;
  std::erase_if(entity_unions_, [id](const auto& pair) {
    return pair.first == id || pair.second == id;
  });
  partition_dirty_ = true;
}

void Kernel::register_clock(Clock* clock) { clocks_.push_back(clock); }

void Kernel::unregister_clock(Clock* clock) { std::erase(clocks_, clock); }

bool Kernel::live(const TimedEntry& entry) {
  return entry.event->pending_ == Event::Pending::kTimed &&
         entry.event->pending_token_ == entry.token;
}

void Kernel::push_timed(SimTime time, Event* event, std::uint64_t token) {
  timed_queue_.push_back({time, timed_seq_++, event, token});
  std::push_heap(timed_queue_.begin(), timed_queue_.end(), later);
}

Kernel::TimedEntry Kernel::pop_timed() const {
  std::pop_heap(timed_queue_.begin(), timed_queue_.end(), later);
  const TimedEntry top = timed_queue_.back();
  timed_queue_.pop_back();
  return top;
}

void Kernel::schedule_timed(Event* event, SimTime abs_time,
                            std::uint64_t token) {
  assert(abs_time >= now_);
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    if (event->island_ != tls_eval_island->id) {
      throw_cross_island("notify_at", event->name_, event->island_,
                         tls_eval_island->id);
    }
    tls_eval_island->staged_timed.push_back({event, abs_time, token});
    return;
  }
  push_timed(abs_time, event, token);
}

void Kernel::schedule_delta(Event* event) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    if (event->island_ != tls_eval_island->id) {
      throw_cross_island("notify_delta", event->name_, event->island_,
                         tls_eval_island->id);
    }
    tls_eval_island->delta_queue.push_back(event);
    return;
  }
  delta_queue_.push_back(event);
}

void Kernel::forget_event(Event* event) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    throw std::logic_error("destroying event '" + event->name_ +
                           "' during a parallel evaluation phase is "
                           "unsupported");
  }
  std::erase(delta_queue_, event);
  // While scanning for the dying event's entries, drop every stale
  // (cancelled/overridden) entry too: a cancel-heavy workload must not grow
  // the queue without bound. Entries are only ever stale forever — a
  // re-notify enqueues a fresh entry with a fresh token. The survivors keep
  // their (time, seq) keys, so re-heaping keeps the firing order.
  const std::size_t before = timed_queue_.size();
  std::erase_if(timed_queue_, [event](const TimedEntry& entry) {
    return entry.event == event || !live(entry);
  });
  if (timed_queue_.size() != before) {
    std::make_heap(timed_queue_.begin(), timed_queue_.end(), later);
  }
  std::erase(events_, event);
  const std::uint64_t id = event->entity_id_;
  std::erase_if(entity_unions_, [id](const auto& pair) {
    return pair.first == id || pair.second == id;
  });
  partition_dirty_ = true;
}

void Kernel::request_update(SignalBase* signal) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    if (signal->island_ != tls_eval_island->id) {
      throw_cross_island("signal write", signal->name_, signal->island_,
                         tls_eval_island->id);
    }
    if (signal->update_requested_) return;
    signal->update_requested_ = true;
    tls_eval_island->update_queue.push_back(signal);
    return;
  }
  if (signal->update_requested_) return;
  signal->update_requested_ = true;
  update_queue_.push_back(signal);
}

void Kernel::make_runnable(Process* process) {
  if (tls_eval_kernel == this && tls_eval_island != nullptr) {
    if (process->island_ != tls_eval_island->id) {
      throw_cross_island("immediate trigger", process->name_,
                         process->island_, tls_eval_island->id);
    }
    tls_eval_island->runnable.push_back(process);
    return;
  }
  runnable_.push_back(process);
}

void Kernel::initialize_new_processes() {
  // SystemC initialization: every process runs once at elaboration end,
  // unless it asked dont_initialize(). Processes created mid-simulation
  // (rare, but the cosim SyncAgent does it) are initialized lazily here too.
  if (uninitialized_.empty()) return;
  std::vector<Process*> batch;
  batch.swap(uninitialized_);
  for (Process* p : batch) {
    if (p->initialize_) {
      p->runnable_ = true;
      runnable_.push_back(p);
    }
  }
}

void Kernel::run_update_and_delta_phases() {
  // --- update phase ---
  // A change hook may write a signal: that update goes to the (swapped-in,
  // empty) queue and lands next delta cycle.
  update_scratch_.swap(update_queue_);
  for (SignalBase* s : update_scratch_) {
    s->update_requested_ = false;
    s->update();  // fires the change hooks itself, only on a real change
  }
  update_scratch_.clear();

  // --- delta notification phase ---
  delta_scratch_.swap(delta_queue_);
  for (Event* e : delta_scratch_) {
    // The event may have been cancelled or re-notified since queuing;
    // pending_ is authoritative.
    if (e->pending_ == Event::Pending::kDelta) e->trigger();
  }
  delta_scratch_.clear();
}

bool Kernel::do_delta_cycle() {
  if (parallel_lanes_ > 0) return do_delta_cycle_parallel();

  initialize_new_processes();
  // update_queue_ alone is enough to need a cycle: testbench code may write
  // a signal from outside any process (no runnable yet, but an update and
  // possibly a change notification must still happen).
  if (runnable_.empty() && delta_queue_.empty() && update_queue_.empty()) {
    return false;
  }

  // --- evaluation phase ---
  // Immediate notifications may append to runnable_ while we iterate, so
  // index-based iteration is required.
  in_evaluation_ = true;
  for (std::size_t i = 0; i < runnable_.size(); ++i) {
    Process* p = runnable_[i];
    p->runnable_ = false;
    if (p->terminated_) continue;
    p->execute();
  }
  runnable_.clear();
  in_evaluation_ = false;

  run_update_and_delta_phases();

  ++delta_count_;
  return true;
}

void Kernel::ensure_partition() {
  if (!partition_dirty_ && partition_ != nullptr) return;
  if (partition_ == nullptr) partition_ = std::make_unique<Partition>();
  partition_->build(processes_, events_, signals_, entity_unions_,
                    group_unions_);
  partition_dirty_ = false;
  ++repartitions_;
}

void Kernel::evaluate_island(Island& island) {
  tls_eval_island = &island;
  tls_eval_kernel = this;
  try {
    // Same in-phase semantics as the serial loop: immediate notifications
    // within the island append to its runnable vector while we iterate.
    for (std::size_t i = 0; i < island.runnable.size(); ++i) {
      Process* p = island.runnable[i];
      p->runnable_ = false;
      if (p->terminated_) continue;
      p->execute();
    }
  } catch (...) {
    island.error = std::current_exception();
  }
  island.runnable.clear();
  tls_eval_island = nullptr;
  tls_eval_kernel = nullptr;
}

void Kernel::commit_staged_entities(Island& island) {
  if (island.staged_events.empty() && island.staged_signals.empty() &&
      island.staged_processes.empty()) {
    return;
  }
  for (Event* e : island.staged_events) {
    e->entity_id_ = next_entity_id_++;
    events_.push_back(e);
  }
  island.staged_events.clear();
  for (SignalBase* s : island.staged_signals) {
    s->entity_id_ = next_entity_id_++;
    signals_.push_back(s);
  }
  island.staged_signals.clear();
  for (auto& p : island.staged_processes) {
    p->entity_id_ = next_entity_id_++;
    uninitialized_.push_back(p.get());
    processes_.push_back(std::move(p));
  }
  island.staged_processes.clear();
  partition_dirty_ = true;
}

bool Kernel::do_delta_cycle_parallel() {
  initialize_new_processes();
  if (runnable_.empty() && delta_queue_.empty() && update_queue_.empty()) {
    return false;
  }

  ensure_partition();
  if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(parallel_lanes_);
  auto& islands = partition_->islands();

  // Distribute the global runnable set onto the islands; within an island
  // the global-queue order (= the serial order restricted to the island) is
  // preserved.
  active_islands_.clear();
  for (Process* p : runnable_) {
    Island& island = islands[p->island_];
    if (island.runnable.empty()) active_islands_.push_back(&island);
    island.runnable.push_back(p);
  }
  runnable_.clear();

  // --- evaluation phase, fanned out over the worker pool ---
  if (!active_islands_.empty()) {
    in_evaluation_ = true;
    pool_->run(active_islands_.size(),
               [this](std::size_t i) { evaluate_island(*active_islands_[i]); });
    in_evaluation_ = false;
    for (Island& island : islands) {
      if (island.error == nullptr) continue;
      // Deterministic error propagation: the lowest island id wins. Clear
      // all staging first — the kernel stays destructible, though the model
      // state is undefined after a contract violation.
      std::exception_ptr error;
      for (Island& other : islands) {
        if (error == nullptr && other.error != nullptr) error = other.error;
        other.error = nullptr;
        other.runnable.clear();
        other.delta_queue.clear();
        other.update_queue.clear();
        other.staged_timed.clear();
        other.staged_events.clear();
        other.staged_signals.clear();
        other.staged_processes.clear();
      }
      std::rethrow_exception(error);
    }
  }

  // --- commit: merge per-island staging into the global queues in
  // canonical order (island id, then intra-island request order) ---
  for (Island& island : islands) {
    for (const Island::StagedTimed& st : island.staged_timed) {
      push_timed(st.time, st.event, st.token);
    }
    island.staged_timed.clear();
    for (SignalBase* s : island.update_queue) update_queue_.push_back(s);
    island.update_queue.clear();
    for (Event* e : island.delta_queue) delta_queue_.push_back(e);
    island.delta_queue.clear();
    commit_staged_entities(island);
  }

  // Phases 2 + 3 are single-threaded and reuse the serial code verbatim.
  run_update_and_delta_phases();

  ++delta_count_;
  ++parallel_deltas_;
  return true;
}

void Kernel::set_parallel(unsigned lanes) {
  if (lanes == parallel_lanes_) return;
  parallel_lanes_ = lanes;
  pool_.reset();  // re-created lazily with the new lane count
}

Kernel::ParallelStats Kernel::parallel_stats() const {
  ParallelStats stats;
  stats.islands = partition_ != nullptr ? partition_->islands().size() : 0;
  stats.parallel_deltas = parallel_deltas_;
  stats.repartitions = repartitions_;
  if (pool_ != nullptr) {
    for (const auto& lane : pool_->stats()) {
      stats.lanes.push_back({lane.busy_ns, lane.items});
    }
  }
  return stats;
}

std::size_t Kernel::island_count() {
  ensure_partition();
  return partition_->islands().size();
}

void Kernel::exhaust_deltas() {
  std::uint64_t deltas_this_step = 0;
  while (!stop_requested() && do_delta_cycle()) {
    if (delta_limit_ != 0 && ++deltas_this_step > delta_limit_) {
      throw std::runtime_error(
          "delta-cycle livelock: timestep " + std::to_string(now_) +
          " exceeded " + std::to_string(delta_limit_) + " delta cycles");
    }
  }
}

std::optional<SimTime> Kernel::next_event_time() const {
  // Lazily pop every stale entry on top of the first valid one: a stale
  // entry (cancelled or overridden notification) can never become valid
  // again, so dropping it here keeps cancel-heavy workloads bounded.
  while (!timed_queue_.empty()) {
    if (live(timed_queue_.front())) return timed_queue_.front().time;
    (void)pop_timed();
  }
  return std::nullopt;
}

bool Kernel::delta_pending() const {
  return !runnable_.empty() || !delta_queue_.empty() ||
         !update_queue_.empty() || !uninitialized_.empty();
}

void Kernel::arm_listened_clocks() {
  for (Clock* clock : clocks_) {
    if (!clock->armed_ && clock->listened()) clock->rearm();
  }
}

void Kernel::advance_to(SimTime t) {
  for (Clock* clock : clocks_) {
    if (!clock->armed_) clock->visit(t);
  }
  now_ = t;
}

std::optional<SimTime> Kernel::next_activity_time() {
  if (delta_pending()) return now_;
  arm_listened_clocks();
  return next_event_time();
}

bool Kernel::idle() const {
  return !delta_pending() && !next_event_time().has_value() &&
         std::none_of(clocks_.begin(), clocks_.end(), [](const Clock* c) {
           return !c->armed_ && c->listened();
         });
}

void Kernel::run_until(SimTime t) {
  assert(t >= now_);
  stop_requested_.store(false, std::memory_order_relaxed);
  exhaust_deltas();
  while (!stop_requested()) {
    // Advance to the next valid timed notification at or before t. Clocks
    // that gained a listener re-arm first, so their next edge is a
    // candidate.
    arm_listened_clocks();
    const std::optional<SimTime> next = next_event_time();
    if (!next || *next > t) break;
    if (*next > now_) advance_to(*next);
    // Fire every valid notification at this time point. A trigger only
    // marks processes runnable, so nothing is scheduled meanwhile.
    while (!timed_queue_.empty() && timed_queue_.front().time == now_) {
      const TimedEntry entry = pop_timed();
      if (live(entry)) entry.event->trigger();
    }
    exhaust_deltas();
  }
  if (!stop_requested() && now_ < t) {
    now_ = t;
    for (Clock* clock : clocks_) {
      if (!clock->armed_) clock->settle(t);
    }
  }
}

void Kernel::run_to_completion() {
  stop_requested_.store(false, std::memory_order_relaxed);
  exhaust_deltas();
  while (!stop_requested()) {
    arm_listened_clocks();
    const std::optional<SimTime> next = next_event_time();
    if (!next) break;
    run_until(*next);
    if (stop_requested()) break;
    exhaust_deltas();
  }
  kLog.debug("run_to_completion: t={} deltas={}", now_, delta_count_);
}

}  // namespace vhp::sim
