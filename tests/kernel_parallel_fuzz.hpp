// Differential fuzz harness for the deterministic parallel kernel.
//
// Builds seeded random netlists of FuzzModules — mixed timed / delta /
// immediate notifications, cross-island signal fanout, dynamic waits and
// mid-simulation process/signal creation (the cosim SyncAgent pattern) —
// and runs the SAME netlist under the serial kernel and under
// set_parallel(N) for several N. The parallel contract (islands communicate
// only through delta-delayed signals) promises bit-identical observable
// state, so the oracle is exact equality of:
//   * every signal's final value (construction order, including signals
//     created mid-simulation),
//   * the kernel's delta_count() and virtual time,
//   * the canonicalized value-change trace (time, delta index, signal name,
//     value) — canonicalized because WITHIN one delta cycle the update-hook
//     call order across islands is the commit order, not the serial
//     interleaving; the set of changes per delta is identical, so a stable
//     sort by (time, delta, name) makes the traces comparable byte for byte.
//
// Determinism rules the generator obeys (the contract's fine print):
//   * processes keep PRIVATE state — cross-process communication goes
//     through signals (single driver each) or own-module events;
//   * each event is notified by exactly ONE process (pending-state
//     transitions and immediate re-triggering are order-sensitive when two
//     writers race on one event, even in the serial kernel);
//   * immediate notify() targets a listener that is sensitive to nothing
//     else, so its execution count per evaluation phase is independent of
//     intra-phase ordering.
// Runtime decisions come from per-process LCG streams (advanced only by
// that process's executions), never from a shared generator, so the
// decision sequence is identical in every run of the same seed.
//
// A netlist also carries a clock layer unless FuzzConfig::clocks is off
// (FuzzClocks): one to three sim::Clocks that are variously
// edge-listened, read by processes, dynamically waited on mid-run,
// hooked mid-run or not listened at all.
// It draws from a stream of its own, so a seed's FuzzModule netlist is the
// one it was before clocks were added. FuzzConfig::force_eager_clocks adds
// a no-op listener to every edge, which keeps every clock on its generator
// path: run against the as-built netlist, that is the lazy-against-eager
// differential (first_difference() below is its oracle).
#pragma once

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "vhp/common/rng.hpp"
#include "vhp/common/types.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::sim {

struct FuzzConfig {
  u64 seed = 1;
  std::size_t n_modules = 6;
  /// Include a thread process per module (fiber-based dynamic waits).
  /// Off in the method-only twin (kernel_parallel_tsan_test.cpp).
  bool threads = true;
  /// Allow tickers to create processes + signals mid-simulation.
  bool spawners = true;
  SimTime run_time = 800;
  /// Add the clock layer (FuzzClocks and its sampler).
  bool clocks = true;
  /// Evaluate every clock edge: a no-op method sensitive to each clock's
  /// posedge and negedge keeps every clock listened.
  bool force_eager_clocks = false;
};

/// (time, value) of every clock read or change a clock-layer process or
/// hook made.
using FuzzLog = std::vector<std::pair<SimTime, u64>>;

struct FuzzTraceEntry {
  SimTime time;
  u64 delta;
  std::string name;
  u64 value;

  [[nodiscard]] auto key() const { return std::tie(time, delta, name); }
  bool operator==(const FuzzTraceEntry& other) const {
    return time == other.time && delta == other.delta &&
           name == other.name && value == other.value;
  }
};

struct FuzzResult {
  std::vector<u64> finals;  // all non-clock signals, creation order
  u64 delta_count = 0;
  SimTime end_time = 0;
  std::size_t islands = 0;
  std::size_t spawned = 0;
  u64 ticks = 0;  // ticker runs, summed over the FuzzModules
  std::vector<FuzzTraceEntry> trace;  // canonicalized
  std::vector<FuzzLog> logs;          // one per clock-layer observer
};

/// Hooks run in the single-threaded update phase, so the shared trace
/// vector needs no locking; delta_count() is the index of the delta cycle
/// being committed (incremented after the phases).
inline void trace_changes(Signal<u64>& sig,
                          std::vector<FuzzTraceEntry>* trace) {
  Kernel& kernel = sig.kernel();
  sig.add_change_hook([trace, &kernel, &sig](SimTime t) {
    trace->push_back({t, kernel.delta_count(), sig.name(), sig.read()});
  });
}

inline u64 fuzz_mix(u64 acc, u64 v) {
  acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

/// Per-process deterministic decision stream.
inline u64 fuzz_lcg(u64& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

class FuzzModule : public Module {
 public:
  FuzzModule(Kernel& kernel, std::size_t index, const FuzzConfig& cfg,
             Rng& build_rng, std::vector<FuzzTraceEntry>* trace)
      : Module(kernel, "fuzz" + std::to_string(index)),
        cfg_(cfg),
        trace_(trace),
        tick_(kernel, qualify("tick")),
        aux_(kernel, qualify("aux")),
        chain_(kernel, qualify("chain")),
        r_aux_(kernel, qualify("r_aux")) {
    for (std::size_t s = 0; s < kLcgSlots; ++s) lcg_[s] = build_rng.next();
    for (std::size_t s = 0; s < 4; ++s) {
      signals_.push_back(&traced_signal("out" + std::to_string(s)));
    }
    // The ticker drives everything: re-arms its own timed event (and runs
    // on it), mixes foreign signal values into private state, and (per its
    // LCG stream) exercises every notification kind on the events it owns.
    method("ticker", [this] { ticker(); }).sensitive(tick_);
    // The immediate-notification listener: sensitive ONLY to chain_.
    method("listener", [this] { listener(); }).sensitive(chain_)
        .dont_initialize();
  }

  /// Wires the cross-island fanout: the reactor is statically sensitive to
  /// 2-3 foreign output signals (the partition's cut edges) plus the
  /// module-own aux_ event, and the optional thread does dynamic waits.
  void connect(const std::vector<FuzzModule*>& all, Rng& build_rng) {
    Process& reactor =
        method("reactor", [this] { react(); }).dont_initialize();
    reactor.sensitive(aux_);
    const std::size_t n_foreign = 2 + build_rng.below(2);
    for (std::size_t i = 0; i < n_foreign; ++i) {
      FuzzModule& m = *all[build_rng.below(all.size())];
      Signal<u64>& s = *m.signals_[build_rng.below(m.signals_.size())];
      reactor.sensitive(s.value_changed_event());
      foreign_.push_back(&s);
    }
    if (cfg_.threads) {
      thread("worker", [this] { worker(); });
    }
  }

  [[nodiscard]] const std::vector<Signal<u64>*>& signals() const {
    return signals_;
  }
  [[nodiscard]] std::size_t spawned() const { return spawned_; }
  /// Ticker runs so far: the base netlist's own activity.
  [[nodiscard]] u64 ticks() const { return ticks_; }

 private:
  static constexpr std::size_t kLcgSlots = 5;
  static constexpr std::size_t kMaxChildren = 3;

  /// Per-process deterministic decision stream (slot = process).
  u64 lcg(std::size_t slot) { return fuzz_lcg(lcg_[slot]); }

  static u64 mix(u64 acc, u64 v) { return fuzz_mix(acc, v); }

  Signal<u64>& traced_signal(const std::string& name) {
    Signal<u64>& sig = make_signal<u64>(name);
    trace_changes(sig, trace_);
    return sig;
  }

  u64 read_foreign(std::size_t slot) {
    u64 acc = 0;
    for (const Signal<u64>* s : foreign_) acc = mix(acc, s->read());
    return mix(acc, lcg(slot));
  }

  void ticker() {
    ++ticks_;
    tick_.notify_at(1 + lcg(0) % 9);
    acc_[0] = mix(acc_[0], read_foreign(0));
    switch (lcg(0) % 8) {
      case 0: aux_.notify_delta(); break;
      case 1: aux_.notify_at(1 + lcg(0) % 7); break;
      case 2: aux_.cancel(); break;
      case 3: chain_.notify(); break;  // immediate, in-phase
      case 4:
        if (cfg_.spawners && spawned_ < kMaxChildren) spawn_child();
        break;
      default: break;
    }
    if (lcg(0) % 2 == 0) signals_[0]->write(acc_[0]);
  }

  void react() {
    acc_[1] = mix(acc_[1], read_foreign(1));
    if (lcg(1) % 3 != 0) signals_[1]->write(acc_[1]);
    if (lcg(1) % 4 == 0) r_aux_.notify_delta();
    if (lcg(1) % 5 == 0) r_aux_.notify_at(2 + lcg(1) % 5);
  }

  void listener() {
    acc_[2] = mix(acc_[2], lcg(2));
    signals_[2]->write(acc_[2]);
  }

  void worker() {
    for (;;) {
      switch (lcg(3) % 3) {
        case 0: wait(1 + lcg(3) % 11); break;
        case 1:
          (void)wait_with_timeout(r_aux_, 1 + lcg(3) % 6);
          break;
        default:
          (void)wait_any({&r_aux_, &tick_});
          break;
      }
      acc_[3] = mix(acc_[3], read_foreign(3));
      if (lcg(3) % 2 == 0) signals_[3]->write(acc_[3]);
    }
  }

  /// Mid-simulation structural growth (the cosim SyncAgent pattern): a new
  /// method AND a new signal created from inside an evaluation phase. Under
  /// the parallel kernel both are staged into the executing island and
  /// committed with deterministic entity ids after the barrier.
  void spawn_child() {
    const std::size_t id = spawned_++;
    Signal<u64>& out = traced_signal("child" + std::to_string(id) + ".out");
    signals_.push_back(&out);
    const std::size_t slot = 4;
    method("child" + std::to_string(id),
           [this, &out, slot] {
             acc_[slot] = mix(acc_[slot], read_foreign(slot));
             out.write(acc_[slot]);
           })
        .sensitive(aux_);
  }

  const FuzzConfig& cfg_;
  std::vector<FuzzTraceEntry>* trace_;
  Event tick_;
  Event aux_;    // notified by the ticker only
  Event chain_;  // immediate-notify target, listener-only sensitivity
  Event r_aux_;  // notified by the reactor only; thread waits on it
  std::vector<Signal<u64>*> signals_;
  std::vector<Signal<u64>*> foreign_;
  u64 lcg_[kLcgSlots] = {};
  u64 acc_[kLcgSlots] = {};
  std::size_t spawned_ = 0;
  u64 ticks_ = 0;
};

/// The clock layer: one to three clocks (periods 2-7, start offsets 0-5),
/// each with one seeded observer kind:
///   kNone  nothing listens, the clock stays lazy;
///   kEdge  a method statically sensitive to its posedge, negedge or
///          value-changed event;
///   kLate  a method with posedge sensitivity, spawned mid-run;
///   kWait  a thread that now and then waits dynamically for the posedge
///          (kNone when the config has no threads);
///   kHook  a change hook, added mid-run.
/// The observers share the clocks' module and so their island: a spawned
/// sensitivity, a dynamic wait and a hook all mutate the clock's events.
/// Observers log every read and fold it into a traced signal of their own.
class FuzzClocks : public Module {
 public:
  enum Kind : u64 { kNone, kEdge, kLate, kWait, kHook, kKinds };

  FuzzClocks(Kernel& kernel, const FuzzConfig& cfg, Rng& rng,
             std::vector<FuzzTraceEntry>* trace)
      : Module(kernel, "clocks"), step_(kernel, "clocks.step") {
    const AffinityScope scope{*this};
    const std::size_t n = 1 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime period = rng.range(2, 7);
      const SimTime start = rng.below(6);
      clocks_.push_back(std::make_unique<Clock>(
          kernel, qualify("clk" + std::to_string(i)), period, start));
      auto kind = static_cast<Kind>(rng.below(kKinds));
      if (kind == kWait && !cfg.threads) kind = kNone;
      Observer& obs = observers_.emplace_back();
      obs.kind = kind;
      obs.edge = rng.below(3);
      obs.lcg = rng.next();
      obs.out = &make_signal<u64>("obs" + std::to_string(i));
      trace_changes(*obs.out, trace);
    }
    control_lcg_ = rng.next();
    for (std::size_t i = 0; i < n; ++i) {
      if (observers_[i].kind == kEdge) {
        Clock& clk = *clocks_[i];
        Event& ev = observers_[i].edge == 0   ? clk.posedge_event()
                    : observers_[i].edge == 1 ? clk.negedge_event()
                                              : clk.value_changed_event();
        method("edge" + std::to_string(i), [this, i] { observe(i); })
            .sensitive(ev)
            .dont_initialize();
      } else if (observers_[i].kind == kWait) {
        thread("wait" + std::to_string(i), [this, i] { wait_loop(i); });
      }
    }
    // Attaches the late observers (spawned methods, hooks) at seeded times.
    method("control", [this] { control(); }).sensitive(step_);
    if (cfg.force_eager_clocks) {
      Process& eager = method("eager", [] {}).dont_initialize();
      for (auto& clk : clocks_) {
        eager.sensitive(clk->posedge_event()).sensitive(clk->negedge_event());
      }
    }
  }

  [[nodiscard]] std::vector<Clock*> clocks() const {
    std::vector<Clock*> out;
    for (const auto& clk : clocks_) out.push_back(clk.get());
    return out;
  }
  [[nodiscard]] std::vector<const Signal<u64>*> signals() const {
    std::vector<const Signal<u64>*> out;
    for (const Observer& obs : observers_) out.push_back(obs.out);
    return out;
  }
  [[nodiscard]] std::vector<FuzzLog> logs() const {
    std::vector<FuzzLog> out;
    for (const Observer& obs : observers_) out.push_back(obs.log);
    return out;
  }

 private:
  struct Observer {
    Kind kind = kNone;
    u64 edge = 0;  // kEdge: 0 posedge, 1 negedge, 2 value-changed
    u64 lcg = 0;
    u64 acc = 0;
    bool attached = false;
    Signal<u64>* out = nullptr;
    FuzzLog log;
  };

  void observe(std::size_t i) {
    Observer& obs = observers_[i];
    const u64 level = clocks_[i]->read() ? 1 : 0;
    obs.log.emplace_back(kernel_.now(), level);
    obs.acc = fuzz_mix(obs.acc, (kernel_.now() << 1) | level);
    obs.out->write(obs.acc);
  }

  void wait_loop(std::size_t i) {
    Observer& obs = observers_[i];
    for (;;) {
      wait(1 + fuzz_lcg(obs.lcg) % 13);
      if (fuzz_lcg(obs.lcg) % 2 == 0) {
        wait(clocks_[i]->posedge_event());
        observe(i);
      }
    }
  }

  void control() {
    step_.notify_at(1 + fuzz_lcg(control_lcg_) % 11);
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      Observer& obs = observers_[i];
      if (obs.attached || fuzz_lcg(control_lcg_) % 16 != 0) continue;
      if (obs.kind == kLate) {
        obs.attached = true;
        method("late" + std::to_string(i), [this, i] { observe(i); })
            .sensitive(clocks_[i]->posedge_event())
            .dont_initialize();
      } else if (obs.kind == kHook) {
        obs.attached = true;
        Clock& clk = *clocks_[i];
        clk.add_change_hook([&obs, &clk](SimTime t) {
          obs.log.emplace_back(t, clk.read() ? 1 : 0);
        });
      }
    }
  }

  Event step_;
  std::vector<std::unique_ptr<Clock>> clocks_;
  std::vector<Observer> observers_;  // sized at construction, never grown
  u64 control_lcg_ = 0;
};

/// Reads every clock at seeded times from an island of its own: in the
/// first delta cycle of the time it wakes at (the pre-edge level when an
/// edge falls there) and again one delta cycle later.
class FuzzClockSampler : public Module {
 public:
  FuzzClockSampler(Kernel& kernel, std::vector<Clock*> clocks, u64 seed,
                   std::vector<FuzzTraceEntry>* trace)
      : Module(kernel, "sampler"),
        clocks_(std::move(clocks)),
        lcg_(seed),
        tick_(kernel, "sampler.tick"),
        again_(kernel, "sampler.again"),
        first_(make_signal<u64>("first")),
        second_(make_signal<u64>("second")) {
    trace_changes(first_, trace);
    trace_changes(second_, trace);
    method("sample", [this] {
      tick_.notify_at(1 + fuzz_lcg(lcg_) % 9);
      again_.notify_delta();
      read_into(first_, first_log_);
    }).sensitive(tick_);
    method("resample", [this] { read_into(second_, second_log_); })
        .sensitive(again_)
        .dont_initialize();
  }

  [[nodiscard]] std::vector<const Signal<u64>*> signals() const {
    return {&first_, &second_};
  }
  [[nodiscard]] std::vector<FuzzLog> logs() const {
    return {first_log_, second_log_};
  }

 private:
  void read_into(Signal<u64>& out, FuzzLog& log) {
    u64 levels = 0;
    for (std::size_t i = 0; i < clocks_.size(); ++i) {
      levels |= u64{clocks_[i]->read()} << i;
    }
    log.emplace_back(kernel_.now(), levels);
    out.write(fuzz_mix(out.read(), (kernel_.now() << 3) | levels));
  }

  std::vector<Clock*> clocks_;
  u64 lcg_;
  Event tick_;
  Event again_;
  Signal<u64>& first_;
  Signal<u64>& second_;
  FuzzLog first_log_;
  FuzzLog second_log_;
};

/// The seeded netlist: the FuzzModules, then the clock layer drawn from
/// its own stream.
struct FuzzNet {
  explicit FuzzNet(const FuzzConfig& cfg) {
    // Hang guard: a supercritical change cascade would livelock
    // identically in every mode; better a loud deterministic throw than a
    // stuck test.
    kernel.set_delta_limit(1u << 20);
    Rng build_rng{cfg.seed};
    for (std::size_t i = 0; i < cfg.n_modules; ++i) {
      modules.push_back(
          std::make_unique<FuzzModule>(kernel, i, cfg, build_rng, &trace));
      raw.push_back(modules.back().get());
    }
    for (FuzzModule* m : raw) m->connect(raw, build_rng);
    if (!cfg.clocks) return;
    Rng clock_rng{cfg.seed ^ 0xc10cc10cc10cc10cULL};
    clocks = std::make_unique<FuzzClocks>(kernel, cfg, clock_rng, &trace);
    sampler = std::make_unique<FuzzClockSampler>(kernel, clocks->clocks(),
                                                 clock_rng.next(), &trace);
  }

  [[nodiscard]] std::vector<u64> finals() const {
    std::vector<u64> out;
    for (const FuzzModule* m : raw) {
      for (const Signal<u64>* s : m->signals()) out.push_back(s->read());
    }
    if (clocks == nullptr) return out;
    for (const Signal<u64>* s : clocks->signals()) out.push_back(s->read());
    for (const Signal<u64>* s : sampler->signals()) out.push_back(s->read());
    return out;
  }

  FuzzResult result() {
    FuzzResult result;
    result.finals = finals();
    for (const FuzzModule* m : raw) {
      result.spawned += m->spawned();
      result.ticks += m->ticks();
    }
    result.delta_count = kernel.delta_count();
    result.end_time = kernel.now();
    result.islands = kernel.island_count();
    std::stable_sort(trace.begin(), trace.end(),
                     [](const FuzzTraceEntry& a, const FuzzTraceEntry& b) {
                       return a.key() < b.key();
                     });
    result.trace = trace;
    if (clocks == nullptr) return result;
    result.logs = clocks->logs();
    for (FuzzLog& log : sampler->logs()) result.logs.push_back(log);
    return result;
  }

  Kernel kernel;
  std::vector<FuzzTraceEntry> trace;
  std::vector<std::unique_ptr<FuzzModule>> modules;
  std::vector<FuzzModule*> raw;
  std::unique_ptr<FuzzClocks> clocks;
  std::unique_ptr<FuzzClockSampler> sampler;
};

/// Builds the seeded netlist and runs it to cfg.run_time under `lanes`
/// evaluation lanes (0 = serial legacy path).
inline FuzzResult run_fuzz_net(const FuzzConfig& cfg, unsigned lanes) {
  FuzzNet net{cfg};
  if (lanes > 0) net.kernel.set_parallel(lanes);
  // Run in two legs so the harness also covers re-entry (partition reuse
  // across run_until calls).
  net.kernel.run_until(cfg.run_time / 2);
  net.kernel.run_until(cfg.run_time);
  return net.result();
}

/// The lazy-against-eager oracle: "" when two runs observed the same, else
/// the first difference. Compared: every non-clock signal's final value,
/// the end time, every observer log and the value-change trace with its
/// delta index replaced by the rank among its time step's delta cycles
/// that changed a traced signal. Not compared: the kernel's delta count
/// (an evaluated edge costs delta cycles of its own) and island count (the
/// forcing listener is one more process).
inline std::string first_difference(const FuzzResult& a, const FuzzResult& b) {
  std::ostringstream out;
  if (a.finals != b.finals) return "final signal values differ";
  if (a.end_time != b.end_time) return "end times differ";
  if (a.logs.size() != b.logs.size()) return "log counts differ";
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    const FuzzLog& la = a.logs[i];
    const FuzzLog& lb = b.logs[i];
    for (std::size_t j = 0; j < std::min(la.size(), lb.size()); ++j) {
      if (la[j] != lb[j]) {
        out << "log " << i << " entry " << j << ": t=" << la[j].first
            << " v=" << la[j].second << " vs t=" << lb[j].first
            << " v=" << lb[j].second;
        return out.str();
      }
    }
    if (la.size() != lb.size()) {
      out << "log " << i << " has " << la.size() << " vs " << lb.size()
          << " entries";
      return out.str();
    }
  }
  const auto ranked = [](const std::vector<FuzzTraceEntry>& trace) {
    std::vector<std::tuple<SimTime, u64, std::string, u64>> entries;
    u64 rank = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const FuzzTraceEntry& e = trace[i];
      if (i > 0 && trace[i - 1].time == e.time) {
        if (trace[i - 1].delta != e.delta) ++rank;
      } else {
        rank = 0;
      }
      entries.emplace_back(e.time, rank, e.name, e.value);
    }
    return entries;
  };
  const auto ta = ranked(a.trace);
  const auto tb = ranked(b.trace);
  for (std::size_t i = 0; i < std::min(ta.size(), tb.size()); ++i) {
    if (ta[i] != tb[i]) {
      out << "trace entry " << i << ": t=" << std::get<0>(ta[i]) << " '"
          << std::get<2>(ta[i]) << "' vs t=" << std::get<0>(tb[i]) << " '"
          << std::get<2>(tb[i]) << "'";
      return out.str();
    }
  }
  if (ta.size() != tb.size()) {
    out << "trace has " << ta.size() << " vs " << tb.size() << " entries";
    return out.str();
  }
  return "";
}

}  // namespace vhp::sim
