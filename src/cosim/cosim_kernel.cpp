#include "vhp/cosim/cosim_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "vhp/common/format.hpp"

namespace vhp::cosim {

Status CosimConfig::validate() const {
  if (timed) {
    if (Status s = sync.validate(); !s.ok()) return s;
  }
  if (clock_period < 2) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("CosimConfig: clock_period must be >= 2 (a "
                            "high and a low phase of at least one time "
                            "unit each), got {}",
                            clock_period)};
  }
  if (parallel_workers > 256) {
    return Status{StatusCode::kInvalidArgument,
                  "CosimConfig: parallel_workers must be <= 256"};
  }
  return Status::Ok();
}

namespace {

std::vector<MasterLink> one_link(net::CosimLink link) {
  std::vector<MasterLink> links;
  links.push_back(MasterLink{"", std::move(link)});
  return links;
}

}  // namespace

CosimKernel::CosimKernel(net::CosimLink link, CosimConfig config,
                         obs::Hub* hub)
    : CosimKernel(one_link(std::move(link)), std::move(config), hub) {}

CosimKernel::CosimKernel(std::vector<MasterLink> links, CosimConfig config,
                         obs::Hub* hub)
    : config_(std::move(config)),
      config_status_(config_.validate()),
      owned_hub_(hub != nullptr ? nullptr : new obs::Hub()),
      hub_(hub != nullptr ? hub : owned_hub_.get()),
      master_spans_(hub_->timeline().sink("master")),
      // Guard against a period sim::Clock refuses; the invalid config is
      // surfaced by run_cycles()/handshake().
      clock_(kernel_, "clk",
             config_.clock_period < 2 ? sim::SimTime{2}
                                      : config_.clock_period),
      service_([this] { return service_links(); }) {
  if (!config_status_.ok()) {
    log_.warn("invalid config: {}", config_status_.to_string());
  }
  obs::MetricsRegistry& metrics = hub_->metrics();
  std::vector<net::Channel*> clocks;
  std::vector<std::string> names;
  slots_.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    names.push_back(node_name(links[i].name, i));
    const std::string prefix = "fabric." + names.back() + ".";
    clocks.push_back(links[i].link.clock.get());
    slots_.push_back(Slot{std::move(links[i].link), DriverRegistry{}, {},
                          metrics.counter(prefix + "data_writes"),
                          metrics.counter(prefix + "data_reads"),
                          metrics.counter(prefix + "interrupts_sent")});
  }
  coordinator_ = std::make_unique<SyncCoordinator>(
      config_.sync, std::move(clocks), std::move(names), hub_);
  if (config_status_.ok() && config_.parallel_workers > 0) {
    kernel_.set_parallel(static_cast<unsigned>(config_.parallel_workers));
  }
}

CosimKernel::~CosimKernel() { finish(); }

CosimKernel::Slot& CosimKernel::slot_at(std::size_t link) {
  if (link >= slots_.size()) {
    throw std::out_of_range(
        strformat("cosim: link {} of {}", link, slots_.size()));
  }
  return slots_[link];
}

DriverRegistry& CosimKernel::registry(std::size_t link) {
  return slot_at(link).registry;
}

void CosimKernel::watch_interrupt(std::size_t link, sim::BoolSignal& line,
                                  u32 vector) {
  slot_at(link).watches.push_back(IntWatch{&line, vector, line.read()});
  // The watch samples the level at cycle boundaries, so every change must
  // be simulated: the hook makes the line listened, which keeps a clock
  // used as an interrupt line on its generator path (an unlistened clock
  // changes level with no kernel activity, and the quiet-cycle jump would
  // step over its edges).
  line.add_change_hook([](sim::SimTime) {});
}

CosimKernel::Stats CosimKernel::stats() const {
  Stats stats;
  stats.syncs = coordinator_->ticks_sent();
  stats.acks_received = coordinator_->acks_received() - boot_acks_;
  for (const Slot& slot : slots_) {
    stats.data_writes += slot.data_writes.value();
    stats.data_reads += slot.data_reads.value();
    stats.interrupts_sent += slot.interrupts_sent.value();
  }
  return stats;
}

// Zero cycles: just the boot handshake, waited for like any other ack.
Status CosimKernel::handshake() { return run_cycles(0); }

Status CosimKernel::service_links() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!coordinator_->alive(i)) continue;
    Slot& slot = slots_[i];
    for (;;) {
      auto msg = net::try_recv_msg(*slot.link.data);
      if (!msg.ok()) {
        // A vanished peer mid-run is a session error; surface it.
        return Status{msg.status().code(),
                      strformat("cosim: DATA channel of {} failed: {}",
                                coordinator_->name(i),
                                msg.status().message())};
      }
      if (!msg.value().has_value()) break;
      Status s = handle_data_msg(i, *msg.value());
      if (!s.ok()) {
        return Status{s.code(), strformat("cosim: {}: {}",
                                          coordinator_->name(i), s.message())};
      }
    }
  }
  return Status::Ok();
}

Status CosimKernel::handle_data_msg(std::size_t i, const net::Message& msg) {
  Slot& slot = slots_[i];
  if (std::holds_alternative<net::DataWrite>(msg)) {
    slot.data_writes.inc();
    coordinator_->note_data_served(i);
  } else if (std::holds_alternative<net::DataReadReq>(msg)) {
    slot.data_reads.inc();
    coordinator_->note_data_served(i);
  }
  Status s = serve_data_message(slot.registry, *slot.link.data, msg);
  if (s.ok() && std::holds_alternative<net::DataReadReq>(msg)) {
    // The board thread is blocked on this response mid-quantum; a batched
    // DATA channel must not hold it to the next CLOCK boundary (no-op on
    // unbatched links).
    s = slot.link.data->flush();
  }
  return s;
}

Status CosimKernel::sample_interrupts() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!coordinator_->alive(i)) continue;
    Slot& slot = slots_[i];
    for (IntWatch& watch : slot.watches) {
      const bool level = watch.line->read();
      if (level && !watch.prev) {
        slot.interrupts_sent.inc();
        Status s = net::send_msg(*slot.link.intr, net::IntRaise{watch.vector});
        if (!s.ok()) {
          return Status{s.code(),
                        strformat("cosim: INT_RAISE to {} failed: {}",
                                  coordinator_->name(i), s.message())};
        }
      }
      watch.prev = level;
    }
  }
  return Status::Ok();
}

Status CosimKernel::barrier_step(bool* done) {
  // The coordinator times the barrier (kBarrier span, sync-RTT and
  // barrier-wait histograms) from its scatter to its last ack.
  if (!coordinator_->gathering()) {
    // Batching flush rule (DESIGN.md §14): this quantum's DATA and INT
    // frames must cross before the grant they belong to (no-op on
    // unbatched links).
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!coordinator_->alive(i)) continue;
      Slot& slot = slots_[i];
      Status s = slot.link.data->flush();
      if (s.ok()) s = slot.link.intr->flush();
      if (!s.ok()) {
        return Status{s.code(), strformat("cosim: flush to {} failed: {}",
                                          coordinator_->name(i),
                                          s.message())};
      }
    }
  }
  return coordinator_->step_barrier(cycle_, service_, done);
}

Status CosimKernel::run_cycles(u64 cycles) {
  u64 ran = 0;
  bool blocked = false;
  Status s = pump(cycles, &ran, &blocked);
  while (s.ok() && blocked) {
    cycles -= ran;
    // A board owes a TIME_ACK (or DATA its ack counts): wait on the ports
    // it answers on, re-running the gather. The policy's watchdog, which
    // the gather applies, bounds the wait.
    std::vector<net::Channel*> ports;
    ports.reserve(2 * slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!coordinator_->alive(i)) continue;
      ports.push_back(slots_[i].link.data.get());
      ports.push_back(slots_[i].link.clock.get());
    }
    (void)net::wait_until(
        [&] {
          s = pump(0, &ran, &blocked);
          return !s.ok() || !blocked;
        },
        ports);
    if (s.ok()) s = pump(cycles, &ran, &blocked);
  }
  return s;
}

Status CosimKernel::pump(u64 max_cycles, u64* ran, bool* blocked) {
  const u64 start = cycle_;
  *blocked = false;
  Status s = advance(start + max_cycles, blocked);
  *ran = cycle_ - start;
  // Published only when the parallel kernel is armed, so serial runs keep
  // their exact metric key set.
  if (*ran > 0 && config_.parallel_workers > 0) publish_parallel_stats();
  return s;
}

void CosimKernel::publish_parallel_stats() {
  const auto ps = kernel_.parallel_stats();
  obs::MetricsRegistry& m = hub_->metrics();
  m.gauge("sim.islands").set(static_cast<i64>(ps.islands));
  m.gauge("sim.parallel_deltas").set(static_cast<i64>(ps.parallel_deltas));
  m.gauge("sim.repartitions").set(static_cast<i64>(ps.repartitions));
  for (std::size_t i = 0; i < ps.lanes.size(); ++i) {
    const auto tag = strformat("sim.worker{}", i);
    m.gauge(tag + ".islands_run")
        .set(static_cast<i64>(ps.lanes[i].islands_run));
    m.gauge(tag + ".busy_ns").set(static_cast<i64>(ps.lanes[i].busy_ns));
  }
}

Status CosimKernel::advance(u64 until, bool* blocked) {
  if (!config_status_.ok()) return config_status_;
  const bool timed = config_.timed;
  if (timed && !coordinator_->handshaken()) {
    // The boards report their initial freeze with a TIME_ACK; DATA a board
    // sent before it is served by the handshake's fence.
    bool done = false;
    Status s = coordinator_->step_handshake(service_, &done);
    if (!s.ok()) return s;
    if (!done) {
      *blocked = true;
      return Status::Ok();
    }
    boot_acks_ = coordinator_->acks_received();
  }
  // Armed, each stretch of cycles between two barriers (untimed: the whole
  // call) is one kSimulate span: two clock reads per stretch, none per
  // kernel run.
  const obs::Timeline& timeline = hub_->timeline();
  const bool armed = timeline.enabled();
  u64 stretch_from = cycle_;
  u64 stretch_start_ns = 0;
  const auto end_stretch = [&] {
    if (armed && cycle_ > stretch_from) {
      master_spans_.record({coordinator_->rounds(), 0,
                            obs::SpanPhase::kSimulate, stretch_start_ns,
                            timeline.now_ns(), stretch_from});
    }
    stretch_from = cycle_;
  };
  for (;;) {
    // A barrier due at this cycle (or still gathering from the previous
    // call) completes before the next cycle runs. The check sits above the
    // exit, so pump(N) leaves the same protocol state as run_cycles(N)
    // whenever the acks are in: no outstanding tick.
    if (timed && (coordinator_->gathering() ||
                  coordinator_->next_due() == cycle_)) {
      end_stretch();
      bool done = false;
      Status s = barrier_step(&done);
      if (!s.ok()) return s;
      if (!done) {
        *blocked = true;
        return Status::Ok();
      }
    }
    if (cycle_ >= until) {
      end_stretch();
      return Status::Ok();
    }
    if (armed && cycle_ == stretch_from) stretch_start_ns = timeline.now_ns();
    // Timed, the boards are frozen until the next barrier, whose fence
    // serves whatever they sent; only a free-running board needs the
    // per-cycle poll.
    if (!timed) {
      Status s = service_links();
      if (!s.ok()) return s;
    }
    // Cycles in which the kernel has nothing to do are jumped over in the
    // same run() as the next cycle that has: their interrupt samples would
    // repeat the previous one, as no level changes without kernel activity.
    const u64 cycles = 1 + (timed ? quiet_cycles(until) : 0);
    kernel_.run(cycles * config_.clock_period);
    cycle_ += cycles;
    Status s = sample_interrupts();
    if (!s.ok()) return s;
  }
}

u64 CosimKernel::quiet_cycles(u64 until) {
  const u64 stop = std::min(until, coordinator_->next_due());
  if (stop <= cycle_ + 1) return 0;
  u64 quiet = stop - cycle_ - 1;
  const std::optional<sim::SimTime> next = kernel_.next_activity_time();
  if (next.has_value()) {
    const sim::SimTime now = kernel_.now();
    if (*next <= now) return 0;
    // Cycle j (1-based) runs (now + (j-1)*period, now + j*period]; it is
    // quiet while that interval ends before `next`.
    quiet = std::min<u64>(quiet, (*next - now - 1) / config_.clock_period);
  }
  return quiet;
}

void CosimKernel::finish() {
  if (finished_) return;
  finished_ = true;
  // Push out anything a batched link still holds — a board may need the
  // last DATA/INT frames to make progress before it can see the SHUTDOWN.
  for (const Slot& slot : slots_) {
    if (slot.link.data) (void)slot.link.data->flush();
    if (slot.link.intr) (void)slot.link.intr->flush();
  }
  coordinator_->shutdown();
  // An evicted board may still be blocked on its CLOCK channel: try a
  // best-effort SHUTDOWN, then close our side so the peer wakes with an
  // error and its host thread can be joined.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (coordinator_->alive(i)) continue;
    net::CosimLink& link = slots_[i].link;
    if (link.clock) (void)net::send_msg(*link.clock, net::Shutdown{});
    for (net::Channel* ch : {link.data.get(), link.intr.get(),
                             link.clock.get()}) {
      if (ch != nullptr) ch->close();
    }
  }
}

}  // namespace vhp::cosim
