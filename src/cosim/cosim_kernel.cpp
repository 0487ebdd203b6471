#include "vhp/cosim/cosim_kernel.hpp"

#include <thread>

#include "vhp/common/format.hpp"

namespace vhp::cosim {

Status CosimConfig::validate() const {
  if (timed && !sync.has_value() && t_sync == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "CosimConfig: t_sync must be > 0 in timed mode"};
  }
  if (sync.has_value()) {
    if (Status s = sync->validate(); !s.ok()) return s;
  }
  if (clock_period == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "CosimConfig: clock_period must be > 0"};
  }
  if (data_poll_interval == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "CosimConfig: data_poll_interval must be > 0"};
  }
  if (parallel_workers > 256) {
    return Status{StatusCode::kInvalidArgument,
                  "CosimConfig: parallel_workers must be <= 256"};
  }
  return Status::Ok();
}

CosimKernel::CosimKernel(net::CosimLink link, CosimConfig config,
                         obs::Hub* hub)
    : link_(std::move(link)), config_(config),
      config_status_(config.validate()),
      owned_hub_(hub != nullptr ? nullptr : new obs::Hub()),
      hub_(hub != nullptr ? hub : owned_hub_.get()),
      syncs_(hub_->metrics().counter("cosim.syncs")),
      data_writes_(hub_->metrics().counter("cosim.data_writes")),
      data_reads_(hub_->metrics().counter("cosim.data_reads")),
      interrupts_sent_(hub_->metrics().counter("cosim.interrupts_sent")),
      acks_received_(hub_->metrics().counter("cosim.acks_received")),
      lookahead_acks_(hub_->metrics().counter("cosim.lookahead_acks")),
      sync_rtt_ns_(hub_->metrics().histogram("cosim.sync_rtt_ns")),
      grant_cycles_(hub_->metrics().histogram("cosim.grant_cycles")),
      spans_(hub_->timeline().sink("cosim")),
      // Guard against a zero period before sim::Clock divides by it; the
      // invalid config is surfaced by run_cycles()/handshake().
      clock_(kernel_, "clk",
             config.clock_period == 0 ? sim::SimTime{1} : config.clock_period),
      policy_(config_.resolved_sync()) {
  if (!config_status_.ok()) {
    log_.warn("invalid config: {}", config_status_.to_string());
  }
  if (config_status_.ok() && config_.parallel_workers > 0) {
    kernel_.set_parallel(static_cast<unsigned>(config_.parallel_workers));
    // Parallel-kernel telemetry: island count, parallel delta cycles and
    // per-lane busy time land in every metrics dump. Registered only when
    // the parallel kernel is armed so serial runs keep their exact metric
    // key set.
    hub_->add_collector([this](obs::MetricsRegistry& m) {
      const auto ps = kernel_.parallel_stats();
      m.gauge("sim.islands").set(static_cast<i64>(ps.islands));
      m.gauge("sim.parallel_deltas").set(static_cast<i64>(ps.parallel_deltas));
      m.gauge("sim.repartitions").set(static_cast<i64>(ps.repartitions));
      for (std::size_t i = 0; i < ps.lanes.size(); ++i) {
        const auto tag = strformat("sim.worker{}", i);
        m.gauge(tag + ".islands_run")
            .set(static_cast<i64>(ps.lanes[i].islands_run));
        // Busy-time histogram: one sample per collection interval, so the
        // distribution shows how evaluation work spread across the lanes
        // over the run.
        auto& prev = lane_busy_collected_;
        if (prev.size() <= i) prev.resize(i + 1, 0);
        if (ps.lanes[i].busy_ns >= prev[i]) {
          m.histogram(tag + ".busy_ns")
              .record_ns(ps.lanes[i].busy_ns - prev[i]);
          prev[i] = ps.lanes[i].busy_ns;
        }
      }
    });
  }
  // Fixed mode reproduces the legacy cadence exactly: the first tick goes
  // out at `quantum`, every later one `quantum` after its predecessor.
  next_sync_ = std::max<u64>(1, policy_.node_quantum(0));
}

CosimKernel::~CosimKernel() { finish(); }

void CosimKernel::watch_interrupt(sim::BoolSignal& line, u32 vector) {
  watches_.push_back(IntWatch{&line, vector, line.read()});
}

Status CosimKernel::handshake(
    std::optional<std::chrono::milliseconds> timeout) {
  if (!config_status_.ok()) return config_status_;
  if (!config_.timed || handshaken_) return Status::Ok();
  // The board reports its initial freeze with a TIME_ACK; data traffic is
  // not expected before it (the device driver has nothing to talk to yet).
  auto msg = net::recv_msg(*link_.clock, timeout);
  if (!msg.ok()) return msg.status();
  const auto* ack = std::get_if<net::TimeAck>(&msg.value());
  if (ack == nullptr) {
    return Status{StatusCode::kInternal,
                  strformat("expected initial TIME_ACK, got {}",
                            net::to_string(net::type_of(msg.value())))};
  }
  note_ack(*ack);
  // The boot ack already carries a lookahead against a v2 board: a board
  // that sleeps through the first default quantum gets a longer first grant.
  next_sync_ = std::max<u64>(1, policy_.grant(0, 0, board_lookahead_));
  handshaken_ = true;
  log_.debug("handshake complete, board frozen at tick {}", ack->board_tick);
  return Status::Ok();
}

void CosimKernel::note_ack(const net::TimeAck& ack) {
  board_lookahead_ = ack.lookahead;
  if (ack.lookahead.has_value()) lookahead_acks_.inc();
}

Status CosimKernel::service_data_port() {
  for (;;) {
    auto msg = net::try_recv_msg(*link_.data);
    if (!msg.ok()) {
      // A vanished peer mid-run is a session error; surface it.
      return msg.status();
    }
    if (!msg.value().has_value()) return Status::Ok();
    Status s = handle_data_msg(*msg.value());
    if (!s.ok()) return s;
  }
}

Status CosimKernel::handle_data_msg(const net::Message& msg) {
  if (const auto* wr = std::get_if<net::DataWrite>(&msg)) {
    data_writes_.inc();
    if (hub_->tracer().enabled()) {
      hub_->tracer().instant("cosim.data_write", "cosim", wr->address,
                             "address");
    }
  } else if (const auto* rd = std::get_if<net::DataReadReq>(&msg)) {
    data_reads_.inc();
    if (hub_->tracer().enabled()) {
      hub_->tracer().instant("cosim.data_read", "cosim", rd->address,
                             "address");
    }
  }
  Status s = serve_data_message(registry_, *link_.data, msg);
  if (s.ok() && std::holds_alternative<net::DataReadReq>(msg)) {
    // The board thread is blocked on this response mid-quantum; a batched
    // DATA channel must not hold it to the next CLOCK boundary (no-op on
    // unbatched links).
    s = link_.data->flush();
  }
  return s;
}

Status CosimKernel::sample_interrupts() {
  for (auto& watch : watches_) {
    const bool level = watch.line->read();
    if (level && !watch.prev) {
      interrupts_sent_.inc();
      if (hub_->tracer().enabled()) {
        hub_->tracer().instant("cosim.int_raise", "cosim", watch.vector,
                               "vector");
      }
      Status s = net::send_msg(*link_.intr, net::IntRaise{watch.vector});
      if (!s.ok()) return s;
    }
    watch.prev = level;
  }
  return Status::Ok();
}

Status CosimKernel::send_tick() {
  syncs_.inc();
  obs::Tracer& tracer = hub_->tracer();
  sync_span_start_ = tracer.enabled() ? tracer.now_ns() : 0;
  // The grant is the cycles elapsed since the previous tick — in fixed mode
  // always the quantum, in adaptive mode whatever the last lookahead earned.
  const u64 elapsed = cycle_ - last_granted_;
  grant_cycles_.record_ns(elapsed);
  // Wire v3: stamp the round only when the timeline is armed, so default
  // runs keep the v1/v2 frame bytes (bit-exact recording parity).
  obs::Timeline& timeline = hub_->timeline();
  const bool timed_spans = timeline.enabled();
  net::ClockTick tick{cycle_, static_cast<u32>(elapsed)};
  if (timed_spans) tick.round = ++round_;
  // Batching flush rule (DESIGN.md §14): this quantum's DATA and INT
  // frames must cross before the grant they belong to (no-op on unbatched
  // links).
  if (Status s = link_.data->flush(); !s.ok()) return s;
  if (Status s = link_.intr->flush(); !s.ok()) return s;
  Status s = net::send_msg(*link_.clock, tick);
  if (!s.ok()) return s;
  tick_sent_ns_ = timed_spans ? timeline.now_ns() : 0;
  last_granted_ = cycle_;
  return Status::Ok();
}

Status CosimKernel::accept_ack(const net::Message& msg) {
  const auto* time_ack = std::get_if<net::TimeAck>(&msg);
  if (time_ack == nullptr) {
    return Status{StatusCode::kInternal,
                  strformat("expected TIME_ACK, got {}",
                            net::to_string(net::type_of(msg)))};
  }
  acks_received_.inc();
  note_ack(*time_ack);
  next_sync_ = cycle_ + policy_.grant(0, cycle_, board_lookahead_);
  obs::Timeline& timeline = hub_->timeline();
  if (timeline.enabled()) {
    const u64 now = timeline.now_ns();
    spans_.record({round_, 0, obs::SpanPhase::kNodeWait, tick_sent_ns_,
                   now, cycle_});
    spans_.record({round_, 0, obs::SpanPhase::kBarrier, tick_sent_ns_,
                   now, cycle_});
  }
  obs::Tracer& tracer = hub_->tracer();
  if (tracer.enabled()) {
    const u64 span_end = tracer.now_ns();
    sync_rtt_ns_.record_ns(span_end - sync_span_start_);
    tracer.complete("cosim.sync", "cosim", sync_span_start_, span_end,
                    cycle_, "cycle");
  }
  return Status::Ok();
}

Status CosimKernel::sync_with_board() {
  Status s = send_tick();
  if (!s.ok()) return s;
  // Wait for the ack; keep the DATA port alive so a board thread blocked on
  // a device read mid-quantum still gets its response (deadlock freedom).
  for (;;) {
    auto ack = net::try_recv_msg(*link_.clock);
    if (!ack.ok()) return ack.status();
    if (ack.value().has_value()) {
      s = accept_ack(*ack.value());
      if (!s.ok()) return s;
      // The board flushed its quantum's DATA before the ack; serve what
      // arrived with it, so the sync always ends with that DATA handled.
      return service_data_port();
    }
    Status data = service_data_port();
    if (!data.ok()) return data;
    std::this_thread::yield();
  }
}

Status CosimKernel::run_cycles(u64 cycles) {
  if (!config_status_.ok()) return config_status_;
  if (config_.timed && !handshaken_) {
    Status s = handshake();
    if (!s.ok()) return s;
  }
  obs::StallProfiler& profiler = hub_->profiler();
  using Bucket = obs::StallProfiler::Bucket;
  for (u64 i = 0; i < cycles; ++i) {
    Status s = Status::Ok();
    if (config_.data_poll_interval <= 1 ||
        cycle_ % config_.data_poll_interval == 0) {
      obs::StallProfiler::Timer timer(profiler, Bucket::kDataService);
      s = service_data_port();
      if (!s.ok()) return s;
    }
    {
      obs::StallProfiler::Timer timer(profiler, Bucket::kSimulate);
      kernel_.run(config_.clock_period);  // one posedge + negedge
    }
    ++cycle_;
    s = sample_interrupts();
    if (!s.ok()) return s;
    if (config_.timed && cycle_ == next_sync_) {
      obs::StallProfiler::Timer timer(profiler, Bucket::kAckWait);
      s = sync_with_board();
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status CosimKernel::pump(u64 max_cycles, u64* ran, bool* blocked) {
  *ran = 0;
  *blocked = false;
  if (!config_status_.ok()) return config_status_;
  if (config_.timed && !handshaken_) {
    // Non-blocking handshake: the board's initial freeze ack may not have
    // crossed the link yet.
    auto msg = net::try_recv_msg(*link_.clock);
    if (!msg.ok()) return msg.status();
    if (!msg.value().has_value()) {
      *blocked = true;
      return Status::Ok();
    }
    const auto* ack = std::get_if<net::TimeAck>(&*msg.value());
    if (ack == nullptr) {
      return Status{StatusCode::kInternal,
                    strformat("expected initial TIME_ACK, got {}",
                              net::to_string(net::type_of(*msg.value())))};
    }
    note_ack(*ack);
    next_sync_ = std::max<u64>(1, policy_.grant(0, 0, board_lookahead_));
    handshaken_ = true;
    log_.debug("handshake complete, board frozen at tick {}", ack->board_tick);
  }
  obs::StallProfiler& profiler = hub_->profiler();
  using Bucket = obs::StallProfiler::Bucket;
  for (;;) {
    if (awaiting_ack_) {
      // A board thread blocked mid-quantum on a device read still gets its
      // response while we wait (same deadlock-freedom rule as the blocking
      // path).
      Status data = service_data_port();
      if (!data.ok()) return data;
      auto ack = net::try_recv_msg(*link_.clock);
      if (!ack.ok()) return ack.status();
      if (!ack.value().has_value()) {
        *blocked = true;
        return Status::Ok();
      }
      Status s = accept_ack(*ack.value());
      if (s.ok()) s = service_data_port();  // DATA that came with the ack
      if (!s.ok()) return s;
      awaiting_ack_ = false;
    }
    // The trailing-ack check sits above this exit so pump(N) leaves the
    // same protocol state as run_cycles(N): no outstanding tick.
    if (*ran >= max_cycles) return Status::Ok();
    Status s = Status::Ok();
    if (config_.data_poll_interval <= 1 ||
        cycle_ % config_.data_poll_interval == 0) {
      obs::StallProfiler::Timer timer(profiler, Bucket::kDataService);
      s = service_data_port();
      if (!s.ok()) return s;
    }
    {
      obs::StallProfiler::Timer timer(profiler, Bucket::kSimulate);
      kernel_.run(config_.clock_period);  // one posedge + negedge
    }
    ++cycle_;
    ++*ran;
    s = sample_interrupts();
    if (!s.ok()) return s;
    if (config_.timed && cycle_ == next_sync_) {
      s = send_tick();
      if (!s.ok()) return s;
      awaiting_ack_ = true;
    }
  }
}

std::vector<int> CosimKernel::readable_fds() {
  std::vector<int> fds;
  for (net::Channel* ch :
       {link_.data.get(), link_.intr.get(), link_.clock.get()}) {
    if (ch == nullptr) continue;
    const int fd = ch->readable_fd();
    if (fd >= 0) fds.push_back(fd);
  }
  return fds;
}

void CosimKernel::finish() {
  if (finished_) return;
  finished_ = true;
  // Push out anything a batched link still holds — the board may need the
  // last DATA/INT frames to make progress before it can see the SHUTDOWN.
  if (link_.data) (void)link_.data->flush();
  if (link_.intr) (void)link_.intr->flush();
  if (config_.shutdown_on_finish && link_.clock) {
    (void)net::send_msg(*link_.clock, net::Shutdown{});
  }
}

}  // namespace vhp::cosim
