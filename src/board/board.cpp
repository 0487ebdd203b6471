#include "vhp/board/board.hpp"

#include <algorithm>
#include <cassert>

#include "vhp/common/format.hpp"
#include "vhp/net/message.hpp"

namespace vhp::board {

namespace {

/// Devtab adapter: applications talk to the simulated HW through the
/// standard driver interface; this forwards to the board's link plumbing.
class RemoteDevice final : public rtos::Device {
 public:
  explicit RemoteDevice(Board& board) : board_(board) {}

  Result<Bytes> read(u32 address, u32 max_bytes) override {
    return board_.dev_read(address, max_bytes);
  }

  Status write(u32 address, std::span<const u8> data) override {
    return board_.dev_write(address, data);
  }

 private:
  Board& board_;
};

rtos::KernelConfig apply_mode(rtos::KernelConfig cfg, bool free_running) {
  cfg.budget_mode = !free_running;
  return cfg;
}

}  // namespace

Status BoardConfig::validate() const {
  if (rtos.cycles_per_tick == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "BoardConfig: rtos.cycles_per_tick must be > 0"};
  }
  if (rtos.timeslice_ticks == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "BoardConfig: rtos.timeslice_ticks must be > 0"};
  }
  if (cycles_per_sim_cycle == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "BoardConfig: cycles_per_sim_cycle must be > 0"};
  }
  if (rtos.cores == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "BoardConfig: rtos.cores must be >= 1"};
  }
  if (rtos.cores > 1 && !memory.has_value()) {
    return Status{StatusCode::kInvalidArgument,
                  "BoardConfig: cores(M > 1) requires a memory hierarchy "
                  "(pair with SessionConfigBuilder::memory)"};
  }
  if (memory.has_value()) return memory->validate();
  return Status::Ok();
}

Board::Board(BoardConfig config, net::CosimLink link, obs::Hub* hub)
    : config_(config), link_(std::move(link)),
      owned_hub_(hub != nullptr ? nullptr : new obs::Hub()),
      hub_(hub != nullptr ? hub : owned_hub_.get()),
      interrupts_received_(
          hub_->metrics().counter("board.interrupts_received")),
      clock_ticks_received_(
          hub_->metrics().counter("board.clock_ticks_received")),
      acks_sent_(hub_->metrics().counter("board.acks_sent")),
      dev_reads_(hub_->metrics().counter("board.dev_reads")),
      dev_writes_(hub_->metrics().counter("board.dev_writes")),
      dev_read_ns_(hub_->metrics().histogram("board.dev_read_ns")),
      spans_(hub_->timeline().sink(config.name.empty() ? "board"
                                                       : config.name)),
      rtos_gauges_{hub_->metrics().gauge("rtos.context_switches"),
                   hub_->metrics().gauge("rtos.ticks"),
                   hub_->metrics().gauge("rtos.freezes"),
                   hub_->metrics().gauge("rtos.grants"),
                   hub_->metrics().gauge("rtos.idle_cycles")},
      kernel_(apply_mode(config.rtos, config.free_running)) {
  if (config_.memory.has_value()) {
    memsys_ = std::make_unique<mem::MemorySystem>(*config_.memory,
                                                  config_.rtos.cores, hub_);
  }
  data_rx_ = std::make_unique<ChannelWaiter>(kernel_, *link_.data, "data");
  int_rx_ = std::make_unique<ChannelWaiter>(kernel_, *link_.intr, "int");
  clock_rx_ = std::make_unique<ChannelWaiter>(kernel_, *link_.clock, "clock");

  (void)devtab_.register_device(kDeviceName,
                                std::make_unique<RemoteDevice>(*this));

  // The device interrupt: minimal ISR, work deferred to the DSR — which by
  // design runs at scheduler-safe points and typically just wakes the
  // driver/application thread.
  kernel_.interrupts().attach(
      kDeviceVector,
      rtos::InterruptHandler{
          [](u32) { return rtos::IsrResult::kCallDsr; },
          [this](u32 vector) {
            if (device_dsr_) device_dsr_(vector);
          }});

  // Freeze: the OS just entered the idle state; report our tick (TIME_ACK)
  // and how many DATA frames we have sent so far: the master's gather
  // completes us only once it has served them all (DESIGN.md §14).
  // Under adaptive synchronization the ack also advertises our lookahead in
  // absolute master sim-cycles. The base is our own consumed CPU cycles
  // (exactly the sum of all grants at a freeze point) divided by the
  // cycles-per-sim-cycle ratio — the board's position on the master clock,
  // independent of whether the master grants ahead of or up to its own
  // cycle. The division floors, which can only *under*state the lookahead:
  // conservative, never late.
  kernel_.set_freeze_callback([this](SwTicks tick) {
    acks_sent_.inc();
    net::TimeAck ack{tick.value()};
    if (config_.advertise_lookahead) {
      const u64 per_cycle = std::max<u64>(1, config_.cycles_per_sim_cycle);
      ack.lookahead = net::kLookaheadUnbounded;
      if (const auto cpu = kernel_.next_event_cycles()) {
        // A lookahead that lands on the wire's "none" value is as good as
        // unbounded.
        const u64 at = (kernel_.cycle_count() + *cpu) / per_cycle;
        if (at != net::kNoLookahead) ack.lookahead = at;
      }
    }
    // Echo the round id of the grant this freeze answers, so the ack can
    // be joined to its CLOCK_TICK across the fabric (0 before any tick).
    ack.round = round_;
    ack.data_sent = data_sent_;
    obs::Timeline& timeline = hub_->timeline();
    if (timeline.enabled() && round_ != 0) {
      const u64 now = timeline.now_ns();
      spans_.record({round_, 0, obs::SpanPhase::kCompute, tick_rx_ns_, now,
                     round_cycle_});
      ack_tx_ns_ = now;
    }
    // Batching flush rule (DESIGN.md §14): every DATA frame of this
    // quantum must cross before the TIME_ACK — the master acts on the
    // quantum's traffic at the barrier. No-op on unbatched links.
    if (Status fs = link_.data->flush(); !fs.ok()) {
      log_.warn("DATA flush before TIME_ACK failed: {}", fs.to_string());
    }
    Status s = net::send_msg(*link_.clock, ack);
    if (!s.ok()) log_.warn("TIME_ACK send failed: {}", s.to_string());
  });

  // Idle: keep the sockets alive (the paper's idle-state duty).
  kernel_.set_idle_poll([this] { return idle_poll(); });

  // Which RTOS thread holds the virtual CPU (paper Figure 4): one kSlice
  // span per scheduled slice, adjacent same-thread slices merged. Only when
  // the costly instruments are on, and into a sink of their own so the
  // slices never evict round spans.
  if (hub_->enabled()) {
    slices_ = &hub_->timeline().sink(spans_.name() + ".rtos");
    kernel_.set_switch_trace([this](const rtos::Thread& next) {
      if (next.name() == slice_thread_) return;
      const u64 now = hub_->timeline().now_ns();
      end_slice(now);
      slice_thread_ = next.name();
      slice_start_ns_ = now;
    });
  }
}

Board::~Board() { link_.close_all(); }

void Board::end_slice(u64 now) {
  if (slice_thread_.empty()) return;
  slices_->record({round_, 0, obs::SpanPhase::kSlice,
                   slice_start_ns_, now, round_cycle_,
                   obs::span_label(slice_thread_)});
}

void Board::halted() {
  log_.debug("board halted at tick {} after {} context switches",
             kernel_.tick_count().value(), kernel_.stats().context_switches);
  if (slices_ != nullptr) {
    end_slice(hub_->timeline().now_ns());
    slice_thread_.clear();
  }
}

bool Board::idle_poll() {
  bool any = false;
  any |= data_rx_->poll();
  any |= int_rx_->poll();
  if (clock_rx_->poll()) {
    // The master sends a quantum's DATA and INT frames before the
    // CLOCK_TICK that grants it. Any that landed between the two polls
    // above and this one belong before the grant too: take them now, not
    // at the next freeze a whole quantum later.
    (void)data_rx_->poll();
    (void)int_rx_->poll();
    any = true;
  }
  return any;
}

Result<Bytes> Board::dev_read(u32 addr, u32 nbytes) {
  rtos::MutexLock lock(data_mutex_);
  dev_reads_.inc();
  const obs::Timeline& timeline = hub_->timeline();
  const u64 read_start = timeline.enabled() ? timeline.now_ns() : 0;
  Status s = net::send_msg(*link_.data, net::DataReadReq{addr, nbytes});
  if (s.ok()) ++data_sent_;
  // The request must reach the master now — this thread is about to block
  // on the response (flush is a no-op on unbatched links).
  if (s.ok()) s = link_.data->flush();
  if (!s.ok()) return s;
  // A timed board never completes a read in the quantum that issued it:
  // the response is taken only from the idle thread's poll while frozen.
  // A self-poll would catch a master that answered before this thread
  // looked again (it was descheduled for a moment), and the read's
  // completion — with everything the app does after it — would move one
  // quantum earlier depending on host scheduling. A free-running board has
  // no quantum, and its idle thread skips polling while alarms are pending,
  // so it keeps looking for the response itself.
  const bool timed = kernel_.budget_mode();
  for (;;) {
    auto frame = timed ? data_rx_->recv_deferred() : data_rx_->recv();
    if (!frame.has_value()) {
      return Status{StatusCode::kAborted, "DATA channel closed mid-read"};
    }
    auto msg = net::decode(*frame);
    if (!msg.ok()) return msg.status();
    auto* resp = std::get_if<net::DataReadResp>(&msg.value());
    if (resp == nullptr) {
      log_.warn("unexpected {} on DATA port, dropped",
                net::to_string(net::type_of(msg.value())));
      continue;
    }
    if (resp->address != addr) {
      log_.warn("DATA response address mismatch: got {}, want {}",
                resp->address, addr);
      continue;
    }
    if (timeline.enabled()) {
      const u64 read_end = timeline.now_ns();
      dev_read_ns_.record_ns(read_end - read_start);
      spans_.record({round_, 0, obs::SpanPhase::kDevRead,
                     read_start, read_end, round_cycle_, addr});
    }
    return std::move(resp->data);
  }
}

Status Board::dev_write(u32 addr, std::span<const u8> data) {
  dev_writes_.inc();
  if (config_.dev_write_cost > 0) kernel_.consume(config_.dev_write_cost);
  Status s = net::send_msg(
      *link_.data, net::DataWrite{addr, Bytes{data.begin(), data.end()}});
  if (s.ok()) ++data_sent_;
  return s;
}

void Board::attach_device_dsr(std::function<void(u32)> dsr) {
  device_dsr_ = std::move(dsr);
}

void Board::attach_interrupt(u32 vector, std::function<void(u32)> dsr) {
  kernel_.interrupts().attach(
      vector, rtos::InterruptHandler{
                  [](u32) { return rtos::IsrResult::kCallDsr; },
                  std::move(dsr)});
}

rtos::Thread& Board::spawn_app(std::string name, int priority,
                               rtos::Thread::Entry entry,
                               std::size_t stack_bytes) {
  assert(priority > kCommPriority &&
         "application threads must run below the communication threads");
  return kernel_.spawn(std::move(name), priority, std::move(entry),
                       stack_bytes);
}

void Board::systemc_thread_body() {
  for (;;) {
    // The frame (and its heap buffer) must be released before
    // kernel_.shutdown(): shutdown parks this fiber for good and fiber
    // stacks are never unwound, so any live local would leak. Decode
    // inside a scope and only act on the verdict afterwards.
    bool stop = false;
    {
      auto frame = clock_rx_->recv();
      if (!frame.has_value()) {
        log_.debug("CLOCK channel closed; shutting down");
        stop = true;
      } else {
        auto msg = net::decode(*frame);
        if (!msg.ok()) {
          log_.warn("bad CLOCK frame: {}", msg.status().to_string());
        } else if (const auto* tick =
                       std::get_if<net::ClockTick>(&msg.value())) {
          clock_ticks_received_.inc();
          obs::Timeline& timeline = hub_->timeline();
          if (timeline.enabled()) {
            const u64 now = timeline.now_ns();
            if (round_ != 0 && ack_tx_ns_ != 0) {
              spans_.record({round_, 0, obs::SpanPhase::kFrozen, ack_tx_ns_,
                             now, round_cycle_});
            }
            tick_rx_ns_ = now;
          }
          round_ = tick->round;
          round_cycle_ = tick->sim_cycle;
          kernel_.grant_cycles(static_cast<u64>(tick->n_ticks) *
                               config_.cycles_per_sim_cycle);
        } else if (std::holds_alternative<net::Shutdown>(msg.value())) {
          log_.debug("SHUTDOWN received at tick {}",
                     kernel_.tick_count().value());
          stop = true;
        } else {
          log_.warn("unexpected {} on CLOCK port",
                    net::to_string(net::type_of(msg.value())));
        }
      }
    }
    if (stop) {
      kernel_.shutdown();
      return;
    }
  }
}

void Board::channel_thread_body() {
  for (;;) {
    auto frame = int_rx_->recv();
    if (!frame.has_value()) return;  // link down; systemc thread shuts down
    auto msg = net::decode(*frame);
    if (!msg.ok()) {
      log_.warn("bad INT frame: {}", msg.status().to_string());
      continue;
    }
    if (const auto* irq = std::get_if<net::IntRaise>(&msg.value())) {
      interrupts_received_.inc();
      kernel_.interrupts().raise(irq->vector);
    } else {
      log_.warn("unexpected {} on INT port",
                net::to_string(net::type_of(msg.value())));
    }
  }
}

void Board::boot() {
  if (booted_) return;
  booted_ = true;
  auto& sysc = kernel_.spawn("systemc", kCommPriority,
                             [this] { systemc_thread_body(); });
  sysc.set_comm_thread(true);
  auto& chan = kernel_.spawn("channel", kCommPriority,
                             [this] { channel_thread_body(); });
  chan.set_comm_thread(true);
  log_.debug("board booted (budget_mode={})", kernel_.budget_mode());
}

void Board::run_boards(std::span<Board* const> boards) {
  for (Board* board : boards) board->boot();
  std::vector<Board*> live(boards.begin(), boards.end());
  // Which live boards' idle polls took something: only those can move, so
  // only those are pumped (a starved board's pump is a fiber round trip
  // for nothing). Every board is pumped on the first pass: its boot.
  std::vector<char> took(live.size(), 1);
  std::vector<net::Channel*> ports;
  for (;;) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (took[i] && live[i]->pump() == PumpStatus::kDone) continue;
      live[kept++] = live[i];
    }
    if (kept == 0) return;
    live.resize(kept);
    took.assign(kept, 0);
    ports.clear();
    for (Board* board : live) {
      ports.insert(ports.end(), {board->link_.data.get(),
                                 board->link_.intr.get(),
                                 board->link_.clock.get()});
    }
    (void)net::wait_until(
        [&] {
          bool any = false;
          for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i]->idle_poll()) {
              took[i] = 1;
              any = true;
            }
          }
          return any;
        },
        ports);
  }
}

void Board::run() {
  Board* const self[] = {this};
  run_boards(self);
}

Board::PumpStatus Board::pump() {
  assert(booted_ && "pump() before boot()");
  const bool live = kernel_.run_until_starved();
  publish_rtos_stats();
  if (memsys_) memsys_->publish_stats();
  if (live) return PumpStatus::kLive;
  if (!halted_) {
    halted_ = true;
    halted();
  }
  return PumpStatus::kDone;
}

void Board::publish_rtos_stats() {
  const auto& ks = kernel_.stats();
  rtos_gauges_.context_switches.set(static_cast<i64>(ks.context_switches));
  rtos_gauges_.ticks.set(static_cast<i64>(ks.ticks));
  rtos_gauges_.freezes.set(static_cast<i64>(ks.freezes));
  rtos_gauges_.grants.set(static_cast<i64>(ks.grants));
  rtos_gauges_.idle_cycles.set(static_cast<i64>(ks.idle_cycles));
}

}  // namespace vhp::board
