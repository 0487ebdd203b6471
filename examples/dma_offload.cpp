// DMA-offload scenario: prototyping a DMA engine for the board's FPGA.
//
// The device under design is a DMA engine with its own on-chip memory,
// modeled in the HDL kernel. The board's software programs it through the
// driver exactly as it would program the final silicon:
//
//   1. stage source data into device memory through the write window,
//   2. program SRC/DST/LEN and kick CTRL,
//   3. sleep until the completion interrupt,
//   4. read the destination back through the read window and verify.
//
// The copy itself advances in simulated time (a configurable number of
// bytes per clock cycle), so the software measures a realistic completion
// latency in board ticks — the kind of early performance number the paper's
// methodology exists to provide.
// Usage: dma_offload [--obs] [--metrics-json path]
#include <atomic>
#include <cstdio>

#include "cli.hpp"
#include "vhp/common/rng.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/memory.hpp"
#include "vhp/sim/module.hpp"

using namespace vhp;

namespace {

/// Register map of the DMA engine (device addresses).
constexpr u32 kRegSrc = 0x00;
constexpr u32 kRegDst = 0x04;
constexpr u32 kRegLen = 0x08;
constexpr u32 kRegCtrl = 0x0c;
constexpr u32 kRegStatus = 0x10;
constexpr u32 kWinWrite = 0x40;  // payload: [u32 mem_addr][bytes...]
constexpr u32 kWinReadCfg = 0x44;  // payload: [u32 mem_addr][u32 len]
constexpr u32 kWinRead = 0x50;   // read returns the configured window

constexpr u32 kStatusIdle = 0;
constexpr u32 kStatusBusy = 1;
constexpr u32 kStatusDone = 2;

struct DmaEngine : sim::Module {
  sim::Memory mem{"dma.mem"};
  cosim::DriverIn<u32> src;
  cosim::DriverIn<u32> dst;
  cosim::DriverIn<u32> len;
  cosim::DriverIn<u32> ctrl;
  cosim::DriverOut<u32> status;
  sim::BoolSignal& irq;
  sim::Event start_event;
  u64 bytes_per_cycle;

  DmaEngine(cosim::CosimKernel& hw, u64 rate)
      : Module(hw.kernel(), "dma"),
        src(hw.kernel(), hw.registry(), "dma.src", kRegSrc),
        dst(hw.kernel(), hw.registry(), "dma.dst", kRegDst),
        len(hw.kernel(), hw.registry(), "dma.len", kRegLen),
        ctrl(hw.kernel(), hw.registry(), "dma.ctrl", kRegCtrl),
        status(hw.registry(), "dma.status", kRegStatus),
        irq(make_bool_signal("irq")),
        start_event(hw.kernel(), "dma.start"),
        bytes_per_cycle(rate) {
    status.write(kStatusIdle);

    // Memory windows: raw registry handlers (the same hooks DriverIn/Out
    // are built on), because their payloads embed addresses.
    hw.registry().register_write(kWinWrite, [this](std::span<const u8> p) {
      ByteReader r{p};
      const u32 addr = r.u32v();
      if (!r.ok()) {
        return Status{StatusCode::kInvalidArgument, "short window write"};
      }
      mem.write(addr, p.subspan(4));
      return Status::Ok();
    });
    hw.registry().register_write(kWinReadCfg, [this](std::span<const u8> p) {
      ByteReader r{p};
      window_addr_ = r.u32v();
      window_len_ = r.u32v();
      return r.ok() ? Status::Ok()
                    : Status{StatusCode::kInvalidArgument,
                             "short window config"};
    });
    hw.registry().register_read(
        kWinRead, [this] { return mem.read(window_addr_, window_len_); });

    // The paper's driver process: kicked by a CTRL write.
    method("kick",
           [this] {
             if (ctrl.read() == 1 && status.read() != kStatusBusy) {
               start_event.notify();
             }
           })
        .sensitive(ctrl.data_written_event())
        .dont_initialize();

    const sim::SimTime period = hw.config().clock_period;
    thread("engine", [this, period] {
      for (;;) {
        sim::wait(start_event);
        status.write(kStatusBusy);
        const u32 n = len.read();
        // Copy at bytes_per_cycle, burning simulated time as real DMA would.
        for (u32 done = 0; done < n;
             done += static_cast<u32>(bytes_per_cycle)) {
          const u32 chunk =
              std::min<u32>(static_cast<u32>(bytes_per_cycle), n - done);
          Bytes buf = mem.read(src.read() + done, chunk);
          mem.write(dst.read() + done, buf);
          sim::wait(period);
        }
        status.write(kStatusDone);
        irq.write(true);
        sim::wait(2 * period);
        irq.write(false);
      }
    });
    hw.watch_interrupt(irq, board::Board::kDeviceVector);
  }

 private:
  u32 window_addr_ = 0;
  u32 window_len_ = 0;
};

Bytes encode_window_write(u32 addr, std::span<const u8> data) {
  Bytes out;
  ByteWriter w{out};
  w.u32v(addr);
  w.bytes(data);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  examples::ArgList args{argc, argv, "[--obs] [--metrics-json path]"};
  const bool obs_on = args.take_flag("--obs");
  const auto metrics_path = args.take_value("--metrics-json");
  args.reject_unknown_flags();

  const auto cfg = cosim::SessionConfigBuilder{}
                       .tcp()
                       .t_sync(200)
                       .cycles_per_tick(10)
                       .observability(obs_on || metrics_path.has_value())
                       .build_or_throw();
  cosim::CosimSession session{cfg};

  DmaEngine dma{session.hw(), /*bytes per cycle=*/1};

  auto& board = session.board();
  rtos::Semaphore dma_done{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { dma_done.post(); });

  constexpr u32 kLen = 1024;
  constexpr u32 kSrcAddr = 0x1000;
  constexpr u32 kDstAddr = 0x8000;
  std::atomic<bool> verified{false};
  std::atomic<bool> finished{false};

  board.spawn_app("dma_app", 8, [&] {
    Rng rng{7};
    Bytes pattern(kLen);
    for (auto& b : pattern) b = static_cast<u8>(rng.below(256));

    // 1. Stage the source buffer (chunked, as a driver would).
    for (u32 off = 0; off < kLen; off += 256) {
      auto chunk = std::span{pattern}.subspan(off, 256);
      (void)board.dev_write(kWinWrite,
                            encode_window_write(kSrcAddr + off, chunk));
      board.kernel().consume(50);  // driver copy cost
    }

    // 2. Program and start the engine.
    const u64 t0 = board.kernel().tick_count().value();
    (void)board.dev_write(kRegSrc, cosim::DriverCodec<u32>::encode(kSrcAddr));
    (void)board.dev_write(kRegDst, cosim::DriverCodec<u32>::encode(kDstAddr));
    (void)board.dev_write(kRegLen, cosim::DriverCodec<u32>::encode(kLen));
    (void)board.dev_write(kRegCtrl, cosim::DriverCodec<u32>::encode(1));

    // 3. Sleep until completion.
    dma_done.wait();
    const u64 t1 = board.kernel().tick_count().value();

    // 4. Read back and verify.
    Bytes cfg_payload;
    ByteWriter w{cfg_payload};
    w.u32v(kDstAddr);
    w.u32v(kLen);
    (void)board.dev_write(kWinReadCfg, cfg_payload);
    auto back = board.dev_read(kWinRead, kLen);
    if (back.ok() && back.value() == pattern) verified = true;

    auto status = board.dev_read(kRegStatus, 4);
    u32 st = 0;
    if (status.ok()) {
      (void)cosim::DriverCodec<u32>::decode(status.value(), st);
    }
    std::printf("DMA copied %u bytes in %llu board ticks "
                "(status=%u, verified=%s)\n",
                kLen, (unsigned long long)(t1 - t0), st,
                verified ? "yes" : "NO");
    finished = true;
  });

  session.start_board();
  for (int chunk = 0; chunk < 4000 && !finished; ++chunk) {
    if (!session.run_cycles(100).ok()) break;
  }
  session.finish();

  std::printf("simulated %llu cycles, %llu syncs, memory pages resident: "
              "%zu\n",
              (unsigned long long)session.hw().cycle(),
              (unsigned long long)session.hw().stats().syncs,
              dma.mem.resident_pages());
  if (metrics_path.has_value()) {
    Status ms = session.write_metrics_json(*metrics_path);
    std::printf("wrote %s (%s)\n", metrics_path->c_str(),
                ms.ok() ? "ok" : ms.to_string().c_str());
  }
  return verified ? 0 : 1;
}
