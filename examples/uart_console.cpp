// UART console scenario: the device under design is a serial port for the
// FPGA, modeled with real 8N1 line timing. The board boots, prints its
// banner through the co-simulated UART, and runs a command loop that a
// "terminal" (a serial stimulus on the HDL side) is typing into. A
// logic-analyzer sniffer on the tx pin decodes what the board printed,
// exactly as a scope on the real pin would.
// Usage: uart_console [--obs] [--metrics-json path]
#include <cstdio>

#include "cli.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/devices/uart.hpp"
#include "vhp/devices/uart_driver.hpp"

using namespace vhp;

int main(int argc, char** argv) {
  examples::ArgList args{argc, argv, "[--obs] [--metrics-json path]"};
  const bool obs_on = args.take_flag("--obs");
  const auto metrics_path = args.take_value("--metrics-json");
  args.reject_unknown_flags();

  const auto cfg = cosim::SessionConfigBuilder{}
                       .tcp()
                       .t_sync(100)
                       .cycles_per_tick(10)
                       .observability(obs_on || metrics_path.has_value())
                       .build_or_throw();
  cosim::CosimSession session{cfg};

  devices::UartModel::Config uart_cfg;
  uart_cfg.fifo_depth = 32;
  devices::UartModel uart{session.hw(), "uart0", uart_cfg};
  session.hw().watch_interrupt(uart.irq(), board::Board::kDeviceVector);
  devices::SerialSniffer scope{session.hw().kernel(), "scope", uart.tx(),
                               uart.divisor(), 2};
  devices::SerialDriver terminal{session.hw().kernel(), "terminal",
                                 uart.rx(), uart.divisor(), 2,
                                 /*gap_bits=*/40};
  terminal.queue_text("status\n");
  terminal.queue_text("ticks\n");
  terminal.queue_text("quit\n");

  auto& board = session.board();
  devices::UartDriver tty{board};
  bool halted = false;
  board.spawn_app("shell", 8, [&] {
    (void)tty.write_text("vhp board console\n");
    for (;;) {
      auto line = tty.read_line();
      if (!line.ok()) return;
      const std::string& cmd = line.value();
      board.kernel().consume(100);  // command dispatch cost
      if (cmd == "status\n") {
        (void)tty.write_text("ok: all systems nominal\n");
      } else if (cmd == "ticks\n") {
        (void)tty.write_text(
            "ticks: " +
            std::to_string(board.kernel().tick_count().value()) + "\n");
      } else if (cmd == "quit\n") {
        (void)tty.write_text("bye\n");
        halted = true;
        return;
      } else {
        (void)tty.write_text("err: unknown command\n");
      }
    }
  });

  session.start_board();
  for (int chunk = 0; chunk < 6000 && !halted; ++chunk) {
    if (!session.run_cycles(100).ok()) break;
  }
  // Drain the last frames onto the wire for the sniffer.
  (void)session.run_cycles(3000);
  session.finish();

  std::printf("--- decoded from the tx pin (%zu bytes, %llu framing "
              "errors) ---\n",
              scope.received().size(),
              (unsigned long long)scope.framing_errors());
  std::fwrite(scope.received().data(), 1, scope.received().size(), stdout);
  std::printf("--- uart stats: %llu tx, %llu rx, %llu overflows ---\n",
              (unsigned long long)uart.stats().bytes_tx,
              (unsigned long long)uart.stats().bytes_rx,
              (unsigned long long)(uart.stats().tx_overflows +
                                   uart.stats().rx_overflows));
  if (metrics_path.has_value()) {
    Status ms = session.write_metrics_json(*metrics_path);
    std::printf("wrote %s (%s)\n", metrics_path->c_str(),
                ms.ok() ? "ok" : ms.to_string().c_str());
  }
  return halted && scope.framing_errors() == 0 ? 0 : 1;
}
