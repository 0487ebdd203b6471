#include "vhp/router/checksum_app.hpp"

#include "vhp/cosim/driver_codec.hpp"
#include "vhp/router/packet.hpp"

namespace vhp::router {

ChecksumApp::ChecksumApp(board::Board& board, ChecksumAppConfig config)
    : board_(board), config_(config), pending_(board.kernel(), 0) {
  // ISR context just defers; the DSR wakes this application thread, which
  // then runs in the *normal* OS state only — the paper's split between
  // data exchange (communication threads) and data management (app threads).
  board_.attach_device_dsr([this](u32) { pending_.post(); });
  board_.spawn_app("checksum_app", config_.priority, [this] { app_loop(); });
}

void ChecksumApp::app_loop() {
  for (;;) {
    pending_.wait();
    std::size_t bytes = 0;
    bool ok = false;
    u32 id = 0;
    {
      // The packet is released before consume() and dev_write() suspend
      // this thread: a board torn down there never unwinds its stack.
      auto data =
          board_.dev_read(config_.packet_addr, config_.max_packet_bytes);
      if (!data.ok()) return;  // link torn down; board is shutting down
      const Bytes& raw = data.value();
      bytes = raw.size();
      ok = packed_checksum_ok(raw);
      id = Packet::peek_id(raw).value_or(0);
    }
    board_.kernel().consume(config_.cost_base + config_.cost_per_byte * bytes);
    ++processed_;
    if (!ok) ++rejected_;
    const u32 verdict = (id << 1) | (ok ? 1u : 0u);
    Status s = board_.dev_write(config_.verdict_addr,
                                cosim::DriverCodec<u32>::encode(verdict));
    if (!s.ok()) return;
  }
}

}  // namespace vhp::router
