// Micro-benchmarks of the transport layer: the message codec, a poll of an
// empty channel (what every poller pays when it finds nothing: the gather
// spin, the board's idle thread, an untimed master's per-cycle DATA
// check), the round trip of a CLOCK_TICK-sized frame, and TCP DATA
// bandwidth (DESIGN.md §4, decisions 2 and 5; §14). The round-trip and
// bandwidth rows wait in the blocking Channel::recv on both ends; no
// co-simulation path waits that way (the master and the board poll with
// try_recv), so those rows bound the transport, not Figures 5 and 6.
//
// The empty-poll rows cover inproc and shm with the doorbell armed (an
// event loop asked for readable_fd()) and unarmed, plus TCP, whose check
// is always one poll(2).
//
// Output: BENCH_micro_transport.metrics.json — one row per workload and
// variant with host ns and system-CPU ns per operation, so a trajectory of
// this file shows transport-path drift over time.
#include "bench_util.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "vhp/net/inproc.hpp"
#include "vhp/net/message.hpp"
#include "vhp/net/shm_ring.hpp"
#include "vhp/net/tcp.hpp"

using namespace vhp;
using namespace vhp::net;

namespace {

using ChannelPair = std::pair<ChannelPtr, ChannelPtr>;

/// One measured loop: wall time and the process's system CPU time.
struct Cost {
  double wall_s = 0;
  double sys_s = 0;
};

double process_sys_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
}

/// Runs `body` `ops` times; the least-wall-time of `reps` runs.
template <typename Body>
Cost min_cost(u64 ops, int reps, Body&& body) {
  Cost best{1e100, 0};
  for (int r = 0; r < reps; ++r) {
    const double sys_start = process_sys_s();
    const auto start = std::chrono::steady_clock::now();
    for (u64 i = 0; i < ops; ++i) body();
    const auto end = std::chrono::steady_clock::now();
    const Cost one{std::chrono::duration<double>(end - start).count(),
                   process_sys_s() - sys_start};
    if (one.wall_s < best.wall_s) best = one;
  }
  return best;
}

ChannelPair tcp_pair() {
  TcpListener listener;
  auto client = connect_tcp_channel(listener.port());
  auto server = listener.accept(std::chrono::milliseconds{5000});
  if (!client.ok() || !server.ok()) {
    std::fprintf(stderr, "FAIL: loopback TCP pair: %s\n",
                 (client.ok() ? server.status() : client.status())
                     .to_string()
                     .c_str());
    std::exit(1);
  }
  return {std::move(client).value(), std::move(server).value()};
}

const struct {
  const char* name;
  ChannelPair (*make)();
} kTransports[] = {
    {"inproc", [] { return make_inproc_channel_pair(); }},
    {"shm", [] { return make_shm_channel_pair(); }},
    {"tcp", tcp_pair},
};

/// Echo peer thread: bounces every frame back until the channel closes.
std::thread start_echo(Channel& ch) {
  return std::thread([&ch] {
    for (;;) {
      auto frame = ch.recv();
      if (!frame.ok()) return;
      if (!ch.send(frame.value()).ok()) return;
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "transport substrate: codec, empty poll, round trip, bandwidth",
      "empty DATA check and a blocking CLOCK_TICK-sized round trip, "
      "DESIGN.md §4/§14");
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = quick ? 2 : 3;
  const u64 scale = quick ? 1 : 5;

  std::vector<bench::JsonRow> rows;
  std::printf("%14s %14s %10s %12s %12s %14s\n", "workload", "variant",
              "ops", "wall_min_s", "ns_per_op", "sys_ns_per_op");
  const auto emit = [&](const char* workload, const std::string& variant,
                        u64 ops, const Cost& cost, bool ok,
                        const std::string& extra = "") {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s/%s lost frames\n", workload,
                   variant.c_str());
      std::exit(1);
    }
    const double n = static_cast<double>(ops);
    const double ns = cost.wall_s * 1e9 / n;
    const double sys_ns = cost.sys_s * 1e9 / n;
    std::printf("%14s %14s %10llu %12.4f %12.1f %14.1f\n", workload,
                variant.c_str(), static_cast<unsigned long long>(ops),
                cost.wall_s, ns, sys_ns);
    bench::JsonRow row;
    row.params = strformat(
        "\"workload\":\"{}\",\"variant\":\"{}\",\"ops\":{},\"reps\":{},"
        "\"ns_per_op\":{},\"sys_ns_per_op\":{}{}",
        workload, variant, ops, reps, ns, sys_ns, extra);
    row.wall_seconds = cost.wall_s;
    row.metrics_json = strformat("{\"ops\":{},\"sys_seconds\":{}}", ops,
                                 cost.sys_s);
    rows.push_back(std::move(row));
  };

  // Codec: one CLOCK_TICK and DATA_WRITEs of three payload sizes.
  {
    const u64 ops = 200'000 * scale;
    bool ok = true;
    const Message tick = ClockTick{123456, 1000};
    emit("codec", "clock_tick", ops, min_cost(ops, reps, [&] {
           ok = ok && decode(encode(tick)).ok();
         }),
         ok);
    for (const std::size_t bytes : {16, 256, 4096}) {
      const Message write = DataWrite{0x10, Bytes(bytes, 0x5a)};
      emit("codec", strformat("data_write_{}", bytes), ops,
           min_cost(ops, reps, [&] { ok = ok && decode(encode(write)).ok(); }),
           ok);
    }
  }

  // Empty poll: what the master pays per simulated cycle when the board
  // sent nothing. TCP's readable_fd() is its socket, so it has one variant.
  for (const auto& transport : kTransports) {
    for (const bool armed : {false, true}) {
      const bool is_tcp = std::string(transport.name) == "tcp";
      if (is_tcp && !armed) continue;
      auto [a, b] = transport.make();
      if (armed) (void)b->readable_fd();
      const u64 ops = (is_tcp ? 100'000 : 1'000'000) * scale;
      bool ok = true;
      const Cost cost = min_cost(ops, reps, [&] {
        auto got = b->try_recv();
        ok = ok && got.ok() && !got.value().has_value();
      });
      emit("empty_poll",
           is_tcp ? std::string("tcp")
                  : strformat("{}_{}", transport.name,
                              armed ? "armed" : "unarmed"),
           ops, cost, ok);
    }
  }

  // Round trip of one CLOCK_TICK-sized frame through an echo thread.
  const Bytes tick_frame = encode(Message{ClockTick{1, 1000}});
  for (const auto& transport : kTransports) {
    auto [a, b] = transport.make();
    std::thread echo = start_echo(*b);
    const u64 ops = 4'000 * scale;
    bool ok = true;
    const Cost cost = min_cost(ops, reps, [&] {
      ok = ok && a->send(tick_frame).ok() && a->recv().ok();
    });
    a->close();
    b->close();
    echo.join();
    emit("round_trip", transport.name, ops, cost, ok);
  }

  // TCP DATA bandwidth: echoed frames, bytes counted both ways.
  for (const std::size_t bytes : {64, 1024, 16384}) {
    auto [a, b] = tcp_pair();
    std::thread echo = start_echo(*b);
    const Bytes frame(bytes, 0xa5);
    const u64 ops = 2'000 * scale;
    bool ok = true;
    const Cost cost = min_cost(ops, reps, [&] {
      ok = ok && a->send(frame).ok() && a->recv().ok();
    });
    a->close();
    b->close();
    echo.join();
    const double mb_per_s =
        2.0 * static_cast<double>(bytes * ops) / cost.wall_s / 1e6;
    emit("tcp_bandwidth", strformat("{}_bytes", bytes), ops, cost, ok,
         strformat(",\"mb_per_s\":{}", mb_per_s));
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_micro_transport.metrics.json");
  if (!bench::write_bench_json(path, "micro_transport", rows)) {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
