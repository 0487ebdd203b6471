// The 4-port packet router HDL model (paper Section 6): "an extension of the
// Multicast Helix Packet Switch example distributed with SystemC".
//
// Packets arrive on input FIFOs; a full buffer drops the packet. The main
// process pops packets, has their checksum verified — either locally (the
// standalone simulation baseline) or by the C application on the board,
// through driver ports + the device interrupt (the co-simulated design under
// test) — then forwards good packets to the output selected by the routing
// table.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "vhp/cosim/driver_port.hpp"
#include "vhp/router/packet.hpp"
#include "vhp/sim/fifo.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::router {

struct RouterConfig {
  std::size_t n_ports = 4;
  /// Per-input-port buffer depth; overflow drops (the Figure 7 mechanism).
  std::size_t buffer_depth = 4;
  /// HW pipeline cost per packet, in clock cycles.
  u64 proc_cycles = 2;
  /// Simulation time units per clock cycle (must match the driving clock).
  sim::SimTime clock_period = 2;
  /// Offload checksum verification to the board via driver ports.
  bool remote_checksum = false;
  /// Device address map (remote mode).
  u32 packet_out_addr = 0x0;  // board reads the posted packet here
  u32 verdict_in_addr = 0x4;  // board writes (id << 1 | ok) here
  /// Give up waiting for a board verdict after this many cycles and drop
  /// the packet (0 = wait forever). A defensive bound: the protocol
  /// guarantees delivery, but a buggy/bring-up board must not wedge the
  /// HDL model.
  u64 verdict_timeout_cycles = 0;
  /// Destination address -> output port. Empty: dst % n_ports.
  std::map<u8, std::size_t> routes;
};

class RouterModule : public sim::Module {
 public:
  struct Stats {
    u64 accepted = 0;          // entered an input buffer
    u64 dropped_input_full = 0;
    u64 processed = 0;         // popped by the main process
    u64 forwarded = 0;
    u64 dropped_bad_checksum = 0;
    u64 dropped_no_route = 0;
    u64 dropped_verdict_timeout = 0;
    u64 checksum_requests = 0;  // remote verdicts requested
  };

  /// `registry` is required in remote-checksum mode.
  RouterModule(sim::Kernel& kernel, RouterConfig config,
               cosim::DriverRegistry* registry = nullptr);

  /// Fabric variant: one remote verifier per registry, each with its own
  /// driver-port pair and interrupt line at the SAME device addresses —
  /// per-node registries keep them apart. A packet arriving on input port p
  /// is verified by verifier p % registries.size() (the router_fabric case
  /// study maps one board per router port). One registry behaves exactly
  /// like the two-party constructor.
  RouterModule(sim::Kernel& kernel, RouterConfig config,
               const std::vector<cosim::DriverRegistry*>& registries);

  /// Feeds a packet into input port `port`; false (and a drop count) when
  /// the buffer is full. Generators call this.
  bool offer(std::size_t port, Packet packet);

  [[nodiscard]] sim::Fifo<Packet>& output(std::size_t port) {
    return *outputs_[port];
  }
  [[nodiscard]] std::size_t input_occupancy(std::size_t port) const {
    return inputs_[port]->size();
  }

  /// Device interrupt line (remote mode); wire to
  /// CosimKernel::watch_interrupt. With several verifiers this is
  /// verifier 0's line.
  [[nodiscard]] sim::BoolSignal& irq() { return irq_; }

  /// Verifier v's interrupt line (remote mode; wire each to its node via
  /// Fabric::watch_interrupt).
  [[nodiscard]] sim::BoolSignal& irq(std::size_t verifier) {
    return *verifiers_[verifier].irq;
  }
  [[nodiscard]] std::size_t verifier_count() const {
    return verifiers_.size();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  /// True when every accepted packet has been fully processed.
  [[nodiscard]] bool drained() const;

 private:
  /// One remote checksum endpoint: driver-port pair + interrupt line.
  struct Verifier {
    sim::BoolSignal* irq;  // irq_ for verifier 0, owned lines beyond
    std::unique_ptr<cosim::DriverOut<Bytes>> packet_out;
    std::unique_ptr<cosim::DriverIn<u32>> verdict_in;
  };

  void main_loop();
  /// nullopt = the board never answered within the verdict timeout.
  [[nodiscard]] std::optional<bool> verify_remote(const Packet& packet,
                                                  std::size_t in_port);
  [[nodiscard]] std::size_t route_of(u8 dst) const;

  RouterConfig config_;
  std::vector<std::unique_ptr<sim::Fifo<Packet>>> inputs_;
  std::vector<std::unique_ptr<sim::Fifo<Packet>>> outputs_;
  sim::BoolSignal irq_;
  std::vector<std::unique_ptr<sim::BoolSignal>> extra_irqs_;
  std::vector<Verifier> verifiers_;
  /// The packet main_loop() is working on. It waits out the pipeline and
  /// the verdict while holding it, so the module owns it, not the thread
  /// process's frame: a kernel torn down mid-wait never unwinds that frame
  /// (fiber.hpp).
  Packet in_flight_;
  Stats stats_;
};

}  // namespace vhp::router
