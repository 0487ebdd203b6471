#include "vhp/router/router.hpp"

#include <cassert>
#include <stdexcept>

#include "vhp/common/format.hpp"

namespace vhp::router {

RouterModule::RouterModule(sim::Kernel& kernel, RouterConfig config,
                           cosim::DriverRegistry* registry)
    : RouterModule(kernel, std::move(config),
                   registry == nullptr
                       ? std::vector<cosim::DriverRegistry*>{}
                       : std::vector<cosim::DriverRegistry*>{registry}) {}

RouterModule::RouterModule(
    sim::Kernel& kernel, RouterConfig config,
    const std::vector<cosim::DriverRegistry*>& registries)
    : Module(kernel, "router"), config_(std::move(config)),
      irq_(kernel, qualify("irq"), false) {
  if (config_.remote_checksum && registries.empty()) {
    throw std::invalid_argument(
        "RouterModule: remote checksum needs a DriverRegistry");
  }
  for (std::size_t i = 0; i < config_.n_ports; ++i) {
    inputs_.push_back(std::make_unique<sim::Fifo<Packet>>(
        kernel, qualify(strformat("in{}", i)), config_.buffer_depth));
    // Output queues model the downstream links; sized generously — the
    // paper's loss mechanism is input-buffer overflow.
    outputs_.push_back(std::make_unique<sim::Fifo<Packet>>(
        kernel, qualify(strformat("out{}", i)), 1024));
  }
  if (config_.remote_checksum) {
    // Verifier 0 keeps the classic names/line; further verifiers (fabric
    // mode, one board per port) get suffixed ports and their own lines.
    // All verifiers use the same device addresses — their registries are
    // per-node, so nothing collides.
    for (std::size_t v = 0; v < registries.size(); ++v) {
      assert(registries[v] != nullptr);
      const std::string suffix = v == 0 ? "" : strformat("{}", v);
      sim::BoolSignal* irq = &irq_;
      if (v != 0) {
        extra_irqs_.push_back(std::make_unique<sim::BoolSignal>(
            kernel, qualify("irq" + suffix), false));
        irq = extra_irqs_.back().get();
      }
      verifiers_.push_back(Verifier{
          irq,
          std::make_unique<cosim::DriverOut<Bytes>>(
              *registries[v], qualify("packet_out" + suffix),
              config_.packet_out_addr),
          std::make_unique<cosim::DriverIn<u32>>(
              kernel, *registries[v], qualify("verdict_in" + suffix),
              config_.verdict_in_addr)});
    }
  }
  thread("main", [this] { main_loop(); });
}

bool RouterModule::offer(std::size_t port, Packet packet) {
  assert(port < inputs_.size());
  if (!inputs_[port]->nb_write(std::move(packet))) {
    ++stats_.dropped_input_full;
    return false;
  }
  ++stats_.accepted;
  return true;
}

std::size_t RouterModule::route_of(u8 dst) const {
  if (config_.routes.empty()) return dst % config_.n_ports;
  auto it = config_.routes.find(dst);
  return it == config_.routes.end() ? config_.n_ports : it->second;
}

bool RouterModule::drained() const {
  // A packet is only done once its fate is decided — a popped packet whose
  // checksum verdict is still in flight is not drained.
  const u64 completed = stats_.forwarded + stats_.dropped_bad_checksum +
                        stats_.dropped_no_route +
                        stats_.dropped_verdict_timeout;
  if (completed != stats_.accepted) return false;
  for (const auto& in : inputs_) {
    if (!in->empty()) return false;
  }
  return true;
}

std::optional<bool> RouterModule::verify_remote(const Packet& packet,
                                                std::size_t in_port) {
  Verifier& verifier = verifiers_[in_port % verifiers_.size()];
  ++stats_.checksum_requests;
  verifier.packet_out->write(packet.pack());
  verifier.irq->write(true);  // sampled at the cycle boundary -> INT_RAISE
  bool ok = false;
  const sim::SimTime deadline_units =
      config_.verdict_timeout_cycles * config_.clock_period;
  sim::SimTime waited = 0;
  for (;;) {
    if (config_.verdict_timeout_cycles == 0) {
      sim::wait(verifier.verdict_in->data_written_event());
    } else {
      const sim::SimTime before = kernel().now();
      if (waited >= deadline_units ||
          !sim::wait_with_timeout(verifier.verdict_in->data_written_event(),
                                  deadline_units - waited)) {
        verifier.irq->write(false);
        sim::wait(config_.clock_period);
        return std::nullopt;  // counted once, in main_loop
      }
      waited += kernel().now() - before;
    }
    const u32 verdict = verifier.verdict_in->read();
    if ((verdict >> 1) == packet.id) {
      ok = (verdict & 1u) != 0;
      break;
    }
    // Stale verdict from a previous request; keep waiting.
  }
  verifier.irq->write(false);
  // Let the line settle low for a cycle so the next request produces a
  // fresh rising edge at the sampling points.
  sim::wait(config_.clock_period);
  return ok;
}

void RouterModule::main_loop() {
  const sim::SimTime period = config_.clock_period;
  std::size_t rr = 0;  // round-robin arbitration pointer
  Packet& packet = in_flight_;
  for (;;) {
    bool got = false;
    std::size_t in_port = 0;
    for (std::size_t k = 0; k < inputs_.size(); ++k) {
      const std::size_t i = (rr + k) % inputs_.size();
      if (inputs_[i]->nb_read(packet)) {
        rr = (i + 1) % inputs_.size();
        in_port = i;
        got = true;
        break;
      }
    }
    if (!got) {
      sim::wait(period);  // idle cycle
      continue;
    }
    ++stats_.processed;
    sim::wait(config_.proc_cycles * period);  // HW pipeline latency
    const std::optional<bool> ok =
        config_.remote_checksum ? verify_remote(packet, in_port)
                                : std::optional<bool>{packet.checksum_ok()};
    if (!ok.has_value()) {
      ++stats_.dropped_verdict_timeout;  // board never answered
      continue;
    }
    if (!*ok) {
      ++stats_.dropped_bad_checksum;
      continue;
    }
    const std::size_t out = route_of(packet.dst);
    if (out >= outputs_.size()) {
      ++stats_.dropped_no_route;
      continue;
    }
    outputs_[out]->write(std::move(packet));
    ++stats_.forwarded;
  }
}

}  // namespace vhp::router
