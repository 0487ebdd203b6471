#include "vhp/cosim/links.hpp"

#include <stdexcept>
#include <thread>

#include "vhp/common/format.hpp"
#include "vhp/fault/inject.hpp"
#include "vhp/net/batching.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/instrumented.hpp"
#include "vhp/net/shm_ring.hpp"
#include "vhp/net/tcp.hpp"

namespace vhp::cosim {

namespace {

/// One raw, undecorated link over `transport`. Each link is independent —
/// the coordinator's barrier is the only coupling between a fabric's nodes.
net::LinkPair make_raw_link(TransportKind transport) {
  if (transport == TransportKind::kInProc) return net::make_inproc_link_pair();
  if (transport == TransportKind::kShm) return net::make_shm_link_pair();
  // TCP over loopback, one listener and port triple per link:
  // accept_link() blocks until all three peers are connected, so the
  // board-side connect runs on its own thread.
  net::TcpLinkListener listener;
  Result<net::CosimLink> board{
      Status{StatusCode::kInternal, "connector thread did not run"}};
  std::thread connector(
      [&] { board = net::connect_tcp_link(listener.ports()); });
  Result<net::CosimLink> hw = listener.accept_link();
  connector.join();
  const Status failed = !hw.ok() ? hw.status() : board.status();
  if (!failed.ok()) {
    throw std::runtime_error("TCP link set-up failed: " + failed.to_string());
  }
  return net::LinkPair{std::move(hw).value(), std::move(board).value()};
}

}  // namespace

Status LinkConfig::validate(std::string_view owner) const {
  if (Status s = fault_plan.validate(); !s.ok()) return s;
  if (fault_plan.armed() && !fault_plan.lossless() && !recovery.enabled) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("{}: the fault plan can lose or mutate frames; "
                            "enable the recovery layer (recovery.enabled)",
                            owner)};
  }
  if (batch_frames && recovery.enabled) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("{}: batch_frames is incompatible with the "
                            "recovery layer — retransmission acks would sit "
                            "in the peer's batch buffer until its next flush "
                            "point, so the recovery flush would spin against "
                            "held acks",
                            owner)};
  }
  return Status::Ok();
}

Links make_links(const LinkConfig& config, obs::Hub& hw_hub,
                 const std::vector<obs::Hub*>& board_hubs,
                 const std::vector<std::string>& hw_labels) {
  Links links;
  links.schedule = fault::compile(config.fault_plan, &hw_hub);
  if (links.schedule) {
    // Injected faults land as flagged marker frames in the master
    // recording, so vhptrace and the divergence checker can tell injected
    // loss from real divergence.
    links.schedule->set_observer([hub = &hw_hub](const fault::FaultEvent& e) {
      hub->hw_recorder().note_fault(e.port, e.dir, fault::to_string(e.kind),
                                    e.node);
    });
  }
  for (std::size_t i = 0; i < board_hubs.size(); ++i) {
    net::LinkPair pair = make_raw_link(config.transport);
    obs::Hub& board_hub = *board_hubs[i];
    const std::string& label = hw_labels[i];
    const u32 node = static_cast<u32>(i);
    if (config.batch_frames) {
      pair.hw = net::batch_link(std::move(pair.hw), &hw_hub, label);
      pair.board = net::batch_link(std::move(pair.board), &board_hub, "board");
    }
    pair = net::emulate_latency(std::move(pair), config.link_emulation);
    if (links.schedule) {
      pair.hw = fault::inject_link(std::move(pair.hw), links.schedule, node);
    }
    if (config.recovery.enabled) {
      pair.hw = fault::reliable_link(std::move(pair.hw), config.recovery,
                                     &hw_hub, label);
      pair.board = fault::reliable_link(std::move(pair.board),
                                        config.recovery, &board_hub, "board");
    }
    // Per-frame link accounting costs a virtual hop per operation; wrap
    // only when observability is on.
    if (hw_hub.enabled()) {
      pair.hw = net::instrument_link(std::move(pair.hw), hw_hub, label);
    }
    if (board_hub.enabled()) {
      pair.board = net::instrument_link(std::move(pair.board), board_hub,
                                        "board");
    }
    // record_link is an identity when recording is off.
    pair.hw = net::record_link(std::move(pair.hw), hw_hub.hw_recorder(), node);
    pair.board = net::record_link(std::move(pair.board),
                                  board_hub.board_recorder(), node);
    links.pairs.push_back(std::move(pair));
  }
  return links;
}

}  // namespace vhp::cosim
