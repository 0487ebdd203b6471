#include "vhp/cosim/session.hpp"

#include <utility>

namespace vhp::cosim {

namespace {

/// The one-node fabric a session is: its RunConfig and its board.
fabric::FabricConfig one_node(SessionConfig config) {
  fabric::FabricNodeConfig node;
  node.board = std::move(config.board);
  fabric::FabricConfig fabric;
  static_cast<RunConfig&>(fabric) = std::move(config);
  fabric.nodes.push_back(std::move(node));
  return fabric;
}

}  // namespace

Status SessionConfig::validate() const { return one_node(*this).validate(); }

CosimSession::CosimSession(SessionConfig config)
    : fabric_(one_node(std::move(config))) {}

}  // namespace vhp::cosim
