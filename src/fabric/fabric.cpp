#include "vhp/fabric/fabric.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <stdexcept>
#include <utility>

#include "vhp/common/format.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::fabric {

namespace {

/// The master kernel's configuration: a timed CosimKernel over every link.
cosim::CosimConfig master_config(const FabricConfig& config) {
  cosim::CosimConfig master;
  master.sync = config.sync;
  master.clock_period = config.clock_period;
  master.data_poll_interval = config.data_poll_interval;
  master.parallel_workers = config.parallel_workers;
  return master;
}

}  // namespace

Status FabricConfig::validate() const {
  if (nodes.empty()) {
    return Status{StatusCode::kInvalidArgument,
                  "FabricConfig: at least one node required"};
  }
  if (Status s = master_config(*this).validate(); !s.ok()) return s;
  if (Status s = sync.validate(nodes.size()); !s.ok()) return s;
  if (Status s = LinkConfig::validate("FabricConfig"); !s.ok()) return s;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FabricNodeConfig& node = nodes[i];
    if (node.external) continue;
    if (node.board.free_running) {
      return Status{
          StatusCode::kInvalidArgument,
          strformat("FabricConfig: node {} is free-running; a fabric node "
                    "must be budgeted to take part in the barrier",
                    i)};
    }
    if (Status s = node.board.validate(); !s.ok()) {
      return Status{s.code(),
                    strformat("FabricConfig: node {}: {}", i, s.message())};
    }
  }
  return Status::Ok();
}

FabricConfigBuilder& FabricConfigBuilder::add_node(std::string name) {
  FabricNodeConfig node;
  node.name = std::move(name);
  config_.nodes.push_back(std::move(node));
  return *this;
}

FabricConfigBuilder& FabricConfigBuilder::add_node(FabricNodeConfig node) {
  config_.nodes.push_back(std::move(node));
  return *this;
}

FabricConfigBuilder& FabricConfigBuilder::add_external_node(std::string name) {
  FabricNodeConfig node;
  node.name = std::move(name);
  node.external = true;
  config_.nodes.push_back(std::move(node));
  return *this;
}

board::BoardConfig& FabricConfigBuilder::last_board() {
  if (config_.nodes.empty()) {
    throw std::logic_error("FabricConfigBuilder: last_board() before any "
                           "add_node()");
  }
  return config_.nodes.back().board;
}

Fabric::Fabric(FabricConfig config)
    : config_(std::move(config)),
      hub_(std::make_unique<obs::Hub>(config_.obs)) {
  Status valid = config_.validate();
  if (!valid.ok()) throw std::invalid_argument(valid.to_string());

  const std::size_t n = config_.nodes.size();
  std::vector<obs::Hub*> board_hubs;
  std::vector<std::string> hw_labels;
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    node->config = config_.nodes[i];
    if (node->config.name.empty()) node->config.name = strformat("node{}", i);
    node->hub = std::make_unique<obs::Hub>(config_.obs);
    // One clock across the fabric: node-side spans and recorded frames
    // timestamp against the master's epochs, so cross-hub records compare
    // directly (the analyzer joins them on wall time).
    node->hub->timeline().set_epoch(hub_->timeline().epoch());
    node->hub->board_recorder().set_epoch(hub_->hw_recorder().epoch());
    board_hubs.push_back(node->hub.get());
    hw_labels.push_back("hw." + node->config.name);
    nodes_.push_back(std::move(node));
  }
  // The master records every node's link into ONE ring, each frame stamped
  // with its node id — the merged recording diffs and replays per node.
  // Each board records its own side into its node hub.
  cosim::Links links =
      cosim::make_links(config_, {}, *hub_, board_hubs, hw_labels);
  schedule_ = std::move(links.schedule);

  std::vector<cosim::MasterLink> master_links;
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = *nodes_[i];
    const std::string& name = node.config.name;
    master_links.push_back({name, std::move(links.pairs[i].hw)});
    net::CosimLink board_side = std::move(links.pairs[i].board);
    if (node.config.external) {
      node.board_link = std::move(board_side);
      continue;
    }
    board::BoardConfig board_config = node.config.board;
    if (board_config.name.empty()) board_config.name = name;
    // Adaptive mode needs every board's acks to carry its lookahead; the
    // board-side lookahead is conservative by construction, so opting the
    // boards in wholesale is always correct.
    if (config_.sync.is_adaptive()) board_config.advertise_lookahead = true;
    if (config_.event_loop) {
      // Constructed here (so apps/DSRs configure before start_boards),
      // booted and pumped exclusively on the loop thread — the same
      // construct-here/run-there split BoardHost uses.
      node.loop_board = std::make_unique<board::Board>(
          board_config, std::move(board_side), node.hub.get());
    } else {
      node.host = std::make_unique<board::BoardHost>(
          board_config, std::move(board_side), node.hub.get());
    }
    node.hub->board_recorder().set_board_time_source(
        [board = node.host ? &node.host->board() : node.loop_board.get()] {
          return board->kernel().tick_count().value();
        });
  }

  master_ = std::make_unique<cosim::CosimKernel>(
      std::move(master_links), master_config(config_), hub_.get());
  hub_->hw_recorder().set_hw_time_source(
      [master = master_.get()] { return master->cycle(); });
  hub_->metrics().gauge("fabric.nodes").set(static_cast<i64>(n));
}

Fabric::~Fabric() { finish(); }

Fabric::Node& Fabric::node_at(std::size_t node) {
  if (node >= nodes_.size()) {
    throw std::out_of_range(
        strformat("fabric: node {} of {}", node, nodes_.size()));
  }
  return *nodes_[node];
}

cosim::DriverRegistry& Fabric::registry(std::size_t node) {
  return master_->registry(node);
}

board::Board& Fabric::board(std::size_t node) {
  Node& n = node_at(node);
  if (n.host) return n.host->board();
  if (n.loop_board) return *n.loop_board;
  throw std::logic_error(
      strformat("fabric: node {} ({}) is external, it has no board", node,
                n.config.name));
}

net::CosimLink Fabric::take_board_link(std::size_t node) {
  Node& n = node_at(node);
  if (!n.config.external) {
    throw std::logic_error(
        strformat("fabric: node {} ({}) is not external", node,
                  n.config.name));
  }
  if (!n.board_link.has_value()) {
    throw std::logic_error(
        strformat("fabric: board link of node {} already taken", node));
  }
  net::CosimLink link = std::move(*n.board_link);
  n.board_link.reset();
  return link;
}

obs::Hub& Fabric::node_obs(std::size_t node) { return *node_at(node).hub; }

void Fabric::start_boards() {
  if (started_) return;
  started_ = true;
  for (auto& node : nodes_) {
    if (node->host) node->host->start();
  }
  if (!config_.event_loop) return;
  // Event-loop mode: one thread pumps every board. Boot and all pumping
  // happen on that thread (fibers are not migratable); each board's
  // transport doorbells wake exactly that board, and a coarse fallback
  // timer covers anything without an fd.
  loop_ = std::make_unique<svc::EventLoop>(hub_.get());
  for (auto& node : nodes_) {
    board::Board* b = node->loop_board.get();
    if (b == nullptr) continue;
    loop_->post([this, b] {
      b->boot();
      (void)b->pump();  // first pump sends the initial freeze ack
      for (int fd : b->readable_fds()) {
        Status s = loop_->watch(fd, [b] { (void)b->pump(); });
        if (!s.ok()) log_.warn("watch({}) failed: {}", fd, s.to_string());
      }
    });
  }
  // One-shot chain (schedule() has no periodic mode): the tick lives in
  // the fabric and re-schedules a copy of itself — no ownership cycle.
  loop_tick_ = [this] {
    for (auto& node : nodes_) {
      if (node->loop_board) (void)node->loop_board->pump();
    }
    (void)loop_->schedule(std::chrono::milliseconds{1}, loop_tick_);
  };
  (void)loop_->schedule(std::chrono::milliseconds{1}, loop_tick_);
  loop_thread_ = std::thread([this] { loop_->run(); });
}

void Fabric::finish() {
  if (finished_) return;
  finished_ = true;
  // The telemetry provider reaches back into this Fabric; stop it before
  // anything it reads starts tearing down.
  hub_->stop_telemetry();
  master_->finish();  // flush, SHUTDOWN, close evicted nodes' links
  for (auto& node : nodes_) {
    if (node->host) node->host->join();
  }
  if (loop_) {
    // Let every loop-hosted board consume its SHUTDOWN (one pump suffices:
    // the frame is already in its clock queue), then stop the loop.
    std::promise<void> drained;
    loop_->post([this, &drained] {
      for (auto& node : nodes_) {
        if (node->loop_board) (void)node->loop_board->pump();
      }
      drained.set_value();
    });
    (void)drained.get_future().wait_for(std::chrono::seconds{5});
    loop_->stop();
    if (loop_thread_.joinable()) loop_thread_.join();
  }
}

std::string Fabric::metrics_json() {
  std::vector<std::pair<std::string, obs::Hub*>> hubs;
  hubs.reserve(nodes_.size() + 1);
  hubs.emplace_back("", hub_.get());
  for (auto& node : nodes_) {
    hubs.emplace_back(node->config.name + ".", node->hub.get());
  }
  std::string doc = obs::merged_metrics_json(hubs);
  if (hub_->timeline().enabled() && !doc.empty() && doc.back() == '}') {
    doc.insert(doc.size() - 1, ",\"timeline\":" +
                                   obs::timeline_analysis_json(
                                       timeline_analysis()));
  }
  return doc;
}

std::vector<obs::SpanRecord> Fabric::timeline_spans() {
  std::vector<obs::SpanRecord> spans = hub_->timeline().snapshot();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Each board records its spans as node 0 (it cannot know its fabric
    // slot); re-stamp them with the slot id so the analyzer joins them
    // against the coordinator's per-node waits.
    for (obs::SpanRecord s : nodes_[i]->hub->timeline().snapshot()) {
      s.node = static_cast<u32>(i);
      spans.push_back(s);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return spans;
}

std::map<u32, std::string> Fabric::node_names() const {
  std::map<u32, std::string> names;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    names[static_cast<u32>(i)] = nodes_[i]->config.name;
  }
  return names;
}

obs::TimelineAnalysis Fabric::timeline_analysis() {
  return obs::analyze_spans(timeline_spans(), node_names());
}

Status Fabric::serve_telemetry(u16 port) {
  return hub_->serve_telemetry(port, [this] { return metrics_json(); });
}

Status Fabric::write_metrics_json(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status{StatusCode::kUnavailable, "cannot open " + path};
  f << metrics_json();
  f.close();
  if (!f) return Status{StatusCode::kUnavailable, "write failed: " + path};
  return Status::Ok();
}

Status Fabric::write_recordings(
    const std::string& prefix,
    const std::map<std::string, std::string>& tags) {
  if (!config_.obs.record.enabled) {
    return Status{StatusCode::kFailedPrecondition,
                  "flight recorder is disabled (FabricConfig::obs.record)"};
  }
  std::map<std::string, std::string> all = tags;
  all["t_sync"] = strformat("{}", config_.sync.quantum());
  all["adaptive"] = config_.sync.is_adaptive() ? "1" : "0";
  all["nodes"] = strformat("{}", nodes_.size());
  Status s = obs::write_recording(
      prefix + ".hw.vhprec", obs::snapshot_recording(hub_->hw_recorder(), all),
      obs::RecordingFormat::kBinary);
  if (!s.ok()) return s;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    std::map<std::string, std::string> node_tags = all;
    node_tags["node"] = strformat("{}", i);
    node_tags["node_name"] = node.config.name;
    s = obs::write_recording(
        prefix + "." + node.config.name + ".board.vhprec",
        obs::snapshot_recording(node.hub->board_recorder(), node_tags),
        obs::RecordingFormat::kBinary);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace vhp::fabric
