#include "vhp/fabric/fabric.hpp"

#include <csignal>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "vhp/common/format.hpp"

namespace vhp::fabric {

namespace {

// The signal handler needs a fabric to flush; track the most recently
// constructed live one. A plain atomic pointer: fabrics unregister in their
// destructor, and the handler only ever reads it once on the way down.
std::atomic<Fabric*> g_postmortem_fabric{nullptr};

extern "C" void postmortem_signal_handler(int signum) {
  if (Fabric* fabric = g_postmortem_fabric.load()) {
    fabric->dump_postmortem(strformat("signal {}", signum));
  }
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

}  // namespace

Status FabricConfig::validate() const {
  if (nodes.empty()) {
    return Status{StatusCode::kInvalidArgument,
                  "FabricConfig: at least one node required"};
  }
  if (Status s = cosim.validate(); !s.ok()) return s;
  if (cosim.timed) {
    if (Status s = cosim.sync.validate(nodes.size()); !s.ok()) return s;
  }
  if (Status s = LinkConfig::validate("FabricConfig"); !s.ok()) return s;
  if (Status s = obs.validate("FabricConfig"); !s.ok()) return s;
  if (batch_frames && !cosim.timed) {
    return Status{StatusCode::kInvalidArgument,
                  "FabricConfig: batch_frames requires timed mode — a "
                  "free-running board has no quantum boundary to flush at"};
  }
  if (cosim.sync.evict_after_misses() > 0 && nodes.size() < 2) {
    return Status{StatusCode::kInvalidArgument,
                  "FabricConfig: sync.evict_after(k) needs at least two "
                  "nodes — evicting the only board would leave the master "
                  "simulating alone"};
  }
  std::map<std::string, std::size_t> named;  // resolved name -> node
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto [first, fresh] =
        named.emplace(cosim::node_name(nodes[i].name, i), i);
    if (!fresh) {
      return Status{
          StatusCode::kInvalidArgument,
          strformat("FabricConfig: nodes {} and {} are both named \"{}\"; "
                    "node names key the metrics and the recordings",
                    first->second, i, first->first)};
    }
    const FabricNodeConfig& node = nodes[i];
    if (node.external) continue;
    // An untimed master must face a free-running board, or the board would
    // freeze forever waiting for grants; a timed one, a budgeted board that
    // takes part in the barrier.
    if (node.board.free_running == cosim.timed) {
      return Status{
          StatusCode::kInvalidArgument,
          strformat("FabricConfig: node {}: cosim.timed and "
                    "board.free_running must be opposite",
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
    node->config.name = cosim::node_name(node->config.name, i);
    node->hub = hub_.get();
    if (n > 1) {
      // N boards count under identical board.* keys: each gets a hub of
      // its own. One clock across the fabric: a node hub's spans and
      // recorded frames stamp against its timeline's epoch, re-based onto
      // the master's, so cross-hub records compare directly (the analyzer
      // joins them on wall time).
      node->own_hub = std::make_unique<obs::Hub>(config_.obs);
      node->own_hub->timeline().set_epoch(hub_->timeline().epoch());
      node->hub = node->own_hub.get();
    }
    board_hubs.push_back(node->hub);
    hw_labels.push_back("hw." + node->config.name);
    nodes_.push_back(std::move(node));
  }
  // The master records every node's link into ONE ring, each frame stamped
  // with its node id — the merged recording diffs and replays per node.
  // Each board records its own side into its node hub.
  cosim::Links links =
      cosim::make_links(config_, *hub_, board_hubs, hw_labels);
  schedule_ = std::move(links.schedule);

  // Adaptive mode needs every board's acks to carry its lookahead; the
  // board-side lookahead is conservative by construction, so opting the
  // boards in wholesale is always correct.
  const bool advertise =
      config_.cosim.timed && config_.cosim.sync.is_adaptive();
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
    if (advertise) board_config.advertise_lookahead = true;
    node.board = std::make_unique<board::Board>(
        board_config, std::move(board_side), node.hub);
    // Virtual-time stamps: each recorder is driven from its own side's
    // thread, so it reads that side's clock only (the other field stays 0).
    node.hub->board_recorder().set_board_time_source(
        [board = node.board.get()] {
          return board->kernel().tick_count().value();
        });
  }

  master_ = std::make_unique<cosim::CosimKernel>(
      std::move(master_links), config_.cosim, hub_.get());
  hub_->hw_recorder().set_hw_time_source(
      [master = master_.get()] { return master->cycle(); });
  hub_->metrics().gauge("fabric.nodes").set(static_cast<i64>(n));
  g_postmortem_fabric.store(this);
}

Fabric::~Fabric() {
  Fabric* self = this;
  g_postmortem_fabric.compare_exchange_strong(self, nullptr);
  finish();
}

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
  if (n.board) return *n.board;
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

Status Fabric::run_cycles(u64 cycles) {
  Status s = master_->run_cycles(cycles);
  if (!s.ok()) dump_postmortem(s.to_string());
  return s;
}

void Fabric::start_boards() {
  if (started_) return;
  started_ = true;
  std::vector<board::Board*> boards;
  for (auto& node : nodes_) {
    if (node->board) boards.push_back(node->board.get());
  }
  if (config_.event_loop) {
    board_threads_.emplace_back(
        [boards] { board::Board::run_boards(boards); });
    return;
  }
  for (board::Board* board : boards) {
    board_threads_.emplace_back([board] { board->run(); });
  }
}

void Fabric::finish() {
  if (!finished_) master_->finish();  // flush, SHUTDOWN, close evicted links
  finished_ = true;
  // Every call joins: boards started after an earlier finish() take the
  // SHUTDOWN it queued and halt, and their threads must not outlive us.
  for (std::thread& thread : board_threads_) {
    if (thread.joinable()) thread.join();
  }
}

std::string Fabric::metrics_json() {
  std::vector<std::pair<std::string, obs::Hub*>> hubs;
  hubs.reserve(nodes_.size() + 1);
  hubs.emplace_back("", hub_.get());
  for (auto& node : nodes_) {
    if (node->own_hub) {
      hubs.emplace_back(node->config.name + ".", node->own_hub.get());
    }
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
    if (!nodes_[i]->own_hub) continue;  // a lone node's spans are in hub_'s
    // Each board records its spans as node 0 (it cannot know its fabric
    // slot); re-stamp them with the slot id so the analyzer joins them
    // against the coordinator's per-node waits.
    for (obs::SpanRecord s : nodes_[i]->own_hub->timeline().snapshot()) {
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

Status Fabric::write_metrics_json(const std::string& path) {
  return obs::write_text_file(path, metrics_json());
}

Status Fabric::write_sides(const std::string& prefix,
                           std::map<std::string, std::string> tags,
                           obs::RecordingFormat format) {
  // Config echo: enough to rebuild a matching lone-side configuration for
  // replay (net::ReplaySession) without the original command line.
  const cosim::SyncPolicy& policy = config_.cosim.sync;
  tags["t_sync"] = strformat("{}", policy.quantum());
  tags["adaptive"] = policy.is_adaptive() ? "1" : "0";
  tags["timed"] = config_.cosim.timed ? "1" : "0";
  // An observed run stamps round ids on its CLOCK traffic; a replay must
  // stamp them too to send the same CLOCK_TICKs.
  tags["observability"] = config_.obs.timeline.enabled ? "1" : "0";
  tags["nodes"] = strformat("{}", nodes_.size());
  const std::string ext =
      format == obs::RecordingFormat::kBinary ? ".vhprec" : ".jsonl";
  Status first = obs::write_recording(
      prefix + ".hw" + ext, obs::snapshot_recording(hub_->hw_recorder(), tags),
      format);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = *nodes_[i];
    const board::BoardConfig& board = node.config.board;
    std::map<std::string, std::string> node_tags = tags;
    node_tags["node"] = strformat("{}", i);
    node_tags["node_name"] = node.config.name;
    node_tags["cycles_per_tick"] =
        strformat("{}", board.rtos.cycles_per_tick);
    node_tags["timeslice_ticks"] =
        strformat("{}", board.rtos.timeslice_ticks);
    node_tags["cycles_per_sim_cycle"] =
        strformat("{}", board.cycles_per_sim_cycle);
    Status s = obs::write_recording(
        prefix + "." + node.config.name + ".board" + ext,
        obs::snapshot_recording(node.hub->board_recorder(), node_tags),
        format);
    if (first.ok()) first = s;
  }
  return first;
}

Status Fabric::write_recordings(
    const std::string& prefix,
    const std::map<std::string, std::string>& tags) {
  if (!config_.obs.record.enabled) {
    return Status{StatusCode::kFailedPrecondition,
                  "flight recorder is disabled (obs.record)"};
  }
  return write_sides(prefix, tags, obs::RecordingFormat::kBinary);
}

void Fabric::dump_postmortem(const std::string& reason) {
  if (!config_.obs.record.enabled || config_.postmortem_prefix.empty()) {
    return;
  }
  const std::string& prefix = config_.postmortem_prefix;
  Status s = write_sides(prefix, {{"reason", reason}},
                         obs::RecordingFormat::kJsonl);
  if (s.ok()) {
    log_.warn("post-mortem: {} frames -> {}.*.jsonl ({})",
              hub_->hw_recorder().recorded(), prefix, reason);
  } else {
    log_.error("post-mortem dump failed: {}", s.to_string());
  }
}

void Fabric::install_postmortem_signal_handler() {
  std::signal(SIGINT, &postmortem_signal_handler);
  std::signal(SIGTERM, &postmortem_signal_handler);
}

}  // namespace vhp::fabric
