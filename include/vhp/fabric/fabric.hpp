// vhp::fabric — N-node co-simulation in one process.
//
// One simulated-time master (a cosim::CosimKernel over N links) orchestrates
// N virtual boards, each behind its own three-port link (inproc, shm or TCP
// over loopback) and run by a fabric board thread (one per board, or one
// for all of them). The paper's two-party virtual tick generalizes to an
// N-party conservative barrier (cosim::SyncCoordinator): every node is
// granted quanta of simulated time and the master advances only once all
// due nodes have checked in, so adding boards never weakens the timing
// guarantee. A two-party
// cosim::CosimSession is a one-node Fabric: Fabric is the only code that
// builds hubs, links, the master and boards, validates configs, and writes
// recordings and post-mortems.
//
// Per-node isolation:
//   * each node has its own DriverRegistry — identical device addresses on
//     different boards address different devices;
//   * with two or more nodes, each node has its own obs::Hub ("node0", ...)
//     whose metrics merge into one document via obs::merged_metrics_json;
//     a lone node has no keys to keep apart and runs on the master's hub;
//   * the master-side flight recorder stamps every frame with its node id,
//     so one fabric recording diffs/replays per node (net::ReplayOptions).
//
// Thread/fiber ownership (see DESIGN.md §8): the master thread owns the
// sim::Kernel and all HW-side link endpoints; each board's rtos::Kernel and
// its fiber group live entirely on the board thread that runs it. No fiber
// is ever touched from two host threads.
//
// A node may be declared `external`: the fabric creates and decorates its
// link but spawns no board, handing the board-side endpoints to the caller.
// That slot can host any party speaking the protocol — a unit test driving
// raw channels, a model behind an FMI-style bridge — and is how the barrier
// logic is exercised fiber-free under TSan.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "vhp/board/board.hpp"
#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/cosim/links.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/signal.hpp"

namespace vhp::fabric {

struct FabricNodeConfig {
  /// Node identity: log tag, metrics namespace ("<name>." prefix in the
  /// merged document), recording label. Empty gets "node<i>".
  std::string name;
  board::BoardConfig board{};
  /// External party: the fabric creates the link and the barrier slot but
  /// spawns no board; take_board_link() hands out the board-side endpoints.
  bool external = false;
};

/// The shared knobs (links, master, observability, post-mortems) come from
/// cosim::RunConfig, as for a session.
struct FabricConfig : cosim::RunConfig {
  /// One host thread for every board: all non-external boards run in one
  /// Board::run_boards() loop instead of one board thread each (the
  /// default). Virtual-time behavior is identical; only the host-thread
  /// economics change.
  bool event_loop = false;
  std::vector<FabricNodeConfig> nodes;

  /// The one rule set of every co-simulation, sessions included:
  /// CosimConfig::validate, LinkConfig::validate and ObsConfig::validate;
  /// at least one node, with unique names once resolved ("node<i>" for an
  /// unnamed node i); timed, the sync policy for that many nodes. Per
  /// board node: BoardConfig::validate, and a board that is free-running
  /// exactly when cosim.timed is false. Batching needs timed mode (a
  /// free-running board has no quantum boundary to flush at), and
  /// sync.evict_after(k) needs at least two nodes.
  [[nodiscard]] Status validate() const;
};

/// Fluent construction of a validated FabricConfig:
///
///   auto cfg = FabricConfigBuilder{}
///                  .tcp()
///                  .sync(cosim::SyncPolicy{}.node_quantum(1, 250))
///                  .t_sync(1000)
///                  .add_node("port0")
///                  .add_node("port1")
///                  .build_or_throw();
class FabricConfigBuilder
    : public cosim::ConfigBuilder<FabricConfigBuilder, FabricConfig> {
 public:
  /// One host thread runs all boards (FabricConfig::event_loop).
  FabricConfigBuilder& event_loop(bool on = true) {
    config_.event_loop = on;
    return *this;
  }

  /// Appends a board node.
  FabricConfigBuilder& add_node(std::string name = {});
  /// Appends a board node with full board configuration.
  FabricConfigBuilder& add_node(FabricNodeConfig node);
  /// Appends an external (board-less) node — see FabricNodeConfig::external.
  FabricConfigBuilder& add_external_node(std::string name = {});
  /// Tweaks the most recently added node's board config in place.
  [[nodiscard]] board::BoardConfig& last_board();
};

class Fabric {
 public:
  /// Throws std::invalid_argument if `config.validate()` fails.
  explicit Fabric(FabricConfig config);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

  /// The master simulation. Build HDL modules against kernel() and the
  /// per-node registry(i) before start_boards()/run_cycles(). As with
  /// CosimSession, everything built against the kernel must be destroyed
  /// before the Fabric.
  [[nodiscard]] sim::Kernel& kernel() { return master_->kernel(); }
  [[nodiscard]] sim::Clock& clock() { return master_->clock(); }
  /// The master itself: one cosim::CosimKernel over every node's link.
  [[nodiscard]] cosim::CosimKernel& master() { return *master_; }

  /// Node i's device address space (DATA traffic of node i's link consults
  /// only this registry).
  [[nodiscard]] cosim::DriverRegistry& registry(std::size_t node);

  /// Node i's board (non-external nodes only). Configure apps and DSRs
  /// before start_boards().
  [[nodiscard]] board::Board& board(std::size_t node);

  /// Board-side link of an external node; callable once per node. The
  /// caller becomes that node's party: it must answer CLOCK_TICKs with
  /// TIME_ACKs (or be reported by the straggler watchdog).
  [[nodiscard]] net::CosimLink take_board_link(std::size_t node);

  /// The master-side hub (fabric.* barrier metrics, per-link accounting,
  /// the node-stamped flight recorder) and the per-node hubs. A one-node
  /// fabric has one hub: node_obs(0) is obs().
  [[nodiscard]] obs::Hub& obs() { return *hub_; }
  [[nodiscard]] obs::Hub& node_obs(std::size_t node);

  [[nodiscard]] cosim::SyncCoordinator& coordinator() {
    return master_->coordinator();
  }

  /// Eviction state (SyncPolicy::evict_after): is node i still in the
  /// barrier, and how many nodes are.
  [[nodiscard]] bool node_alive(std::size_t node) const {
    return master_->coordinator().alive(node);
  }
  [[nodiscard]] std::size_t alive_nodes() const {
    return master_->coordinator().alive_count();
  }

  /// Re-admits an evicted node at the current cycle (SyncCoordinator::rejoin
  /// — the returning party must announce itself with a TIME_ACK).
  Status rejoin_node(std::size_t node) {
    return coordinator().rejoin(node, cycle());
  }

  /// The compiled fault schedule; nullptr when the plan is unarmed.
  [[nodiscard]] fault::FaultSchedule* fault_schedule() {
    return schedule_.get();
  }

  /// Registers `line` of the master model as node i's interrupt source.
  void watch_interrupt(std::size_t node, sim::BoolSignal& line, u32 vector) {
    master_->watch_interrupt(node, line, vector);
  }

  /// Starts the board threads: one per non-external node, or one for all
  /// of them (FabricConfig::event_loop). Each runs Board::run_boards().
  void start_boards();

  /// Gathers every node's initial TIME_ACK. Implied by the first
  /// run_cycles(); the policy's watchdog bounds the wait.
  Status handshake() { return master_->handshake(); }

  /// Runs `cycles` HW clock cycles: interrupt propagation every cycle, the
  /// N-party barrier — with every node's DATA service — whenever any node's
  /// grant expires. Fails fast (straggler watchdog, transport error) with
  /// the offending node named in the Status, after a post-mortem dump
  /// (dump_postmortem).
  Status run_cycles(u64 cycles);

  [[nodiscard]] u64 cycle() const { return master_->cycle(); }

  /// Sends SHUTDOWN to every node (once) and joins the board threads: each
  /// returns once every board it runs has taken its SHUTDOWN (or seen its
  /// link close), so every board has halted when finish() returns. The
  /// destructor calls it.
  void finish();

  /// One metrics document spanning the master hub (unprefixed) and every
  /// node hub ("<name>." prefixes) — obs::merged_metrics_json. With the
  /// timeline armed the document carries a top-level "timeline" object:
  /// the critical-path analysis (per-node attribution, slowdown,
  /// reconciliation) over the spans recorded so far.
  [[nodiscard]] std::string metrics_json();
  Status write_metrics_json(const std::string& path);

  /// Merged span rings: the coordinator's spans from the master hub plus
  /// every node hub's board-side spans re-stamped with their fabric node id
  /// (a board records itself as node 0), sorted by start. All hubs share
  /// the master's epoch, so the timestamps compare directly. Empty unless
  /// ObsConfig::timeline is enabled.
  [[nodiscard]] std::vector<obs::SpanRecord> timeline_spans();

  /// node id -> resolved node name, as the analyzer and exporters want it.
  [[nodiscard]] std::map<u32, std::string> node_names() const;

  /// Critical-path analysis over timeline_spans().
  [[nodiscard]] obs::TimelineAnalysis timeline_analysis();

  /// Writes the master-side recorder (all nodes' links, node-stamped) as
  /// "<prefix>.hw.vhprec" and each node's board-side recorder as
  /// "<prefix>.<name>.board.vhprec". Every file echoes the config a replay
  /// needs (t_sync, adaptive, timed, observability, nodes); a board file
  /// adds its node, node_name and RTOS timing (cycles_per_tick,
  /// timeslice_ticks, cycles_per_sim_cycle). `tags` adds workload-specific
  /// ones. kFailedPrecondition unless obs.record is on.
  Status write_recordings(const std::string& prefix,
                          const std::map<std::string, std::string>& tags = {});

  /// Flushes the recorded frames of every side to
  /// "<postmortem_prefix>.hw.jsonl" and
  /// "<postmortem_prefix>.<name>.board.jsonl", tagged as write_recordings()
  /// does plus a "reason". Called
  /// automatically on run_cycles() errors; callable directly for
  /// watchdog-style tooling. No-op unless obs.record is on and the prefix
  /// is non-empty.
  void dump_postmortem(const std::string& reason);

  /// Best-effort crash dumps: on SIGINT/SIGTERM the most recently
  /// constructed live fabric flushes its rings, then the default handler
  /// runs. (File I/O from a signal handler is not strictly
  /// async-signal-safe — acceptable for a debug aid that fires on the way
  /// down.)
  static void install_postmortem_signal_handler();

 private:
  struct Node {
    FabricNodeConfig config;  // name resolved
    std::optional<net::CosimLink> board_link;  // external, until taken
    std::unique_ptr<obs::Hub> own_hub;  // null: the node runs on hub_
    obs::Hub* hub = nullptr;
    /// Null for an external node. Constructed here, so that apps and DSRs
    /// configure before start_boards(); booted and run on a board thread.
    std::unique_ptr<board::Board> board;
  };

  [[nodiscard]] Node& node_at(std::size_t node);
  /// write_recordings() and dump_postmortem(): every side's recorder as
  /// "<prefix>.hw<ext>" and "<prefix>.<name>.board<ext>", tagged with
  /// `tags` and the config echo. Writes every file; returns the first
  /// failure.
  Status write_sides(const std::string& prefix,
                     std::map<std::string, std::string> tags,
                     obs::RecordingFormat format);

  FabricConfig config_;
  Logger log_{"fabric"};

  std::shared_ptr<fault::FaultSchedule> schedule_;  // null when unarmed
  std::unique_ptr<obs::Hub> hub_;  // master side
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<cosim::CosimKernel> master_;
  /// Started by start_boards(), joined by finish().
  std::vector<std::thread> board_threads_;

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace vhp::fabric
