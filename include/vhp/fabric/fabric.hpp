// vhp::fabric — N-node co-simulation in one process.
//
// One simulated-time master (a cosim::CosimKernel over N links) orchestrates
// N virtual boards, each on its own host thread behind its own three-port
// link (inproc, shm or TCP over loopback). The paper's two-party virtual
// tick generalizes to an N-party conservative barrier
// (cosim::SyncCoordinator): every node is granted quanta of simulated time
// and the master advances only once all due nodes have checked in, so
// adding boards never weakens the timing guarantee. A two-party
// CosimSession is the same master over one link.
//
// Per-node isolation:
//   * each node has its own DriverRegistry — identical device addresses on
//     different boards address different devices;
//   * each node has its own obs::Hub ("node0", ...) whose metrics merge
//     into one document via obs::merged_metrics_json;
//   * the master-side flight recorder stamps every frame with its node id,
//     so one fabric recording diffs/replays per node (net::ReplayOptions).
//
// Thread/fiber ownership (see DESIGN.md §8): the master thread owns the
// sim::Kernel and all HW-side link endpoints; each board's rtos::Kernel and
// its fiber group live entirely on that board's host thread. No fiber is
// ever touched from two host threads.
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
#include <vector>

#include "vhp/board/board.hpp"
#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/cosim/links.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/signal.hpp"
#include "vhp/svc/event_loop.hpp"

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

/// The link knobs (transport, batching, fault plan on every node's hw
/// side, recovery on both sides) come from cosim::LinkConfig, shared with
/// the session.
struct FabricConfig : cosim::LinkConfig {
  /// The synchronization policy: default quantum (the paper's T_sync),
  /// per-node quanta (SyncPolicy::node_quantum, indexed like `nodes`),
  /// adaptive lookahead mode — every non-external board is then configured
  /// to advertise its lookahead (wire v2 acks) — the straggler watchdog and
  /// eviction.
  cosim::SyncPolicy sync{};
  sim::SimTime clock_period = 2;
  /// Poll each node's DATA port every this many cycles (as CosimConfig).
  u64 data_poll_interval = 1;
  /// Evaluation lanes of the deterministic parallel master kernel
  /// (including the calling thread); 0 = serial. Bit-identical results
  /// either way — see sim::Kernel::set_parallel.
  u64 parallel_workers = 0;
  /// Event-loop hosting (DESIGN.md §14): all non-external boards are
  /// pumped cooperatively by ONE svc::EventLoop thread instead of one
  /// parked BoardHost thread each — transport doorbells wake exactly the
  /// board that has input. Virtual-time behavior is identical; only the
  /// host-thread economics change.
  bool event_loop = false;
  /// Applied to the master hub and every node hub alike.
  obs::ObsConfig obs{};
  std::vector<FabricNodeConfig> nodes;

  /// CosimConfig::validate for the master, at least one node, and per
  /// board node: BoardConfig::validate and a budgeted board (a free-running
  /// board cannot take part in a barrier); plus LinkConfig::validate.
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
  /// One event-loop thread pumps all boards (FabricConfig::event_loop).
  FabricConfigBuilder& event_loop(bool on = true) {
    config_.event_loop = on;
    return *this;
  }

  /// The paper's name for the policy quantum: sync.quantum(cycles).
  FabricConfigBuilder& t_sync(u64 cycles) {
    config_.sync.quantum(cycles);
    return *this;
  }
  /// The synchronization policy (FabricConfig::sync), replacing any
  /// earlier t_sync().
  FabricConfigBuilder& sync(cosim::SyncPolicy policy) {
    config_.sync = std::move(policy);
    return *this;
  }
  FabricConfigBuilder& clock_period(sim::SimTime period) {
    config_.clock_period = period;
    return *this;
  }
  FabricConfigBuilder& data_poll_interval(u64 cycles) {
    config_.data_poll_interval = cycles;
    return *this;
  }
  /// Parallel master kernel with `workers` evaluation lanes (0 = serial);
  /// bit-identical results either way.
  FabricConfigBuilder& parallel(u64 workers) {
    config_.parallel_workers = workers;
    return *this;
  }
  /// Arms the cross-node timeline (ObsConfig::timeline): per-round span
  /// rings on both sides of every link plus wire-v3 round stamping on
  /// CLOCK_TICK/TIME_ACK. Off by default — armed runs grow those frames,
  /// so recordings are no longer byte-exact against unarmed ones.
  FabricConfigBuilder& timeline(bool on = true) {
    config_.obs.timeline.enabled = on;
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
  /// the node-stamped flight recorder) and the per-node hubs.
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

  /// Boots every non-external node's board host thread.
  void start_boards();

  /// Gathers every node's initial TIME_ACK. Implied by the first
  /// run_cycles(); the policy's watchdog bounds the wait.
  Status handshake() { return master_->handshake(); }

  /// Runs `cycles` HW clock cycles: per-node DATA service and interrupt
  /// propagation every cycle, the N-party barrier whenever any node's grant
  /// expires. Fails fast (straggler watchdog, transport error) with the
  /// offending node named in the Status.
  Status run_cycles(u64 cycles) { return master_->run_cycles(cycles); }

  [[nodiscard]] u64 cycle() const { return master_->cycle(); }

  /// Sends SHUTDOWN to every node and joins the board threads.
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

  /// Live telemetry: a TCP/JSON snapshot endpoint on the master hub whose
  /// provider is the merged metrics_json() (timeline fragment included).
  /// Port 0 binds an ephemeral port — read it back with telemetry_port().
  /// Stopped by finish(). Serves `vhptrace top`.
  Status serve_telemetry(u16 port = 0);
  [[nodiscard]] u16 telemetry_port() { return hub_->telemetry_port(); }

  /// Writes the master-side recorder (all nodes' links, node-stamped) as
  /// "<prefix>.hw.vhprec" and each node's board-side recorder as
  /// "<prefix>.<name>.board.vhprec". No-op Status unless obs.record is on.
  Status write_recordings(const std::string& prefix,
                          const std::map<std::string, std::string>& tags = {});

 private:
  struct Node {
    FabricNodeConfig config;  // name resolved
    std::optional<net::CosimLink> board_link;  // external, until taken
    std::unique_ptr<obs::Hub> hub;
    std::unique_ptr<board::BoardHost> host;  // null: external or event-loop
    /// Event-loop mode: the board owned directly (no host thread), pumped
    /// on the fabric's svc::EventLoop thread.
    std::unique_ptr<board::Board> loop_board;
  };

  [[nodiscard]] Node& node_at(std::size_t node);

  FabricConfig config_;
  Logger log_{"fabric"};

  std::shared_ptr<fault::FaultSchedule> schedule_;  // null when unarmed
  std::unique_ptr<obs::Hub> hub_;  // master side
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<cosim::CosimKernel> master_;

  /// Event-loop mode (FabricConfig::event_loop): one loop thread pumps
  /// every loop_board; created by start_boards(), joined by finish().
  std::unique_ptr<svc::EventLoop> loop_;
  /// Fallback pump tick: re-schedules itself (by copy) on the loop; owned
  /// here so the pending timer's copy holds no reference cycle.
  std::function<void()> loop_tick_;
  std::thread loop_thread_;

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace vhp::fabric
