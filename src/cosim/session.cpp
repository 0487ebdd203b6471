#include "vhp/cosim/session.hpp"

#include <csignal>

#include <atomic>
#include <stdexcept>

#include "vhp/common/format.hpp"
#include "vhp/common/log.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::cosim {

namespace {

const Logger& session_log() {
  static const Logger log{"cosim"};
  return log;
}

// The signal handler needs a session to flush; track the most recently
// constructed live one. A plain atomic pointer: sessions unregister in
// their destructor, and the handler only ever reads it once on the way down.
std::atomic<CosimSession*> g_postmortem_session{nullptr};

extern "C" void postmortem_signal_handler(int signum) {
  if (CosimSession* session = g_postmortem_session.load()) {
    session->dump_postmortem(strformat("signal {}", signum));
  }
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

}  // namespace

Status SessionConfig::validate() const {
  Status s = cosim.validate();
  if (!s.ok()) return s;
  // Consistency: an untimed kernel must face a free-running board, or the
  // board would freeze forever waiting for grants.
  if (cosim.timed == board.free_running) {
    return Status{StatusCode::kInvalidArgument,
                  "SessionConfig: cosim.timed and board.free_running must be "
                  "opposite"};
  }
  if (s = board.validate(); !s.ok()) return s;
  if (s = LinkConfig::validate("SessionConfig"); !s.ok()) return s;
  if (cosim.sync.evict_after_misses() > 0) {
    return Status{StatusCode::kInvalidArgument,
                  "SessionConfig: sync.evict_after(k) needs a fabric — "
                  "evicting a session's only board would leave the master "
                  "simulating alone"};
  }
  if (batch_frames && !cosim.timed) {
    return Status{StatusCode::kInvalidArgument,
                  "SessionConfig: batch_frames requires timed mode — a "
                  "free-running board has no quantum boundary to flush at"};
  }
  return Status::Ok();
}

CosimSession::CosimSession(SessionConfig config) : config_(std::move(config)) {
  Status valid = config_.validate();
  if (!valid.ok()) throw std::invalid_argument(valid.to_string());
  // Adaptive mode needs the board's acks to carry its lookahead; the
  // board-side lookahead is conservative by construction, so opting the
  // board in whenever the master adapts is always correct.
  if (config_.cosim.timed && config_.cosim.sync.is_adaptive()) {
    config_.board.advertise_lookahead = true;
  }
  hub_ = std::make_unique<obs::Hub>(config_.obs);
  Links links = make_links(config_, config_.link_emulation, *hub_,
                           {hub_.get()}, {"hw"});
  schedule_ = std::move(links.schedule);
  net::LinkPair& pair = links.pairs.front();
  hw_ = std::make_unique<CosimKernel>(std::move(pair.hw), config_.cosim,
                                      hub_.get());
  host_ = std::make_unique<board::BoardHost>(config_.board,
                                             std::move(pair.board),
                                             hub_.get());
  // Virtual-time stamps: each recorder is driven from its own side's
  // thread, so it reads that side's clock only (the other field stays 0).
  hub_->hw_recorder().set_hw_time_source(
      [kernel = hw_.get()] { return kernel->cycle(); });
  hub_->board_recorder().set_board_time_source(
      [board = &host_->board()] { return board->kernel().tick_count().value(); });
  g_postmortem_session.store(this);
}

CosimSession::~CosimSession() {
  CosimSession* self = this;
  g_postmortem_session.compare_exchange_strong(self, nullptr);
  finish();
}

Status CosimSession::run_cycles(u64 cycles) {
  Status s = hw_->run_cycles(cycles);
  if (!s.ok()) {
    dump_postmortem(s.to_string());
  }
  return s;
}

std::map<std::string, std::string> CosimSession::config_tags() const {
  // Config echo: enough to rebuild a matching lone-side configuration for
  // replay (net::ReplaySession) without the original command line.
  std::map<std::string, std::string> tags;
  const SyncPolicy& policy = config_.cosim.sync;
  tags["t_sync"] = strformat("{}", policy.quantum());
  tags["adaptive"] = policy.is_adaptive() ? "1" : "0";
  tags["data_poll_interval"] =
      strformat("{}", config_.cosim.data_poll_interval);
  tags["timed"] = config_.cosim.timed ? "1" : "0";
  tags["cycles_per_tick"] =
      strformat("{}", config_.board.rtos.cycles_per_tick);
  tags["timeslice_ticks"] =
      strformat("{}", config_.board.rtos.timeslice_ticks);
  tags["cycles_per_sim_cycle"] =
      strformat("{}", config_.board.cycles_per_sim_cycle);
  return tags;
}

Status CosimSession::write_recordings(
    const std::string& prefix, const std::map<std::string, std::string>& tags) {
  if (!config_.obs.record.enabled) {
    return Status{StatusCode::kFailedPrecondition,
                  "flight recorder is disabled (SessionConfig::obs.record)"};
  }
  std::map<std::string, std::string> all = config_tags();
  for (const auto& [key, value] : tags) all[key] = value;
  for (obs::FlightRecorder* recorder :
       {&hub_->hw_recorder(), &hub_->board_recorder()}) {
    const std::string path = prefix + "." + recorder->side() + ".vhprec";
    Status s = obs::write_recording(path,
                                    obs::snapshot_recording(*recorder, all),
                                    obs::RecordingFormat::kBinary);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void CosimSession::dump_postmortem(const std::string& reason) {
  if (!config_.obs.record.enabled || config_.postmortem_prefix.empty()) {
    return;
  }
  std::map<std::string, std::string> tags = config_tags();
  tags["reason"] = reason;
  for (obs::FlightRecorder* recorder :
       {&hub_->hw_recorder(), &hub_->board_recorder()}) {
    const std::string path =
        config_.postmortem_prefix + "." + recorder->side() + ".jsonl";
    Status s = obs::write_recording(path,
                                    obs::snapshot_recording(*recorder, tags),
                                    obs::RecordingFormat::kJsonl);
    if (s.ok()) {
      session_log().warn("post-mortem: {} frames -> {} ({})",
                         recorder->recorded(), path, reason);
    } else {
      session_log().error("post-mortem dump failed: {}", s.to_string());
    }
  }
}

void CosimSession::install_postmortem_signal_handler() {
  std::signal(SIGINT, &postmortem_signal_handler);
  std::signal(SIGTERM, &postmortem_signal_handler);
}

void CosimSession::start_board() {
  if (started_) return;
  started_ = true;
  host_->start();
}

void CosimSession::finish() {
  if (finished_) return;
  finished_ = true;
  hw_->finish();  // SHUTDOWN -> board run loop exits
  if (started_) host_->join();
}

}  // namespace vhp::cosim
