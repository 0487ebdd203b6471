// vhptrace — inspect flight-recorder recordings from the command line.
//
//   vhptrace inspect <recording> [--limit N] [--port data|int|clock]
//                    [--node N]
//   vhptrace stats <recording> [--node N]
//   vhptrace diff <recording-a> <recording-b> [--node N]
//   vhptrace to-chrome <recording> [out.json]
//   vhptrace timeline <hw.vhprec> [board.vhprec...] [--chrome out.json]
//   vhptrace critical <hw.vhprec> [board.vhprec...] [--gate PCT]
//
// Fabric recordings interleave N nodes' links in one global sequence;
// --node keeps one node's frames (two-party recordings are all node 0).
//
// timeline/critical reconstruct per-round spans from the CLOCK traffic
// (net::timeline_from_recordings) and run the causal-timeline analyzer on
// them.
//
// to-chrome and timeline --chrome render through the library's one Chrome
// writer (obs::chrome_trace_json): spans on their tracks, one instant per
// recorded frame.
//
// Thin shell over the library: the subcommand logic lives in
// vhp/obs/recording.hpp, vhp/obs/timeline.hpp, vhp/obs/chrome_trace.hpp
// and vhp/net/replay.hpp (tested there); this file only parses arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/format.hpp"
#include "vhp/net/message.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/chrome_trace.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/timeline.hpp"

namespace {

using namespace vhp;

int usage() {
  std::fprintf(stderr,
               "usage: vhptrace <subcommand> ...\n"
               "  inspect <recording> [--limit N] [--port data|int|clock]\n"
               "          [--node N]\n"
               "      one frame per line: seq, port, dir, decoded message,\n"
               "      virtual time stamps\n"
               "  stats <recording> [--node N]\n"
               "      per-port frame/byte totals, message-type histogram,\n"
               "      time span\n"
               "  diff <a> <b> [--node N]\n"
               "      first mismatching frame between two recordings\n"
               "      (exit 1 when they diverge)\n"
               "  to-chrome <recording> [out.json]\n"
               "      Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
               "  timeline <hw.vhprec> [board.vhprec...] [--chrome out.json]\n"
               "      per-round barrier table from a recording set; --chrome\n"
               "      writes trace_event JSON, one track per node\n"
               "  critical <hw.vhprec> [board.vhprec...] [--gate PCT]\n"
               "      critical-path report: per-node compute/wait/transport,\n"
               "      straggler ranking, slowdown; --gate exits 1 when the\n"
               "      decomposition misses total wall-clock by more than PCT%%\n");
  return 2;
}

/// Strict decimal parse; nullopt on empty/garbage/overflow — a typo in a
/// numeric flag must print usage, not throw out of std::stoul.
std::optional<u64> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  u64 out = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 digit = static_cast<u64>(c - '0');
    if (out > (~u64{0} - digit) / 10) return std::nullopt;
    out = out * 10 + digit;
  }
  return out;
}

obs::Recording load_or_exit(const std::string& path) {
  auto rec = obs::read_recording(path);
  if (!rec.ok()) {
    std::fprintf(stderr, "vhptrace: %s\n", rec.status().to_string().c_str());
    std::exit(2);
  }
  return std::move(rec).value();
}

/// Pops a trailing "--node N" pair out of `args`; nullopt when absent.
/// Exits with usage on a non-numeric N.
std::optional<u32> take_node_filter(std::vector<std::string>& args) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--node") continue;
    const std::optional<u64> node = parse_u64(args[i + 1]);
    if (!node.has_value() || *node > ~u32{0}) std::exit(usage());
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return static_cast<u32>(*node);
  }
  return std::nullopt;
}

void keep_node(obs::Recording& rec, std::optional<u32> node) {
  if (!node.has_value()) return;
  std::erase_if(rec.frames, [&](const obs::FrameRecord& r) {
    return r.node != *node;
  });
}

/// One human-readable line per frame: the decoded protocol message when the
/// payload is whole, the type/size/digest summary otherwise.
std::string describe(const obs::FrameRecord& r) {
  std::string msg;
  if ((r.flags & obs::kFrameFlagInjected) != 0) {
    // Fault markers carry the fault kind's name as their payload; surface
    // them as FAULT lines so injected loss is distinguishable from traffic.
    const std::string kind{r.payload.begin(), r.payload.end()};
    const std::string node =
        r.node != 0 ? strformat("node={} ", r.node) : std::string{};
    return strformat("{} {}{} {} hw_cycle={} board_tick={} FAULT {}", r.seq,
                     node, obs::to_string(r.port), obs::to_string(r.dir),
                     r.hw_cycle, r.board_tick,
                     kind.empty() ? "?" : kind);
  }
  if (!r.truncated) {
    auto decoded = net::decode(r.payload);
    if (decoded.ok()) {
      const net::Message& m = decoded.value();
      msg = std::string(net::to_string(net::type_of(m)));
      switch (net::type_of(m)) {
        case net::MsgType::kDataWrite: {
          const auto& w = std::get<net::DataWrite>(m);
          msg += strformat(" addr={} len={}", w.address, w.data.size());
          break;
        }
        case net::MsgType::kDataReadReq: {
          const auto& q = std::get<net::DataReadReq>(m);
          msg += strformat(" addr={} nbytes={}", q.address, q.nbytes);
          break;
        }
        case net::MsgType::kDataReadResp: {
          const auto& p = std::get<net::DataReadResp>(m);
          msg += strformat(" addr={} len={}", p.address, p.data.size());
          break;
        }
        case net::MsgType::kIntRaise:
          msg += strformat(" vector={}", std::get<net::IntRaise>(m).vector);
          break;
        case net::MsgType::kClockTick: {
          const auto& t = std::get<net::ClockTick>(m);
          msg += strformat(" sim_cycle={} n_ticks={}", t.sim_cycle, t.n_ticks);
          if (t.round != 0) msg += strformat(" round={}", t.round);
          break;
        }
        case net::MsgType::kTimeAck: {
          const auto& a = std::get<net::TimeAck>(m);
          msg += strformat(" board_tick={}", a.board_tick);
          if (a.lookahead.has_value()) {
            msg += *a.lookahead == net::kLookaheadUnbounded
                       ? " lookahead=unbounded"
                       : strformat(" lookahead={}", *a.lookahead);
          }
          if (a.round != 0) msg += strformat(" round={}", a.round);
          msg += strformat(" data_sent={}", a.data_sent);
          break;
        }
        case net::MsgType::kShutdown:
          break;
      }
    }
  }
  if (msg.empty()) {
    msg = strformat("type={} size={} digest={}{}",
                    static_cast<unsigned>(r.msg_type), r.payload_size,
                    r.digest, r.truncated ? " (truncated)" : "");
  }
  const std::string node =
      r.node != 0 ? strformat("node={} ", r.node) : std::string{};
  return strformat("{} {}{} {} hw_cycle={} board_tick={} {}", r.seq, node,
                   obs::to_string(r.port), obs::to_string(r.dir), r.hw_cycle,
                   r.board_tick, msg);
}

int cmd_inspect(std::vector<std::string> args) {
  const std::optional<u32> node = take_node_filter(args);
  if (args.empty()) return usage();
  std::size_t limit = ~std::size_t{0};
  std::string port_filter;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--limit" && i + 1 < args.size()) {
      const std::optional<u64> n = parse_u64(args[++i]);
      if (!n.has_value()) return usage();
      limit = static_cast<std::size_t>(*n);
    } else if (args[i] == "--port" && i + 1 < args.size()) {
      port_filter = args[++i];
    } else {
      return usage();
    }
  }
  obs::Recording rec = load_or_exit(args[0]);
  keep_node(rec, node);
  std::printf("# side=%s frames=%zu\n", rec.meta.side.c_str(),
              rec.frames.size());
  for (const auto& [key, value] : rec.meta.tags) {
    std::printf("# %s=%s\n", key.c_str(), value.c_str());
  }
  std::size_t shown = 0;
  for (const obs::FrameRecord& r : rec.frames) {
    if (!port_filter.empty() && obs::to_string(r.port) != port_filter) {
      continue;
    }
    if (shown++ >= limit) break;
    std::printf("%s\n", describe(r).c_str());
  }
  return 0;
}

int cmd_stats(std::vector<std::string> args) {
  const std::optional<u32> node = take_node_filter(args);
  if (args.size() != 1) return usage();
  obs::Recording rec = load_or_exit(args[0]);
  keep_node(rec, node);
  std::fputs(obs::recording_stats_text(rec).c_str(), stdout);
  // Per-node grant summary — which nodes adapted, and how far.
  std::fputs(net::grant_stats_text(rec).c_str(), stdout);
  return 0;
}

int cmd_diff(std::vector<std::string> args) {
  const std::optional<u32> node = take_node_filter(args);
  if (args.size() != 2) return usage();
  obs::Recording a = load_or_exit(args[0]);
  obs::Recording b = load_or_exit(args[1]);
  keep_node(a, node);
  keep_node(b, node);
  const auto divergence =
      obs::diff_recordings(a, b, &net::message_field_diff);
  if (!divergence.has_value()) {
    std::printf("identical: %zu frames\n", a.frames.size());
    return 0;
  }
  std::printf("%s\n", divergence->to_string().c_str());
  return 1;
}

/// Writes `text` to `path`; 0, or 2 with a one-line error.
int write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "vhptrace: write failed: %s\n", path.c_str());
    return 2;
  }
  return 0;
}

int cmd_to_chrome(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  const std::string json =
      obs::chrome_trace_json({}, {load_or_exit(args[0])});
  if (args.size() == 2) return write_file(args[1], json);
  std::fputs(json.c_str(), stdout);
  return 0;
}

/// Loads `<hw> [boards...]` into `recordings` (hw first), extracts the spans
/// and node-name map. Board recordings are matched to their fabric slot via
/// the "node"/"node_name" tags Fabric::write_recordings stamps.
int load_timeline(const std::vector<std::string>& paths,
                  std::vector<obs::Recording>& recordings,
                  std::vector<obs::SpanRecord>& spans,
                  std::map<u32, std::string>& names) {
  obs::Recording hw = load_or_exit(paths[0]);
  std::vector<obs::Recording> boards;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    obs::Recording board = load_or_exit(paths[i]);
    const auto node_tag = board.meta.tags.find("node");
    const auto name_tag = board.meta.tags.find("node_name");
    if (node_tag != board.meta.tags.end() &&
        name_tag != board.meta.tags.end()) {
      if (const auto node = parse_u64(node_tag->second); node.has_value()) {
        names[static_cast<u32>(*node)] = name_tag->second;
      }
    }
    boards.push_back(std::move(board));
  }
  spans = net::timeline_from_recordings(hw, boards);
  if (spans.empty()) {
    std::fprintf(stderr,
                 "vhptrace: %s holds no CLOCK rounds to analyze\n",
                 paths[0].c_str());
    return 2;
  }
  recordings.push_back(std::move(hw));
  for (obs::Recording& board : boards) recordings.push_back(std::move(board));
  return 0;
}

int cmd_timeline(std::vector<std::string> args) {
  std::string chrome_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--chrome" && i + 1 < args.size()) {
      chrome_path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  if (args.empty()) return usage();
  std::vector<obs::Recording> recordings;
  std::vector<obs::SpanRecord> spans;
  std::map<u32, std::string> names;
  if (int rc = load_timeline(args, recordings, spans, names); rc != 0) {
    return rc;
  }
  const obs::TimelineAnalysis analysis = obs::analyze_spans(spans, names);
  std::fputs(obs::timeline_report_text(analysis).c_str(), stdout);
  if (!chrome_path.empty()) {
    const int rc = write_file(
        chrome_path, obs::chrome_trace_json(spans, recordings, names));
    if (rc != 0) return rc;
    std::printf("chrome trace: %s (%zu spans)\n", chrome_path.c_str(),
                spans.size());
  }
  return 0;
}

int cmd_critical(std::vector<std::string> args) {
  double gate = -1.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--gate" && i + 1 < args.size()) {
      char* end = nullptr;
      gate = std::strtod(args[i + 1].c_str(), &end);
      if (end == nullptr || *end != '\0' || gate < 0.0) return usage();
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  if (args.empty()) return usage();
  std::vector<obs::Recording> recordings;
  std::vector<obs::SpanRecord> spans;
  std::map<u32, std::string> names;
  if (int rc = load_timeline(args, recordings, spans, names); rc != 0) {
    return rc;
  }
  const obs::TimelineAnalysis analysis = obs::analyze_spans(spans, names);
  std::fputs(obs::critical_report_text(analysis).c_str(), stdout);
  if (gate >= 0.0 && analysis.reconciliation_error * 100.0 > gate) {
    std::fprintf(stderr,
                 "vhptrace: reconciliation error %.2f%% exceeds gate %.2f%%\n",
                 analysis.reconciliation_error * 100.0, gate);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "inspect") return cmd_inspect(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "diff") return cmd_diff(args);
  if (cmd == "to-chrome") return cmd_to_chrome(args);
  if (cmd == "timeline") return cmd_timeline(args);
  if (cmd == "critical") return cmd_critical(args);
  return usage();
}
