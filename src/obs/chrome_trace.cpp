#include "vhp/obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "vhp/common/format.hpp"
#include "vhp/obs/metrics.hpp"

namespace vhp::obs {

namespace {

constexpr u32 kMasterPid = 1;
// Tracks of the master's row.
constexpr u32 kCoordinatorTid = 1;
constexpr u32 kSimulateTid = 2;
// Tracks of a node's process row.
constexpr u32 kRoundsTid = 1;
constexpr u32 kRtosTid = 2;
constexpr u32 kDriverTid = 3;
constexpr u32 kHwFramesTid = 4;
constexpr u32 kBoardFramesTid = 5;

[[nodiscard]] u32 node_pid(u32 node) { return node + 2; }

[[nodiscard]] std::string as_us(u64 ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

class TraceWriter {
 public:
  explicit TraceWriter(const std::map<u32, std::string>& node_names)
      : node_names_(node_names) {}

  /// Opens one event on the track (pid, tid), naming the process row and
  /// the track on first use. The caller writes the fields and the brace.
  std::ostringstream& begin(u32 pid, u32 tid, std::string_view track) {
    if (named_.insert({pid, 0}).second) {
      separator();
      out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"args\":{\"name\":\"" << json_escape(process_name(pid))
           << "\"}}";
    }
    if (named_.insert({pid, tid}).second) {
      separator();
      out_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
           << json_escape(track) << "\"}}";
    }
    separator();
    out_ << "{\"pid\":" << pid << ",\"tid\":" << tid << ",";
    return out_;
  }

  [[nodiscard]] std::string finish() {
    return "{\"traceEvents\":[" + out_.str() + "],\"displayTimeUnit\":\"ns\"}";
  }

 private:
  void separator() {
    if (!first_) out_ << ",";
    first_ = false;
  }

  [[nodiscard]] std::string process_name(u32 pid) const {
    if (pid == kMasterPid) return "master";
    const u32 node = pid - node_pid(0);
    const auto it = node_names_.find(node);
    return it != node_names_.end() ? it->second : strformat("node{}", node);
  }

  const std::map<u32, std::string>& node_names_;
  std::ostringstream out_;
  bool first_ = true;
  std::set<std::pair<u32, u32>> named_;  // (pid, 0) names the process
};

void write_span(TraceWriter& w, const SpanRecord& s) {
  u32 pid = node_pid(s.node);
  u32 tid = kRoundsTid;
  const char* track = "rounds";
  std::string name(to_string(s.phase));
  std::string arg;
  switch (s.phase) {
    case SpanPhase::kNodeWait:
    case SpanPhase::kCompute:
    case SpanPhase::kFrozen:
      break;
    case SpanPhase::kSlice:
      tid = kRtosTid;
      track = "rtos";
      name = span_label_name(s.arg);
      break;
    case SpanPhase::kDevRead:
      tid = kDriverTid;
      track = "driver";
      arg = strformat(",\"address\":{}", s.arg);
      break;
    case SpanPhase::kSimulate:
      pid = kMasterPid;
      tid = kSimulateTid;
      track = "simulate";
      break;
    case SpanPhase::kEvict:
    case SpanPhase::kRejoin:
      arg = strformat(",\"node\":{}", s.node);
      [[fallthrough]];
    default:
      pid = kMasterPid;
      tid = kCoordinatorTid;
      track = "coordinator";
      break;
  }
  w.begin(pid, tid, track)
      << "\"name\":\"" << json_escape(name)
      << "\",\"cat\":\"timeline\",\"ph\":\"X\",\"ts\":" << as_us(s.start_ns)
      << ",\"dur\":" << as_us(s.end_ns - std::min(s.start_ns, s.end_ns))
      << ",\"args\":{\"round\":" << s.round << ",\"cycle\":" << s.cycle << arg
      << "}}";
}

void write_frame(TraceWriter& w, const FrameRecord& f, bool hw_side) {
  const bool fault = (f.flags & kFrameFlagInjected) != 0;
  std::string name = std::string(to_string(f.port)) + "." +
                     std::string(to_string(f.dir)) + ".";
  if (fault) {
    name += "fault." + std::string(f.payload.begin(), f.payload.end());
  } else {
    name += "t" + std::to_string(f.msg_type);
  }
  std::ostringstream& out =
      w.begin(node_pid(f.node), hw_side ? kHwFramesTid : kBoardFramesTid,
              hw_side ? "hw frames" : "board frames");
  out << "\"name\":\"" << json_escape(name) << "\",\"cat\":\""
      << (fault ? "fault" : "link") << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
      << as_us(f.wall_ns) << ",\"args\":{\"seq\":" << f.seq
      << ",\"hw_cycle\":" << f.hw_cycle << ",\"board_tick\":" << f.board_tick
      << ",\"size\":" << f.payload_size << "}}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<Recording>& recordings,
                              const std::map<u32, std::string>& node_names) {
  TraceWriter w{node_names};
  for (const SpanRecord& s : spans) write_span(w, s);
  for (const Recording& rec : recordings) {
    const bool hw_side = rec.meta.side == "hw";
    for (const FrameRecord& f : rec.frames) write_frame(w, f, hw_side);
  }
  return w.finish();
}

}  // namespace vhp::obs
