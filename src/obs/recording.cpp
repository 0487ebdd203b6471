#include "vhp/obs/recording.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "vhp/common/bytes.hpp"
#include "vhp/common/checksum.hpp"
#include "vhp/common/format.hpp"

namespace vhp::obs {

namespace {

// Version 1 carries no per-frame node id; version 2 appends one; version 3
// appends a flags byte after the node (fault markers). The writer sticks to
// the oldest version that can carry the data — version 1 while every frame
// is node 0 and unflagged — so single-node (classic two-party) recordings
// stay byte-identical to what older builds wrote and read.
constexpr char kBinaryMagic[8] = {'V', 'H', 'P', 'R', 'E', 'C', '0', '1'};
constexpr char kBinaryMagicV2[8] = {'V', 'H', 'P', 'R', 'E', 'C', '0', '2'};
constexpr char kBinaryMagicV3[8] = {'V', 'H', 'P', 'R', 'E', 'C', '0', '3'};
constexpr std::string_view kJsonlMagic = "{\"format\":\"vhp-recording\"";

std::string to_hex(std::span<const u8> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (u8 b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

bool from_hex(std::string_view hex, Bytes& out) {
  if (hex.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return true;
}

// --- JSONL value scanning (only the shapes our writer emits) ---------------

/// Finds `"key":` in `line` and returns the raw value text after it (up to
/// the next top-level ',' or '}' for scalars, the closing '"' for strings).
std::optional<std::string_view> raw_value(std::string_view line,
                                          std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = line.substr(pos + needle.size());
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    const auto end = rest.find('"');  // writer never emits escaped quotes
    if (end == std::string_view::npos) return std::nullopt;
    return rest.substr(0, end);
  }
  std::size_t end = 0;
  while (end < rest.size() && rest[end] != ',' && rest[end] != '}') ++end;
  return rest.substr(0, end);
}

std::optional<u64> u64_value(std::string_view line, std::string_view key) {
  auto raw = raw_value(line, key);
  if (!raw.has_value() || raw->empty()) return std::nullopt;
  u64 out = 0;
  for (char c : *raw) {
    if (c < '0' || c > '9') return std::nullopt;
    out = out * 10 + static_cast<u64>(c - '0');
  }
  return out;
}

std::optional<LinkPort> port_from_name(std::string_view name) {
  if (name == "data") return LinkPort::kData;
  if (name == "int") return LinkPort::kInt;
  if (name == "clock") return LinkPort::kClock;
  return std::nullopt;
}

Status bad_file(const std::string& path, const std::string& what) {
  return Status{StatusCode::kInvalidArgument,
                strformat("{}: {}", path, what)};
}

// --- binary encoding -------------------------------------------------------

void encode_frame(ByteWriter& w, const FrameRecord& r, bool with_node,
                  bool with_flags) {
  w.u64v(r.seq);
  w.u8v(static_cast<u8>(r.port));
  w.u8v(static_cast<u8>(r.dir));
  if (with_node) w.u32v(r.node);
  if (with_flags) w.u8v(r.flags);
  w.u8v(r.msg_type);
  w.u8v(r.truncated ? 1 : 0);
  w.u64v(r.hw_cycle);
  w.u64v(r.board_tick);
  w.u64v(r.wall_ns);
  w.u32v(r.payload_size);
  w.u32v(r.digest);
  w.sized_bytes(r.payload);
}

bool decode_frame(ByteReader& r, FrameRecord& out, bool with_node,
                  bool with_flags) {
  out.seq = r.u64v();
  const u8 port = r.u8v();
  const u8 dir = r.u8v();
  out.node = with_node ? r.u32v() : 0;
  out.flags = with_flags ? r.u8v() : 0;
  out.msg_type = r.u8v();
  out.truncated = r.u8v() != 0;
  out.hw_cycle = r.u64v();
  out.board_tick = r.u64v();
  out.wall_ns = r.u64v();
  out.payload_size = r.u32v();
  out.digest = r.u32v();
  out.payload = r.sized_bytes();
  if (!r.ok() || port > 2 || dir > 1) return false;
  out.port = static_cast<LinkPort>(port);
  out.dir = static_cast<LinkDir>(dir);
  return true;
}

std::string header_json(const Recording& rec) {
  std::ostringstream out;
  out << "{\"format\":\"vhp-recording\",\"version\":1,\"side\":\""
      << json_escape(rec.meta.side) << "\",\"frames\":" << rec.frames.size()
      << ",\"tags\":{";
  bool first = true;
  for (const auto& [key, value] : rec.meta.tags) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  out << "}}";
  return out.str();
}

Result<Recording> read_jsonl(const std::string& path, std::istream& in) {
  Recording rec;
  std::string line;
  if (!std::getline(in, line) ||
      line.compare(0, kJsonlMagic.size(), kJsonlMagic) != 0) {
    return bad_file(path, "missing vhp-recording JSONL header");
  }
  rec.meta.side = std::string(raw_value(line, "side").value_or(""));
  // Tags: the header's {"k":"v",...} sub-object, flat by construction.
  const auto tags_pos = line.find("\"tags\":{");
  if (tags_pos != std::string::npos) {
    std::string_view body{line};
    body.remove_prefix(tags_pos + 8);
    const auto end = body.find('}');
    if (end != std::string_view::npos) body = body.substr(0, end);
    while (!body.empty()) {
      const auto key_start = body.find('"');
      if (key_start == std::string_view::npos) break;
      body.remove_prefix(key_start + 1);
      const auto key_end = body.find('"');
      if (key_end == std::string_view::npos) break;
      const std::string key{body.substr(0, key_end)};
      body.remove_prefix(key_end + 1);
      const auto val_start = body.find('"');
      if (val_start == std::string_view::npos) break;
      body.remove_prefix(val_start + 1);
      const auto val_end = body.find('"');
      if (val_end == std::string_view::npos) break;
      rec.meta.tags[key] = std::string(body.substr(0, val_end));
      body.remove_prefix(val_end + 1);
    }
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    FrameRecord r;
    const auto seq = u64_value(line, "seq");
    const auto port_name = raw_value(line, "port");
    const auto port =
        port_name ? port_from_name(*port_name) : std::nullopt;
    const auto dir = raw_value(line, "dir");
    if (!seq || !port || !dir || (*dir != "tx" && *dir != "rx")) {
      return bad_file(path, strformat("bad frame on line {}", line_no));
    }
    r.seq = *seq;
    r.port = *port;
    r.dir = *dir == "tx" ? LinkDir::kTx : LinkDir::kRx;
    r.node = static_cast<u32>(u64_value(line, "node").value_or(0));
    r.flags = static_cast<u8>(u64_value(line, "flags").value_or(0));
    r.msg_type = static_cast<u8>(u64_value(line, "type").value_or(0));
    r.truncated = raw_value(line, "truncated").value_or("false") == "true";
    r.hw_cycle = u64_value(line, "hw_cycle").value_or(0);
    r.board_tick = u64_value(line, "board_tick").value_or(0);
    r.wall_ns = u64_value(line, "wall_ns").value_or(0);
    r.payload_size = static_cast<u32>(u64_value(line, "size").value_or(0));
    r.digest = static_cast<u32>(u64_value(line, "digest").value_or(0));
    const auto hex = raw_value(line, "payload").value_or("");
    if (!from_hex(hex, r.payload)) {
      return bad_file(path, strformat("bad payload hex on line {}", line_no));
    }
    rec.frames.push_back(std::move(r));
  }
  return rec;
}

Result<Recording> read_binary(const std::string& path, std::istream& in) {
  // Whole-file slurp: recordings are bounded by the ring size.
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  ByteReader r{std::span{reinterpret_cast<const u8*>(data.data()),
                         data.size()}};
  Bytes magic = r.bytes(sizeof kBinaryMagic);
  bool with_node = false;
  bool with_flags = false;
  if (r.ok() &&
      std::equal(magic.begin(), magic.end(), std::begin(kBinaryMagicV3))) {
    with_node = with_flags = true;
  } else if (r.ok() && std::equal(magic.begin(), magic.end(),
                                  std::begin(kBinaryMagicV2))) {
    with_node = true;
  } else if (!r.ok() || !std::equal(magic.begin(), magic.end(),
                                    std::begin(kBinaryMagic))) {
    return bad_file(path, "not a vhp recording (bad magic)");
  }
  Recording rec;
  const Bytes side = r.sized_bytes();
  rec.meta.side.assign(side.begin(), side.end());
  const u32 n_tags = r.u32v();
  for (u32 i = 0; r.ok() && i < n_tags; ++i) {
    const Bytes key = r.sized_bytes();
    const Bytes value = r.sized_bytes();
    rec.meta.tags[std::string(key.begin(), key.end())] =
        std::string(value.begin(), value.end());
  }
  const u64 n_frames = r.u64v();
  if (!r.ok()) return bad_file(path, "truncated header");
  // A corrupt count must not turn into a giant allocation: every frame
  // costs at least one byte, so the remaining bytes bound the real count.
  if (n_frames > r.remaining()) {
    return bad_file(path, strformat("frame count {} exceeds file size",
                                    n_frames));
  }
  rec.frames.reserve(n_frames);
  for (u64 i = 0; i < n_frames; ++i) {
    FrameRecord frame;
    if (!decode_frame(r, frame, with_node, with_flags)) {
      return bad_file(path, strformat("truncated frame {}", i));
    }
    rec.frames.push_back(std::move(frame));
  }
  if (!r.at_end()) {
    return bad_file(path, strformat("{} trailing bytes after frame {}",
                                    r.remaining(), n_frames));
  }
  return rec;
}

}  // namespace

RecordingFormat format_for_path(const std::string& path) {
  const auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return ends_with(".jsonl") || ends_with(".json") ? RecordingFormat::kJsonl
                                                   : RecordingFormat::kBinary;
}

std::string frame_record_to_json(const FrameRecord& r) {
  std::ostringstream out;
  out << "{\"seq\":" << r.seq << ",\"port\":\"" << to_string(r.port)
      << "\",\"dir\":\"" << to_string(r.dir) << "\"";
  // node 0 is implicit so single-node JSONL dumps keep their old shape;
  // flags likewise (only fault markers carry them).
  if (r.node != 0) out << ",\"node\":" << r.node;
  if (r.flags != 0) out << ",\"flags\":" << static_cast<unsigned>(r.flags);
  out << ",\"type\":" << static_cast<unsigned>(r.msg_type)
      << ",\"hw_cycle\":" << r.hw_cycle << ",\"board_tick\":" << r.board_tick
      << ",\"wall_ns\":" << r.wall_ns << ",\"size\":" << r.payload_size
      << ",\"digest\":" << r.digest;
  if (r.truncated) out << ",\"truncated\":true";
  out << ",\"payload\":\"" << to_hex(r.payload) << "\"}";
  return out.str();
}

Recording snapshot_recording(FlightRecorder& recorder,
                             std::map<std::string, std::string> tags) {
  Recording rec;
  rec.meta.side = recorder.side();
  rec.meta.tags = std::move(tags);
  rec.frames = recorder.snapshot();
  return rec;
}

Status write_recording(const std::string& path, const Recording& recording,
                       RecordingFormat format) {
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f) return Status{StatusCode::kUnavailable, "cannot open " + path};
  if (format == RecordingFormat::kJsonl) {
    f << header_json(recording) << "\n";
    for (const FrameRecord& r : recording.frames) {
      f << frame_record_to_json(r) << "\n";
    }
  } else {
    const bool with_flags =
        std::any_of(recording.frames.begin(), recording.frames.end(),
                    [](const FrameRecord& r) { return r.flags != 0; });
    const bool with_node =
        with_flags ||
        std::any_of(recording.frames.begin(), recording.frames.end(),
                    [](const FrameRecord& r) { return r.node != 0; });
    Bytes out;
    ByteWriter w{out};
    w.bytes(std::span{reinterpret_cast<const u8*>(
                          with_flags ? kBinaryMagicV3
                                     : (with_node ? kBinaryMagicV2
                                                  : kBinaryMagic)),
                      sizeof kBinaryMagic});
    w.sized_bytes(std::span{
        reinterpret_cast<const u8*>(recording.meta.side.data()),
        recording.meta.side.size()});
    w.u32v(static_cast<u32>(recording.meta.tags.size()));
    for (const auto& [key, value] : recording.meta.tags) {
      w.sized_bytes(
          std::span{reinterpret_cast<const u8*>(key.data()), key.size()});
      w.sized_bytes(
          std::span{reinterpret_cast<const u8*>(value.data()), value.size()});
    }
    w.u64v(recording.frames.size());
    for (const FrameRecord& r : recording.frames) {
      encode_frame(w, r, with_node, with_flags);
    }
    f.write(reinterpret_cast<const char*>(out.data()),
            static_cast<std::streamsize>(out.size()));
  }
  f.close();
  if (!f) return Status{StatusCode::kUnavailable, "write failed: " + path};
  return Status::Ok();
}

Result<Recording> read_recording(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status{StatusCode::kNotFound, "cannot open " + path};
  const int first = f.peek();
  if (first == '{') return read_jsonl(path, f);
  return read_binary(path, f);
}

// ---------------------------------------------------------------------------
// Divergence checking

std::string Divergence::to_string() const {
  const std::string where =
      node == 0 ? std::string(obs::to_string(port))
                : strformat("node {} {}", node, obs::to_string(port));
  return strformat(
      "divergence at seq {} ({} {}, hw_cycle {}, board_tick {}): {}", seq,
      where, obs::to_string(dir), hw_cycle, board_tick, reason);
}

std::string compare_frames(const FrameRecord& expected,
                           const FrameRecord& actual, FrameDiffFn diff) {
  if (expected.msg_type != actual.msg_type) {
    return strformat("msg type {} vs {}",
                     static_cast<unsigned>(expected.msg_type),
                     static_cast<unsigned>(actual.msg_type));
  }
  if (expected.payload_size != actual.payload_size) {
    return strformat("payload size {} vs {}", expected.payload_size,
                     actual.payload_size);
  }
  if (expected.digest == actual.digest &&
      expected.payload == actual.payload) {
    return {};
  }
  if (diff != nullptr) {
    std::string fields = diff(expected, actual);
    if (!fields.empty()) return fields;
  }
  const std::size_t n =
      std::min(expected.payload.size(), actual.payload.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected.payload[i] != actual.payload[i]) {
      return strformat("payload byte {}: 0x{} vs 0x{}", i,
                       to_hex(std::span{&expected.payload[i], 1}),
                       to_hex(std::span{&actual.payload[i], 1}));
    }
  }
  return strformat("payload digest {} vs {} (stored prefixes equal)",
                   expected.digest, actual.digest);
}

std::size_t DivergenceChecker::queue_index(u32 node, LinkPort port,
                                           LinkDir dir) {
  const std::size_t index =
      static_cast<std::size_t>(node) * kQueuesPerNode +
      static_cast<std::size_t>(port) * 2 + static_cast<std::size_t>(dir);
  if (index >= queues_.size()) queues_.resize(index + 1);
  return index;
}

DivergenceChecker::DivergenceChecker(const Recording& reference,
                                     FrameDiffFn diff)
    : diff_(diff) {
  for (const FrameRecord& r : reference.frames) {
    // Fault markers are injector annotations, not link traffic: a faulted
    // run must still match a clean reference (and vice versa).
    if ((r.flags & kFrameFlagInjected) != 0) continue;
    queues_[queue_index(r.node, r.port, r.dir)].frames.push_back(r);
  }
}

bool DivergenceChecker::check(LinkPort port, LinkDir dir,
                              std::span<const u8> frame, u32 node) {
  FrameRecord live;
  live.port = port;
  live.dir = dir;
  live.node = node;
  live.msg_type = frame.empty() ? 0 : frame[0];
  live.payload_size = static_cast<u32>(frame.size());
  live.digest = crc32(frame);
  live.payload.assign(frame.begin(), frame.end());
  return check(live);
}

bool DivergenceChecker::check(const FrameRecord& live) {
  if ((live.flags & kFrameFlagInjected) != 0) return !divergence_.has_value();
  if (divergence_.has_value()) return false;
  Queue& queue = queues_[queue_index(live.node, live.port, live.dir)];
  if (queue.next >= queue.frames.size()) {
    divergence_ = Divergence{
        .seq = queue.frames.empty() ? 0 : queue.frames.back().seq,
        .port = live.port,
        .dir = live.dir,
        .node = live.node,
        .reason = strformat(
            "live side produced frame {} on {} {} beyond the recording's {}",
            queue.next + 1, obs::to_string(live.port),
            obs::to_string(live.dir), queue.frames.size())};
    return false;
  }
  // Either side may have kept only a payload prefix; compare the common
  // stored prefix — payload_size and digest still describe the full frames.
  FrameRecord expected = queue.frames[queue.next];
  FrameRecord probe = live;
  if (expected.payload.size() != probe.payload.size() &&
      (expected.truncated || probe.truncated)) {
    const std::size_t n =
        std::min(expected.payload.size(), probe.payload.size());
    expected.payload.resize(n);
    probe.payload.resize(n);
    expected.truncated = probe.truncated = true;
  }
  std::string reason = compare_frames(expected, probe, diff_);
  if (!reason.empty()) {
    divergence_ = Divergence{.seq = expected.seq,
                             .port = live.port,
                             .dir = live.dir,
                             .node = live.node,
                             .hw_cycle = expected.hw_cycle,
                             .board_tick = expected.board_tick,
                             .reason = std::move(reason)};
    return false;
  }
  ++queue.next;
  ++matched_;
  return true;
}

std::optional<Divergence> diff_recordings(const Recording& a,
                                          const Recording& b,
                                          FrameDiffFn diff) {
  DivergenceChecker checker{a, diff};
  for (const FrameRecord& r : b.frames) {
    if (!checker.check(r)) break;
  }
  if (checker.divergence().has_value()) return checker.divergence();
  // b may be a prefix of a: surface the first reference frame b never sent.
  DivergenceChecker reverse{b, diff};
  for (const FrameRecord& r : a.frames) {
    if (!reverse.check(r)) break;
  }
  if (reverse.divergence().has_value()) {
    Divergence d = *reverse.divergence();
    d.reason = "second recording ends early: " + d.reason;
    return d;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Reports

std::string recording_stats_text(const Recording& rec) {
  struct PortStats {
    u64 frames[2] = {0, 0};
    u64 bytes[2] = {0, 0};
  };
  std::array<PortStats, 3> ports{};
  std::map<u8, u64> by_type;
  u64 first_ns = ~u64{0}, last_ns = 0;
  u64 max_hw_cycle = 0, max_board_tick = 0;
  u64 injected = 0;
  for (const FrameRecord& r : rec.frames) {
    if ((r.flags & kFrameFlagInjected) != 0) {
      ++injected;
      continue;
    }
    auto& p = ports[static_cast<std::size_t>(r.port)];
    p.frames[static_cast<std::size_t>(r.dir)] += 1;
    p.bytes[static_cast<std::size_t>(r.dir)] += r.payload_size;
    by_type[r.msg_type] += 1;
    first_ns = std::min(first_ns, r.wall_ns);
    last_ns = std::max(last_ns, r.wall_ns);
    max_hw_cycle = std::max(max_hw_cycle, r.hw_cycle);
    max_board_tick = std::max(max_board_tick, r.board_tick);
  }
  std::ostringstream out;
  out << "side: " << (rec.meta.side.empty() ? "?" : rec.meta.side)
      << "   frames: " << rec.frames.size() << "\n";
  for (const auto& [key, value] : rec.meta.tags) {
    out << "tag " << key << " = " << value << "\n";
  }
  char line[128];
  std::snprintf(line, sizeof line, "%-6s %12s %12s %14s %14s\n", "port",
                "tx_frames", "rx_frames", "tx_bytes", "rx_bytes");
  out << line;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    std::snprintf(line, sizeof line, "%-6s %12llu %12llu %14llu %14llu\n",
                  std::string(to_string(static_cast<LinkPort>(i))).c_str(),
                  (unsigned long long)ports[i].frames[0],
                  (unsigned long long)ports[i].frames[1],
                  (unsigned long long)ports[i].bytes[0],
                  (unsigned long long)ports[i].bytes[1]);
    out << line;
  }
  for (const auto& [type, count] : by_type) {
    out << "msg type " << static_cast<unsigned>(type) << ": " << count
        << " frames\n";
  }
  if (injected > 0) out << "injected fault markers: " << injected << "\n";
  if (!rec.frames.empty()) {
    out << "wall span: " << (last_ns - first_ns) / 1000 << " us\n";
    out << "virtual span: hw_cycle <= " << max_hw_cycle
        << ", board_tick <= " << max_board_tick << "\n";
  }
  return out.str();
}

std::string recording_to_chrome_json(const Recording& rec) {
  const auto as_us = [](u64 ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const FrameRecord& r : rec.frames) {
    if (!first) out << ",";
    first = false;
    const bool fault = (r.flags & kFrameFlagInjected) != 0;
    out << "{\"name\":\"" << to_string(r.port) << "." << to_string(r.dir);
    if (fault) {
      out << ".fault."
          << std::string(r.payload.begin(), r.payload.end());
    } else {
      out << ".t" << static_cast<unsigned>(r.msg_type);
    }
    out << "\",\"cat\":\"" << (fault ? "fault" : "link")
        << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
        << (static_cast<unsigned>(r.port) + 1) << ",\"ts\":" << as_us(r.wall_ns)
        << ",\"args\":{\"seq\":" << r.seq << ",\"hw_cycle\":" << r.hw_cycle
        << ",\"board_tick\":" << r.board_tick << ",\"size\":" << r.payload_size
        << "}}";
  }
  out << "],\"displayTimeUnit\":\"ns\"}";
  return out.str();
}

}  // namespace vhp::obs
