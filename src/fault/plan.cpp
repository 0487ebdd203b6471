#include "vhp/fault/plan.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "vhp/common/format.hpp"
#include "vhp/obs/flat_json.hpp"

namespace vhp::fault {

namespace {

/// Stable lane key / rng-stream mixing. The rng seed for a (rule, lane)
/// pair must not depend on lane creation order, only on its identity.
u64 lane_key(u32 node, obs::LinkPort port, obs::LinkDir dir) {
  return (static_cast<u64>(node) << 3) |
         (static_cast<u64>(port) << 1) | static_cast<u64>(dir);
}

u64 mix_seed(u64 seed, u64 rule_index, u64 lane) {
  // SplitMix64 finalizer over the packed identity: cheap, well spread.
  u64 z = seed ^ (rule_index * 0x9e3779b97f4a7c15ULL) ^ (lane << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool rule_matches(const FaultRule& rule, u32 node, obs::LinkPort port,
                  obs::LinkDir dir) {
  if (rule.node != kAnyNode && rule.node != node) return false;
  if (rule.port.has_value() && *rule.port != port) return false;
  if (rule.dir.has_value() && *rule.dir != dir) return false;
  return true;
}

using obs::flat_json::raw_value;

/// 1-based line of `at`, a position inside `text`.
std::size_t line_of(std::string_view text, const char* at) {
  return 1 + static_cast<std::size_t>(std::count(text.data(), at, '\n'));
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDisconnect: return "disconnect";
  }
  return "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  if (name == "drop") return FaultKind::kDrop;
  if (name == "duplicate") return FaultKind::kDuplicate;
  if (name == "reorder") return FaultKind::kReorder;
  if (name == "delay") return FaultKind::kDelay;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "stall") return FaultKind::kStall;
  if (name == "disconnect") return FaultKind::kDisconnect;
  return std::nullopt;
}

bool FaultPlan::lossless() const {
  for (const FaultRule& rule : rules) {
    if (rule.kind != FaultKind::kDelay && rule.kind != FaultKind::kStall) {
      return false;
    }
  }
  return true;
}

Status FaultPlan::validate() const {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& rule = rules[i];
    if (rule.probability < 0.0 || rule.probability > 1.0) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault rule {}: probability {} outside [0, 1]",
                              i, rule.probability)};
    }
    if (rule.first_frame > rule.last_frame) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault rule {}: first_frame {} > last_frame {}",
                              i, rule.first_frame, rule.last_frame)};
    }
    if (rule.kind == FaultKind::kDisconnect && rule.burst == 0) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault rule {}: disconnect burst must be > 0",
                              i)};
    }
    if ((rule.kind == FaultKind::kDelay || rule.kind == FaultKind::kStall) &&
        rule.delay.count() < 0) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault rule {}: negative delay", i)};
    }
  }
  return Status::Ok();
}

Result<FaultPlan> plan_from_json(std::string_view json) {
  // A numeric field that is present must be a number that fits its field;
  // the error names the field and its line.
  const auto bad_field = [json](std::string_view obj, std::string_view key,
                                const Status& why) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("fault plan: line {}: {}",
                            line_of(json, raw_value(obj, key)->data()),
                            why.message())};
  };
  const auto number = [&](std::string_view obj, std::string_view key,
                          auto& out) {
    using T = std::remove_reference_t<decltype(out)>;
    auto v = obs::flat_json::number<T>(obj, key);
    if (!v.ok()) return bad_field(obj, key, v.status());
    if (v.value().has_value()) out = *v.value();
    return Status::Ok();
  };
  FaultPlan plan;
  if (Status s = number(json, "seed", plan.seed); !s.ok()) return s;
  const auto rules_pos = json.find("\"rules\"");
  if (rules_pos == std::string_view::npos) {
    if (json.find('{') == std::string_view::npos) {
      return Status{StatusCode::kInvalidArgument,
                    "fault plan: not a JSON object"};
    }
    return plan;  // seed-only plan: valid, unarmed
  }
  std::string_view body = json.substr(rules_pos);
  const auto open = body.find('[');
  if (open == std::string_view::npos) {
    return Status{StatusCode::kInvalidArgument,
                  "fault plan: \"rules\" is not an array"};
  }
  body.remove_prefix(open + 1);
  // Rule objects are flat ({...} with no nesting), so a brace scan splits
  // them without a general parser.
  std::size_t rule_no = 0;
  while (true) {
    const auto obj_open = body.find('{');
    const auto arr_close = body.find(']');
    if (obj_open == std::string_view::npos ||
        (arr_close != std::string_view::npos && arr_close < obj_open)) {
      break;
    }
    const auto obj_close = body.find('}', obj_open);
    if (obj_close == std::string_view::npos) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault plan: rule {} unterminated", rule_no)};
    }
    const std::string_view obj =
        body.substr(obj_open, obj_close - obj_open + 1);
    FaultRule rule;
    const auto kind_name = raw_value(obj, "kind");
    const auto kind =
        kind_name ? fault_kind_from_name(*kind_name) : std::nullopt;
    if (!kind.has_value()) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("fault plan: rule {} has no valid \"kind\"",
                              rule_no)};
    }
    rule.kind = *kind;
    if (const auto port_name = raw_value(obj, "port")) {
      const auto port = obs::link_port_from_name(*port_name);
      if (!port.has_value()) {
        return Status{StatusCode::kInvalidArgument,
                      strformat("fault plan: rule {} has bad port \"{}\"",
                                rule_no, *port_name)};
      }
      rule.port = port;
    }
    if (const auto dir_name = raw_value(obj, "dir")) {
      if (*dir_name == "tx") {
        rule.dir = obs::LinkDir::kTx;
      } else if (*dir_name == "rx") {
        rule.dir = obs::LinkDir::kRx;
      } else {
        return Status{StatusCode::kInvalidArgument,
                      strformat("fault plan: rule {} has bad dir \"{}\"",
                                rule_no, *dir_name)};
      }
    }
    if (const auto p = raw_value(obj, "probability")) {
      std::istringstream text{std::string(*p)};
      if (!(text >> rule.probability) || !(text >> std::ws).eof()) {
        return bad_field(obj, "probability",
                         Status{StatusCode::kInvalidArgument,
                                strformat("field \"probability\" is not a "
                                          "number: {}",
                                          *p)});
      }
    }
    auto delay_us = rule.delay.count();
    for (Status s : {number(obj, "node", rule.node),
                     number(obj, "first_frame", rule.first_frame),
                     number(obj, "last_frame", rule.last_frame),
                     number(obj, "max_events", rule.max_events),
                     number(obj, "delay_us", delay_us),
                     number(obj, "burst", rule.burst)}) {
      if (!s.ok()) return s;
    }
    rule.delay = std::chrono::microseconds{delay_us};
    plan.rules.push_back(rule);
    ++rule_no;
    body.remove_prefix(obj_close + 1);
  }
  if (Status s = plan.validate(); !s.ok()) return s;
  return plan;
}

std::string plan_to_json(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\"seed\":" << plan.seed << ",\"rules\":[";
  bool first = true;
  for (const FaultRule& rule : plan.rules) {
    if (!first) out << ",";
    first = false;
    out << "{\"kind\":\"" << to_string(rule.kind) << "\"";
    if (rule.node != kAnyNode) out << ",\"node\":" << rule.node;
    if (rule.port.has_value()) {
      out << ",\"port\":\"" << obs::to_string(*rule.port) << "\"";
    }
    if (rule.dir.has_value()) {
      out << ",\"dir\":\"" << obs::to_string(*rule.dir) << "\"";
    }
    if (rule.probability != 1.0) {
      out << ",\"probability\":" << rule.probability;
    }
    if (rule.first_frame != 0) out << ",\"first_frame\":" << rule.first_frame;
    if (rule.last_frame != ~u64{0}) {
      out << ",\"last_frame\":" << rule.last_frame;
    }
    if (rule.max_events != ~u64{0}) {
      out << ",\"max_events\":" << rule.max_events;
    }
    if (rule.kind == FaultKind::kDelay || rule.kind == FaultKind::kStall) {
      out << ",\"delay_us\":" << rule.delay.count();
    }
    if (rule.kind == FaultKind::kDisconnect) {
      out << ",\"burst\":" << rule.burst;
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

Result<FaultPlan> load_plan(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status{StatusCode::kNotFound, "cannot open " + path};
  std::ostringstream buf;
  buf << f.rdbuf();
  return plan_from_json(buf.str());
}

FaultSchedule::FaultSchedule(FaultPlan plan, obs::Hub* hub)
    : plan_(std::move(plan)), hub_(hub),
      rule_events_(plan_.rules.size(), 0) {}

void FaultSchedule::set_observer(Observer observer) {
  std::scoped_lock lock(mu_);
  observer_ = std::move(observer);
}

FaultSchedule::Lane& FaultSchedule::lane_at(u32 node, obs::LinkPort port,
                                            obs::LinkDir dir) {
  const u64 key = lane_key(node, port, dir);
  auto it = lanes_.find(key);
  if (it != lanes_.end()) return it->second;
  Lane& lane = lanes_[key];
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!rule_matches(plan_.rules[i], node, port, dir)) continue;
    lane.rules.push_back(
        LaneRule{.rule_index = i, .rng = Rng{mix_seed(plan_.seed, i, key)}});
  }
  return lane;
}

void FaultSchedule::report(const FaultEvent& event) {
  ++injected_;
  if (hub_ != nullptr) {
    hub_->metrics().counter("fault.injected_total").inc();
    hub_->metrics()
        .counter(strformat("fault.injected.{}", to_string(event.kind)))
        .inc();
  }
  if (observer_) observer_(event);
}

std::optional<FaultEvent> FaultSchedule::next(u32 node, obs::LinkPort port,
                                              obs::LinkDir dir,
                                              std::size_t frame_size) {
  std::scoped_lock lock(mu_);
  Lane& lane = lane_at(node, port, dir);
  const u64 index = lane.frames++;
  if (index < lane.blackout_until) {
    // Tail of an earlier kDisconnect burst: the lane is dark.
    FaultEvent event{.kind = FaultKind::kDisconnect,
                     .node = node,
                     .port = port,
                     .dir = dir,
                     .frame_index = index};
    report(event);
    return event;
  }
  for (LaneRule& lr : lane.rules) {
    const FaultRule& rule = plan_.rules[lr.rule_index];
    if (index < rule.first_frame || index > rule.last_frame) continue;
    if (rule_events_[lr.rule_index] >= rule.max_events) continue;
    // One draw per candidate frame keeps each (rule, lane) stream aligned
    // with the lane frame index — the decisions replay bit-exactly.
    if (!lr.rng.chance(rule.probability)) continue;
    ++rule_events_[lr.rule_index];
    FaultEvent event{.kind = rule.kind,
                     .node = node,
                     .port = port,
                     .dir = dir,
                     .frame_index = index,
                     .delay = rule.delay};
    if (rule.kind == FaultKind::kCorrupt) {
      event.corrupt_offset =
          frame_size > 0 ? static_cast<std::size_t>(lr.rng.below(frame_size))
                         : 0;
      event.corrupt_mask = static_cast<u8>(lr.rng.range(1, 255));
    }
    if (rule.kind == FaultKind::kDisconnect) {
      lane.blackout_until = index + rule.burst;
    }
    report(event);
    return event;
  }
  return std::nullopt;
}

u64 FaultSchedule::injected() const {
  std::scoped_lock lock(mu_);
  return injected_;
}

std::shared_ptr<FaultSchedule> compile(const FaultPlan& plan, obs::Hub* hub) {
  if (!plan.armed()) return nullptr;
  return std::make_shared<FaultSchedule>(plan, hub);
}

}  // namespace vhp::fault
