#include "vhp/obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "vhp/common/format.hpp"
#include "vhp/obs/metrics.hpp"

namespace vhp::obs {

std::string_view to_string(SpanPhase p) {
  switch (p) {
    case SpanPhase::kScatter: return "scatter";
    case SpanPhase::kGather: return "gather";
    case SpanPhase::kNodeWait: return "wait";
    case SpanPhase::kCompute: return "compute";
    case SpanPhase::kFrozen: return "frozen";
    case SpanPhase::kBarrier: return "barrier";
    case SpanPhase::kSlice: return "slice";
    case SpanPhase::kDevRead: return "dev_read";
    case SpanPhase::kEvict: return "evict";
    case SpanPhase::kRejoin: return "rejoin";
    case SpanPhase::kSimulate: return "simulate";
  }
  return "unknown";
}

bool is_round_phase(SpanPhase p) { return p <= SpanPhase::kBarrier; }

namespace {

std::mutex g_labels_mu;
std::vector<std::string> g_labels;

}  // namespace

u32 span_label(std::string_view name) {
  std::scoped_lock lock(g_labels_mu);
  for (std::size_t i = 0; i < g_labels.size(); ++i) {
    if (g_labels[i] == name) return static_cast<u32>(i);
  }
  g_labels.emplace_back(name);
  return static_cast<u32>(g_labels.size() - 1);
}

std::string span_label_name(u64 label) {
  std::scoped_lock lock(g_labels_mu);
  return label < g_labels.size() ? g_labels[label] : "?";
}

SpanSink::SpanSink(const TimelineConfig& config, std::string name)
    : config_(config), name_(std::move(name)) {
  if (config_.enabled && config_.ring_spans > 0) {
    ring_.reserve(config_.ring_spans);
  }
}

void SpanSink::record(const SpanRecord& span) {
  if (!config_.enabled || config_.ring_spans == 0) return;
  std::scoped_lock lock(mu_);
  if (ring_.size() < config_.ring_spans) {
    ring_.push_back(span);
  } else {
    // Flight-recorder discipline: overwrite oldest, count the loss.
    ring_[next_ % config_.ring_spans] = span;
    ++dropped_;
  }
  ++next_;
  ++recorded_;
  PhaseTotal& total = totals_[static_cast<std::size_t>(span.phase)];
  ++total.count;
  total.ns += span.end_ns - std::min(span.start_ns, span.end_ns);
}

u64 SpanSink::recorded() const {
  std::scoped_lock lock(mu_);
  return recorded_;
}

u64 SpanSink::dropped() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

PhaseTotal SpanSink::total(SpanPhase phase) const {
  std::scoped_lock lock(mu_);
  return totals_[static_cast<std::size_t>(phase)];
}

std::vector<SpanRecord> SpanSink::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<SpanRecord> out;
  if (ring_.empty()) return out;
  // The oldest entry sits at the write cursor once the ring has wrapped,
  // and at 0 before (the cursor then equals the size).
  const auto head = static_cast<std::ptrdiff_t>(next_ % ring_.size());
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + head, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + head);
  return out;
}

Timeline::Timeline(TimelineConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {}

u64 Timeline::now_ns() const {
  return ns_at(std::chrono::steady_clock::now());
}

u64 Timeline::ns_at(std::chrono::steady_clock::time_point t) const {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count());
}

std::chrono::steady_clock::time_point Timeline::epoch() const {
  return epoch_;
}

void Timeline::set_epoch(std::chrono::steady_clock::time_point epoch) {
  epoch_ = epoch;
}

SpanSink& Timeline::sink(std::string_view name) {
  std::scoped_lock lock(mu_);
  for (auto& s : sinks_) {
    if (s->name() == name) return *s;
  }
  sinks_.push_back(std::make_unique<SpanSink>(config_, std::string(name)));
  return *sinks_.back();
}

PhaseTotal Timeline::total(SpanPhase phase) const {
  PhaseTotal sum;
  std::scoped_lock lock(mu_);
  for (const auto& s : sinks_) {
    const PhaseTotal t = s->total(phase);
    sum.count += t.count;
    sum.ns += t.ns;
  }
  return sum;
}

std::vector<SpanRecord> Timeline::snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::scoped_lock lock(mu_);
    for (const auto& s : sinks_) {
      const auto spans = s->snapshot();
      out.insert(out.end(), spans.begin(), spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void Timeline::export_to(MetricsRegistry& registry) const {
  u64 recorded = 0, dropped = 0;
  {
    std::scoped_lock lock(mu_);
    for (const auto& s : sinks_) {
      recorded += s->recorded();
      dropped += s->dropped();
    }
  }
  registry.gauge("timeline.spans").set(static_cast<i64>(recorded));
  registry.gauge("timeline.dropped_spans").set(static_cast<i64>(dropped));
}

namespace {

[[nodiscard]] bool is_coordinator_phase(SpanPhase p) {
  return p == SpanPhase::kScatter || p == SpanPhase::kGather ||
         p == SpanPhase::kNodeWait || p == SpanPhase::kBarrier;
}

[[nodiscard]] std::string node_label(u32 node,
                                     const std::map<u32, std::string>& names) {
  const auto it = names.find(node);
  return it != names.end() ? it->second : strformat("node{}", node);
}

struct RoundAccum {
  u64 cycle = 0;
  // Coordinator-side window; falls back to all spans when a recording only
  // has the board side.
  u64 coord_start = ~u64{0};
  u64 coord_end = 0;
  u64 any_start = ~u64{0};
  u64 any_end = 0;
  // Per-node kNodeWait intervals for straggler analysis.
  std::map<u32, std::pair<u64, u64>> waits;  // node -> [start, end]
  std::map<u32, u64> computes;               // node -> duration
  std::map<u32, bool> seen;
};

}  // namespace

TimelineAnalysis analyze_spans(const std::vector<SpanRecord>& spans,
                               const std::map<u32, std::string>& node_names) {
  TimelineAnalysis a;
  if (spans.empty()) return a;

  std::map<u64, RoundAccum> rounds;
  for (const SpanRecord& s : spans) {
    if (!is_round_phase(s.phase)) continue;
    RoundAccum& r = rounds[s.round];
    if (r.cycle == 0) r.cycle = s.cycle;
    r.any_start = std::min(r.any_start, s.start_ns);
    r.any_end = std::max(r.any_end, s.end_ns);
    if (is_coordinator_phase(s.phase)) {
      r.coord_start = std::min(r.coord_start, s.start_ns);
      r.coord_end = std::max(r.coord_end, s.end_ns);
    }
    switch (s.phase) {
      case SpanPhase::kNodeWait:
        r.waits[s.node] = {s.start_ns, s.end_ns};
        r.seen[s.node] = true;
        break;
      case SpanPhase::kCompute:
        r.computes[s.node] += s.end_ns - std::min(s.start_ns, s.end_ns);
        r.seen[s.node] = true;
        break;
      case SpanPhase::kFrozen:
        r.seen[s.node] = true;
        break;
      default:
        break;
    }
  }

  std::map<u32, NodeAttribution> nodes;
  u64 wall_start = ~u64{0}, wall_end = 0;
  u64 barrier_wall = 0;
  u64 critical = 0;  // Σ per-round straggler wait measured from round start

  for (auto& [round_id, r] : rounds) {
    const bool have_coord = r.coord_start != ~u64{0};
    const u64 start = have_coord ? r.coord_start : r.any_start;
    const u64 end = have_coord ? r.coord_end : r.any_end;
    wall_start = std::min(wall_start, start);
    wall_end = std::max(wall_end, end);
    barrier_wall += end - std::min(start, end);

    RoundSummary summary;
    summary.round = round_id;
    summary.cycle = r.cycle;
    summary.start_ns = start;
    summary.end_ns = end;
    summary.nodes = static_cast<u32>(r.seen.size());

    u64 fastest_ack = ~u64{0}, slowest_ack = 0;
    for (const auto& [node, w] : r.waits) {
      fastest_ack = std::min(fastest_ack, w.second);
      if (w.second >= slowest_ack) {
        slowest_ack = w.second;
        summary.straggler = node;
      }
    }
    if (!r.waits.empty()) {
      summary.straggler_wait_ns = slowest_ack - std::min(fastest_ack,
                                                         slowest_ack);
      critical += slowest_ack - std::min(start, slowest_ack);
    } else {
      critical += end - std::min(start, end);
    }

    for (const auto& [node, seen] : r.seen) {
      (void)seen;
      NodeAttribution& attr = nodes[node];
      attr.node = node;
      ++attr.rounds;
      const auto wit = r.waits.find(node);
      const u64 wait =
          wit == r.waits.end()
              ? 0
              : wit->second.second - std::min(wit->second.first,
                                              wit->second.second);
      const auto cit = r.computes.find(node);
      const u64 compute = cit == r.computes.end() ? 0 : cit->second;
      attr.wait_ns += wait;
      attr.compute_ns += compute;
      attr.transport_ns += wait > compute ? wait - compute : 0;
      if (!r.waits.empty() && node == summary.straggler) {
        ++attr.straggler_rounds;
      }
    }
    a.rounds.push_back(summary);
  }

  a.wall_ns = wall_end - std::min(wall_start, wall_end);
  a.barrier_wall_ns = std::min(barrier_wall, a.wall_ns);
  a.master_compute_ns = a.wall_ns - a.barrier_wall_ns;

  u64 first_cycle = ~u64{0}, last_cycle = 0;
  for (const RoundSummary& r : a.rounds) {
    if (r.cycle == 0) continue;
    first_cycle = std::min(first_cycle, r.cycle);
    last_cycle = std::max(last_cycle, r.cycle);
  }
  a.virtual_cycles =
      first_cycle == ~u64{0} ? 0 : last_cycle - std::min(first_cycle,
                                                         last_cycle);
  if (a.virtual_cycles > 0) {
    a.slowdown = static_cast<double>(a.wall_ns) /
                 static_cast<double>(a.virtual_cycles);
  }

  // Reconciliation: the critical path through each round's straggler plus
  // the inter-round master compute must re-compose the analyzed wall-clock.
  if (a.wall_ns > 0) {
    const u64 attributed = a.master_compute_ns + critical;
    const u64 diff = attributed > a.wall_ns ? attributed - a.wall_ns
                                            : a.wall_ns - attributed;
    a.reconciliation_error =
        static_cast<double>(diff) / static_cast<double>(a.wall_ns);
  }

  for (auto& [node, attr] : nodes) {
    attr.name = node_label(node, node_names);
    a.nodes.push_back(std::move(attr));
  }
  return a;
}

namespace {

[[nodiscard]] std::string fmt_us(u64 ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", static_cast<double>(ns) / 1e3);
  return buf;
}

[[nodiscard]] std::string fmt_pct(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", f * 100.0);
  return buf;
}

}  // namespace

std::string timeline_report_text(const TimelineAnalysis& a,
                                 std::size_t max_rounds) {
  std::ostringstream out;
  out << "rounds: " << a.rounds.size() << "  wall: " << fmt_us(a.wall_ns)
      << " us  barrier: " << fmt_us(a.barrier_wall_ns)
      << " us  master-compute: " << fmt_us(a.master_compute_ns) << " us\n";
  if (a.rounds.empty()) return out.str();
  char line[160];
  std::snprintf(line, sizeof line, "%8s %12s %12s %7s %10s %14s\n", "round",
                "cycle", "dur_us", "nodes", "straggler", "strag_wait_us");
  out << line;
  const std::size_t shown = std::min(max_rounds, a.rounds.size());
  const std::size_t skip = a.rounds.size() - shown;
  if (skip > 0) out << "  ... " << skip << " earlier rounds elided ...\n";
  for (std::size_t i = skip; i < a.rounds.size(); ++i) {
    const RoundSummary& r = a.rounds[i];
    std::snprintf(line, sizeof line, "%8llu %12llu %12s %7u %10u %14s\n",
                  (unsigned long long)r.round, (unsigned long long)r.cycle,
                  fmt_us(r.end_ns - r.start_ns).c_str(), r.nodes, r.straggler,
                  fmt_us(r.straggler_wait_ns).c_str());
    out << line;
  }
  return out.str();
}

std::string critical_report_text(const TimelineAnalysis& a) {
  std::ostringstream out;
  out << "critical path over " << a.rounds.size() << " rounds, "
      << a.virtual_cycles << " virtual cycles\n";
  out << "  wall:           " << fmt_us(a.wall_ns) << " us\n";
  out << "  barrier:        " << fmt_us(a.barrier_wall_ns) << " us ("
      << fmt_pct(a.wall_ns
                     ? static_cast<double>(a.barrier_wall_ns) /
                           static_cast<double>(a.wall_ns)
                     : 0.0)
      << " of wall)\n";
  out << "  master compute: " << fmt_us(a.master_compute_ns) << " us\n";
  if (a.virtual_cycles > 0) {
    char line[96];
    std::snprintf(line, sizeof line,
                  "  slowdown:       %.1f ns/cycle (%.1fx at 1 GHz)\n",
                  a.slowdown, a.slowdown);
    out << line;
  }
  out << "  reconciliation: " << fmt_pct(a.reconciliation_error)
      << " deviation from wall\n";
  if (!a.nodes.empty()) {
    char line[192];
    std::snprintf(line, sizeof line, "%10s %8s %12s %12s %13s %10s\n", "node",
                  "rounds", "wait_us", "compute_us", "transport_us",
                  "straggler");
    out << line;
    // Straggler-heaviest first: that is the chain to optimize.
    std::vector<NodeAttribution> ranked = a.nodes;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const NodeAttribution& x, const NodeAttribution& y) {
                       return x.straggler_rounds > y.straggler_rounds;
                     });
    for (const NodeAttribution& n : ranked) {
      std::snprintf(line, sizeof line, "%10s %8llu %12s %12s %13s %10llu\n",
                    n.name.c_str(), (unsigned long long)n.rounds,
                    fmt_us(n.wait_ns).c_str(), fmt_us(n.compute_ns).c_str(),
                    fmt_us(n.transport_ns).c_str(),
                    (unsigned long long)n.straggler_rounds);
      out << line;
    }
  }
  return out.str();
}

std::string timeline_analysis_json(const TimelineAnalysis& a) {
  std::ostringstream out;
  out << "{\"rounds\":" << a.rounds.size() << ",\"wall_ns\":" << a.wall_ns
      << ",\"barrier_wall_ns\":" << a.barrier_wall_ns
      << ",\"master_compute_ns\":" << a.master_compute_ns
      << ",\"virtual_cycles\":" << a.virtual_cycles
      << ",\"slowdown\":" << a.slowdown
      << ",\"reconciliation_error\":" << a.reconciliation_error
      << ",\"nodes\":[";
  bool first = true;
  for (const NodeAttribution& n : a.nodes) {
    if (!first) out << ",";
    first = false;
    out << "{\"node\":" << n.node << ",\"name\":\"" << json_escape(n.name)
        << "\",\"rounds\":" << n.rounds << ",\"wait_ns\":" << n.wait_ns
        << ",\"compute_ns\":" << n.compute_ns
        << ",\"transport_ns\":" << n.transport_ns
        << ",\"straggler_rounds\":" << n.straggler_rounds << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace vhp::obs
