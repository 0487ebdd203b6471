// perfbench: the co-simulation benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--digest HASH] [--spans PATH]
//
// Repeats fresh, self-checking repetitions of one workload until S seconds
// have passed (at least one of each repetition kind), then prints a
// readable table and, as its last line, one JSON object with every metric
// (value, unit, sample count, whether it applies to this workload), the
// operation counts and the digest. perfbench/run.py builds this binary and
// selects the metrics BENCHMARK.json names.
//
// --trace 0 runs plain repetitions only. --trace 1 interleaves plain,
// traced (and, for router_tcp, armed) repetitions; the per-layer split
// comes from the traced ones, the tracing overhead from the pair.
// --digest is the expected digest of every repetition (the committed
// reference for the default seed); without it the repetitions must agree
// with each other. --spans writes the last traced repetition's spans.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string digest;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--digest") a.digest = value;
    else if (key == "--spans") a.spans = value;
    else return false;
  }
  return !a.workload.empty() && a.seconds >= 0;
}

/// Everything the repetitions of one kind add up to.
struct Agg {
  int reps = 0;
  double wall_s = 0;
  double cycles = 0;
  double count_cycles = 0;
  std::vector<double> setup_s;
  std::map<std::string, double> totals;
  std::map<std::string, Samples> samples;

  void add(const RepResult& r) {
    ++reps;
    wall_s += r.wall_s;
    cycles += static_cast<double>(r.cycles);
    count_cycles +=
        static_cast<double>(r.count_cycles != 0 ? r.count_cycles : r.cycles);
    setup_s.push_back(r.setup_s);
    for (const auto& [k, v] : r.totals) totals[k] += v;
    for (const auto& [k, s] : r.samples) samples[k].append(s);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return totals.count(key) != 0;
  }
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = totals.find(key);
    return it == totals.end() ? 0 : it->second;
  }
  /// Timed-region wall time per simulated kcycle, over every repetition.
  [[nodiscard]] std::optional<double> us_per_kcycle() const {
    if (cycles <= 0) return std::nullopt;
    return wall_s * 1e6 / (cycles / 1e3);
  }
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  bool applies = false;
  std::string note;  // why it does not apply or is not reported
};

class MetricTable {
 public:
  void put(const std::string& name, const std::string& unit,
           std::optional<double> value, std::size_t samples,
           const std::string& note = "n/a for this workload") {
    Metric m;
    m.unit = unit;
    m.samples = samples;
    m.applies = value.has_value() && std::isfinite(*value);
    m.value = m.applies ? *value : 0;
    if (!m.applies) m.note = note;
    order_.push_back(name);
    metrics_[name] = m;
  }
  /// A raw-sample percentile, not reported with < 10 samples beyond it.
  void percentile(const std::string& name, const std::string& unit,
                  const Agg& agg, const std::string& key, double q,
                  double scale = 1) {
    const auto it = agg.samples.find(key);
    if (it == agg.samples.end() || it->second.count() == 0) {
      put(name, unit, std::nullopt, 0);
      return;
    }
    const auto p = it->second.percentile(q);
    put(name, unit,
        p.has_value() ? std::optional<double>(*p * scale) : std::nullopt,
        it->second.count(), "fewer than 10 samples beyond it");
  }
  /// totals[key] per simulated kcycle of `agg` (time keys: the region's
  /// kcycles; counts: the kcycles they cover).
  void per_kcycle(const std::string& name, const std::string& unit,
                  const Agg& agg, const std::string& key, bool count) {
    const double kc = (count ? agg.count_cycles : agg.cycles) / 1e3;
    put(name, unit,
        agg.has(key) && kc > 0 ? std::optional<double>(agg.get(key) / kc)
                               : std::nullopt,
        static_cast<std::size_t>(agg.reps));
  }
  void ratio(const std::string& name, const std::string& unit,
             const Agg& agg, const std::string& num, const std::string& den,
             double scale = 1) {
    put(name, unit,
        agg.has(num) && agg.get(den) > 0
            ? std::optional<double>(scale * agg.get(num) / agg.get(den))
            : std::nullopt,
        static_cast<std::size_t>(agg.reps));
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::vector<std::string>& order() const { return order_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

std::optional<double> median_opt(const std::vector<double>& v) {
  if (v.empty()) return std::nullopt;
  return median_of(v);
}

void end_to_end(MetricTable& t, const Agg& plain, double first_rep_rss_mib,
                u64 attempted, u64 failed) {
  // The shared host alternates, for seconds at a time, between a fast state
  // and one in which the same windows take up to 1.6x longer. The region
  // mean (host_us_per_kcycle, the whole region, drain included) and the
  // windows' median follow the share of the run spent in each; the lowest
  // decile of the windows reads the program's cost in the fast state
  // whenever a tenth of the run had it.
  t.percentile("host_us_per_kcycle_p10", "us/kcycle", plain, "kcycle_us", 0.10);
  t.put("host_us_per_kcycle", "us/kcycle", plain.us_per_kcycle(),
        static_cast<std::size_t>(plain.reps));
  t.put("setup_s", "s", median_opt(plain.setup_s), plain.setup_s.size());
  t.put("peak_rss_mib", "MiB", first_rep_rss_mib, 1);
  t.put("ops_failed_frac", "ratio",
        static_cast<double>(failed) / static_cast<double>(attempted),
        attempted);
}

/// Whether every end-to-end metric has its samples yet.
bool end_to_end_ready(const Agg& plain) {
  MetricTable t;
  end_to_end(t, plain, 0, 1, 0);
  for (const std::string& name : t.order()) {
    if (!t.find(name)->applies) return false;
  }
  return true;
}

void per_layer(MetricTable& t, const Agg& plain, const Agg& traced,
               const Agg& armed, const Agg& all) {
  t.percentile("host_us_per_kcycle_p50", "us/kcycle", plain, "kcycle_us", 0.50);
  t.percentile("slice_us_p50", "us", plain, "slice_us", 0.50);
  t.percentile("slice_us_p99", "us", plain, "slice_us", 0.99);
  t.per_kcycle("cosim.simulate_us_per_kcycle", "us/kcycle", traced,
               "cosim.simulate_us", false);
  t.per_kcycle("cosim.exchange_us_per_kcycle", "us/kcycle", traced,
               "cosim.exchange_us", false);
  t.percentile("cosim.exchange_us_p50", "us", traced, "cosim.exchange_us", 0.50);
  t.percentile("cosim.exchange_us_p99", "us", traced, "cosim.exchange_us", 0.99);
  t.per_kcycle("cosim.syncs_per_kcycle", "1/kcycle", all, "cosim.syncs", true);
  t.per_kcycle("cosim.data_frames_per_kcycle", "1/kcycle", all,
               "cosim.data_frames", true);
  t.per_kcycle("cosim.interrupts_per_kcycle", "1/kcycle", all,
               "cosim.interrupts", true);
  // One DATA poll per master cycle: frames found per poll.
  t.put("cosim.data_poll_hit_ratio", "ratio",
        all.has("cosim.data_frames") && all.count_cycles > 0
            ? std::optional<double>(all.get("cosim.data_frames") /
                                    all.count_cycles)
            : std::nullopt,
        static_cast<std::size_t>(all.reps));
  t.per_kcycle("sim.delta_cycles_per_kcycle", "1/kcycle", all,
               "sim.delta_cycles", true);

  t.per_kcycle("fabric.barrier_us_per_kcycle", "us/kcycle", traced,
               "fabric.barrier_us", false);
  t.percentile("fabric.barrier_us_p50", "us", traced, "fabric.barrier_us", 0.50);
  t.percentile("fabric.barrier_us_p99", "us", traced, "fabric.barrier_us", 0.99);
  t.per_kcycle("fabric.barrier_wait_us_per_kcycle", "us/kcycle", plain,
               "fabric.barrier_wait_us", false);
  t.per_kcycle("fabric.barriers_per_kcycle", "1/kcycle", all,
               "fabric.barriers", true);
  t.ratio("fabric.ticks_per_barrier", "ratio", all, "fabric.ticks",
          "fabric.barriers");
  t.ratio("fabric.grant_cycles_mean", "cycles", all, "fabric.grant_cycles",
          "fabric.grants");

  t.per_kcycle("board.comm_us_per_kcycle", "us/kcycle", traced,
               "board.comm_us", false);
  t.per_kcycle("board.app_us_per_kcycle", "us/kcycle", traced,
               "board.app_us", false);
  t.per_kcycle("board.idle_us_per_kcycle", "us/kcycle", traced,
               "board.idle_us", false);
  t.per_kcycle("rtos.dispatches_per_kcycle", "1/kcycle", all,
               "rtos.dispatches", true);
  t.per_kcycle("rtos.ticks_per_kcycle", "1/kcycle", all, "rtos.ticks", true);
  t.per_kcycle("rtos.freezes_per_kcycle", "1/kcycle", all, "rtos.freezes",
               true);

  t.per_kcycle("iss.us_per_kcycle", "us/kcycle", traced, "iss_us", false);
  t.ratio("iss.ns_per_instruction", "ns", traced, "iss_us",
          "iss.instructions", 1e3);
  t.per_kcycle("iss.instructions_per_kcycle", "1/kcycle", all,
               "iss.instructions", true);
  t.put("iss.sim_mips", "Minstr/s",
        plain.has("iss.instructions") && plain.wall_s > 0
            ? std::optional<double>(plain.get("iss.instructions") /
                                    plain.wall_s / 1e6)
            : std::nullopt,
        static_cast<std::size_t>(plain.reps));

  t.percentile("svc.timer_late_ms_p50", "ms", traced, "svc.timer_late_ms", 0.50);
  t.percentile("svc.timer_late_ms_p90", "ms", traced, "svc.timer_late_ms", 0.90);
  t.per_kcycle("svc.step_us_per_kcycle", "us/kcycle", plain, "svc.step_us",
               false);
  t.per_kcycle("svc.steps_per_kcycle", "1/kcycle", all, "svc.steps", true);
  t.per_kcycle("svc.loop_iterations_per_kcycle", "1/kcycle", all,
               "svc.loop_iterations", true);
  t.ratio("net.batch.frames_per_flush", "ratio", all, "net.batch.frames",
          "net.batch.flushes");

  for (const char* thread : {"master", "boards", "loop"}) {
    const std::string base = std::string("host.") + thread;
    for (const char* kind : {"cpu", "sys", "runq"}) {
      t.per_kcycle(base + "." + kind + "_us_per_kcycle", "us/kcycle", plain,
                   base + "." + kind + "_us", false);
    }
    const double wall = traced.get(base + ".wall_us");
    t.put(base + ".unattributed_frac", "ratio",
          wall > 0 ? std::optional<double>(
                         1 - traced.get(base + ".attributed_us") / wall)
                   : std::nullopt,
          static_cast<std::size_t>(traced.reps));
  }

  const auto p = plain.us_per_kcycle();
  const auto tr = traced.us_per_kcycle();
  t.put("obs.trace_overhead_frac", "ratio",
        p && tr && *p > 0 ? std::optional<double>(*tr / *p - 1) : std::nullopt,
        static_cast<std::size_t>(traced.reps));
  t.put("obs.armed_us_per_kcycle", "us/kcycle", armed.us_per_kcycle(),
        static_cast<std::size_t>(armed.reps));
  // Printed beside the traced split, not bounded: the armed run read through
  // the library's stall profiler and sync-RTT histogram (sum / count).
  for (const char* layer : {"hdl", "poll"}) {
    const std::string key = std::string("obs.armed_") + layer + "_ns";
    t.put(key + "_per_cycle", "ns",
          armed.has(key) && armed.cycles > 0
              ? std::optional<double>(armed.get(key) / armed.cycles)
              : std::nullopt,
          static_cast<std::size_t>(armed.reps));
  }
  t.ratio("obs.armed_sync_rtt_us_mean", "us", armed, "obs.armed_sync_rtt_ns",
          "obs.armed_syncs", 1e-3);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void write_spans(const std::string& path, const RepResult& r) {
  std::ofstream out(path);
  for (const SpanLog& log : r.logs) {
    for (const Span& s : log.spans) {
      out << "{\"thread\":" << json_string(log.thread)
          << ",\"name\":" << json_string(s.name)
          << ",\"start_ns\":" << s.start_ns - r.region_start_ns
          << ",\"end_ns\":" << s.end_ns - r.region_start_ns
          << ",\"parent\":" << s.parent << ",\"quantum\":" << s.quantum
          << "}\n";
    }
  }
}

/// Prints whether the traced split matches what the workload is for.
void print_purpose(const std::string& name, const MetricTable& t) {
  auto v = [&t](const char* m) {
    const Metric* x = t.find(m);
    return x != nullptr && x->applies ? x->value : 0.0;
  };
  std::string claim;
  bool met = false;
  if (name == "router_tcp") {
    claim = "master time is mostly simulate";
    met = v("cosim.simulate_us_per_kcycle") > v("cosim.exchange_us_per_kcycle");
  } else if (name == "iss_firmware") {
    claim = "the largest layer is iss.us_per_kcycle";
    met = true;
    for (const char* other :
         {"cosim.simulate_us_per_kcycle", "board.comm_us_per_kcycle",
          "board.app_us_per_kcycle", "board.idle_us_per_kcycle"}) {
      met = met && v("iss.us_per_kcycle") > v(other);
    }
  } else if (name == "idle_density") {
    claim = "no DATA frames move";
    met = t.find("cosim.data_frames_per_kcycle")->applies &&
          v("cosim.data_frames_per_kcycle") == 0;
  } else if (name == "fabric8") {
    claim = "every node ticks (checked per repetition)";
    met = v("rtos.ticks_per_kcycle") > 0;
  }
  std::printf("purpose: %s: %s\n", claim.c_str(), met ? "met" : "NOT MET");
}

int run(const Args& args) {
  std::vector<Workload> all = {router_tcp_workload(), idle_density_workload(),
                               fabric8_workload(), iss_firmware_workload()};
  const Workload* w = nullptr;
  for (const auto& cand : all) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  raise_fd_limit();

  const std::vector<Mode> modes =
      args.trace ? w->trace_modes : std::vector<Mode>{Mode::kPlain};
  std::map<Mode, Agg> agg;
  Agg every;
  u64 attempted = 0, failed = 0;
  std::string expected = args.digest;
  std::map<std::string, u64> first_digest;
  std::string first_error;
  RepResult last_traced;
  // The process's peak after its first repetition: one instance of the
  // workload, before the benchmark's own sample buffers grow with the run.
  double first_rep_rss_mib = 0;
  const u64 deadline =
      now_ns() + static_cast<u64>(args.seconds * 1e9);
  // Past the deadline, repetitions go on until every end-to-end metric has
  // its samples (the lowest decile needs 101 windows, about eight fabric8
  // repetitions), for at most another minute.
  const u64 cap = deadline + 60'000'000'000ULL;
  auto more = [&](std::size_t i) {
    if (i < modes.size()) return true;
    const u64 t = now_ns();
    return t < deadline || (t < cap && !end_to_end_ready(agg[Mode::kPlain]));
  };
  for (std::size_t i = 0; more(i); ++i) {
    const Mode mode = modes[i % modes.size()];
    // Each cycle of modes runs on one set of CPUs, so the traced and plain
    // repetitions it compares share them.
    rotate_cpus(static_cast<int>(i / modes.size()));
    RepResult r = w->run_rep(RepConfig{args.seed, mode});
    if (i == 0) first_rep_rss_mib = peak_rss_mib();
    const std::string hash = digest_hash(r.digest);
    if (first_digest.empty()) first_digest = r.digest;
    if (expected.empty()) expected = hash;
    if (hash != expected) {
      std::string diff;
      for (const auto& [k, v] : r.digest) {
        const auto it = first_digest.find(k);
        if (it == first_digest.end() || it->second != v) {
          diff += " " + k + "=" + std::to_string(v);
        }
      }
      r.fail("digest " + hash + " differs from " + expected +
             (diff.empty() ? "" : " (vs the first repetition:" + diff + ")"));
    }
    if (r.ops_attempted == 0) r.ops_attempted = 1;
    if (!r.ok) r.ops_failed = r.ops_attempted;
    std::printf("rep %zu %-6s setup %.6f s, %.1f us/kcycle, digest %s%s\n", i,
                mode == Mode::kPlain    ? "plain"
                : mode == Mode::kTraced ? "traced"
                                        : "armed",
                r.setup_s,
                r.cycles > 0 ? r.wall_s * 1e9 / static_cast<double>(r.cycles)
                             : 0.0,
                hash.c_str(), r.ok ? "" : " FAILED");
    if (!r.ok && first_error.empty()) first_error = r.error;
    attempted += r.ops_attempted;
    failed += r.ops_failed;
    agg[mode].add(r);
    every.add(r);
    if (mode == Mode::kTraced) last_traced = std::move(r);
  }
  if (!args.spans.empty() && !last_traced.logs.empty()) {
    write_spans(args.spans, last_traced);
  }

  MetricTable table;
  end_to_end(table, agg[Mode::kPlain], first_rep_rss_mib, attempted, failed);
  per_layer(table, agg[Mode::kPlain], agg[Mode::kTraced], agg[Mode::kArmed],
            every);

  std::printf("perfbench %s seed=%llu trace=%d: %d repetitions\n", w->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              every.reps);
  std::printf("%-36s %14s %-10s %8s\n", "metric", "value", "unit", "samples");
  for (const std::string& name : table.order()) {
    const Metric& m = *table.find(name);
    if (m.applies) {
      std::printf("%-36s %14.4f %-10s %8zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-36s %14s %-10s %8zu  (%s)\n", name.c_str(), "-",
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }
  std::printf("digest %s:", expected.c_str());
  for (const auto& [k, v] : first_digest) {
    std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
  }
  std::printf("\nops: %llu attempted, %llu failed%s%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              first_error.empty() ? "" : "; first failure: ",
              first_error.c_str());
  if (args.trace) print_purpose(w->name, table);

  std::string json = "{\"workload\":" + json_string(w->name) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"repetitions\":" + std::to_string(every.reps) +
                     ",\"correct\":" + (failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"digest\":" + json_string(expected) +
                     ",\"error\":" + json_string(first_error) +
                     ",\"metrics\":{";
  bool first = true;
  for (const std::string& name : table.order()) {
    const Metric& m = *table.find(name);
    json += (first ? "" : ",") + json_string(name) +
            ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) +
            ",\"applies\":" + (m.applies ? "true" : "false") + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--digest HASH] [--spans PATH]\n");
    return 2;
  }
  return perfbench::run(args);
}
