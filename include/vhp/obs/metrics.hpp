// Unified metric primitives for the whole co-simulation stack.
//
// Every per-component counter struct (CosimKernel::Stats, Board::Stats, the
// channel byte counters) is a *view* over instruments registered here, so a
// single JSON dump describes one co-simulation run end to end — the paper's
// evaluation (Figures 5-7) is entirely about where time and traffic go, and
// BENCH_*.json trajectories need that to be self-describing.
//
// Hot-path contract: an update is one relaxed atomic RMW, no locks, no
// allocation. Registration (name lookup) takes a mutex and may allocate, so
// components resolve their instruments once at construction and keep the
// references; instrument storage is pointer-stable for the registry's
// lifetime.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "vhp/common/types.hpp"

namespace vhp::obs {

/// Monotonically increasing event count (messages, syncs, drops, ...).
class Counter {
 public:
  void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> value_{0};
};

/// Last-written level (queue depth, budget, configuration echo, ...).
class Gauge {
 public:
  void set(i64 v) { value_.store(v, std::memory_order_relaxed); }
  void add(i64 d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] i64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<i64> value_{0};
};

/// Fixed-bucket latency histogram: bucket i counts samples in
/// [2^i, 2^(i+1)) nanoseconds (bucket 0 additionally takes 0). Power-of-two
/// buckets make record() a bit_width plus one relaxed increment — cheap
/// enough for per-message paths — while still resolving the microsecond vs
/// millisecond split that dominates sync-stall analysis.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;  // up to ~2^40 ns ≈ 18 min

  void record_ns(u64 ns) {
    const std::size_t idx =
        ns == 0 ? 0
                : std::min<std::size_t>(std::bit_width(ns) - 1, kBuckets - 1);
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] u64 count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const {
    const u64 n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns()) / static_cast<double>(n);
  }
  [[nodiscard]] u64 bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive lower edge of bucket i in nanoseconds.
  [[nodiscard]] static u64 bucket_floor_ns(std::size_t i) {
    return i == 0 ? 0 : u64{1} << i;
  }
  /// Conservative quantile estimate from the power-of-two buckets: the
  /// inclusive *upper* edge of the bucket where the cumulative count reaches
  /// ceil(q * count), so "p95_ns() == v" reads "at least 95% of samples were
  /// ≤ v". Bucket resolution bounds the error to one octave. 0 when empty;
  /// `q` is clamped to (0, 1].
  [[nodiscard]] u64 percentile_ns(double q) const;

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_ns_{0};
};

/// Name-keyed instrument registry. Names are dotted paths
/// ("fabric.ticks_sent", "net.hw.data.tx_bytes"); re-registering a name
/// returns the same instrument, so independent components may share one
/// series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  /// Instrument present (of any kind)?
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Snapshot of every instrument as one JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Histograms list only their non-empty buckets. `key_prefix` is prepended
  /// to every instrument name ("node0." turns "board.acks_sent" into
  /// "node0.board.acks_sent"), so several registries can merge into one
  /// document without key collisions.
  [[nodiscard]] std::string to_json(std::string_view key_prefix = {}) const;

  /// Section-emitter backing to_json(): appends this registry's instruments
  /// (prefixed) to the three JSON object bodies. `first_*` track whether a
  /// comma is due, so successive registries can share one document.
  void append_json_sections(std::string& counters, std::string& gauges,
                            std::string& histograms, std::string_view prefix,
                            bool& first_counter, bool& first_gauge,
                            bool& first_histogram) const;

  /// Visitors (sorted by name); used by the JSON dump and the tests.
  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const LatencyHistogram&)>&
          fn) const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Gauge*, std::less<>> gauges_;
  std::map<std::string, LatencyHistogram*, std::less<>> histograms_;
  // Pointer-stable storage (deque never relocates existing elements).
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<LatencyHistogram> histogram_storage_;
};

/// Escapes `s` for inclusion in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace vhp::obs
