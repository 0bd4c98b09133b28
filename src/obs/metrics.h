// Metric registry: named counters, gauges, and fixed-bucket histograms.
//
// The hot-path contract is the whole point: increments and observations are
// lock-free relaxed atomics, safe from any thread, and a concurrent
// snapshot() sees some consistent-enough recent value of each instrument
// (metrics are monitoring data, not ledger entries — per-instrument atomic
// reads are the right consistency level, and TSan-clean). Registration is
// the slow path (a mutex plus a map insert); callers register once and keep
// the returned reference, which stays valid for the registry's lifetime.
//
// FChainMaster owns a registry per instance, the only home of its
// transport and health counters; a process-global registry
// (obs::metrics()) is available for instruments that outlive any one
// component.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fchain::obs {

/// Monotonic unsigned counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Double-valued gauge: set() overwrites, add() accumulates (CAS loop —
/// the atomic<double> fetch_add path is not universally lock-free).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only copy of a histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< ascending upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (+inf overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// v <= bounds[i] (and > bounds[i-1]); the last bucket catches everything
/// above the top bound. Bucket edges are inclusive on the upper side
/// (Prometheus "le" semantics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  Gauge sum_;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the named instrument, creating it on first use. References
  /// stay valid for the registry's lifetime. A name identifies exactly one
  /// instrument kind — re-registering it as a different kind throws
  /// std::invalid_argument, as does re-registering a histogram with
  /// different bounds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Consistent-per-instrument copy of every registered value.
  MetricsSnapshot snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names
  /// sorted — deterministic for a fixed set of values.
  void writeJson(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry for instruments with no narrower owner.
MetricRegistry& metrics();

}  // namespace fchain::obs
