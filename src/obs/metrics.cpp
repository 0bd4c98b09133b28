#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <new>
#include <ostream>
#include <stdexcept>

namespace fchain::obs {

namespace {

/// Doubles in JSON: shortest round-trip representation is overkill here;
/// %.17g round-trips and stays deterministic for a fixed value.
void writeDouble(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << (v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0"));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.add(v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets.push_back(buckets_[i].load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.value();
  return snap;
}

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(name);
  const auto it = counters_.find(key);
  if (it != counters_.end()) return *it->second;
  if (gauges_.contains(key) || histograms_.contains(key)) {
    throw std::invalid_argument("metric '" + key +
                                "' already registered as another kind");
  }
  return *counters_.emplace(key, std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(name);
  const auto it = gauges_.find(key);
  if (it != gauges_.end()) return *it->second;
  if (counters_.contains(key) || histograms_.contains(key)) {
    throw std::invalid_argument("metric '" + key +
                                "' already registered as another kind");
  }
  return *gauges_.emplace(key, std::make_unique<Gauge>()).first->second;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(name);
  const auto it = histograms_.find(key);
  if (it != histograms_.end()) {
    if (it->second->bounds() != bounds) {
      throw std::invalid_argument("histogram '" + key +
                                  "' re-registered with different bounds");
    }
    return *it->second;
  }
  if (counters_.contains(key) || gauges_.contains(key)) {
    throw std::invalid_argument("metric '" + key +
                                "' already registered as another kind");
  }
  return *histograms_
              .emplace(key, std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->snapshot());
  }
  return snap;
}

void MetricRegistry::writeJson(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":";
    writeDouble(out, value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out << ",";
      writeDouble(out, h.bounds[i]);
    }
    out << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out << ",";
      out << h.buckets[i];
    }
    out << "],\"count\":" << h.count << ",\"sum\":";
    writeDouble(out, h.sum);
    out << "}";
  }
  out << "}}\n";
}

MetricRegistry& metrics() {
  // Same immortal in-place idiom as obs::tracer(): no lazy-init heap
  // allocation, no static-teardown destruction.
  alignas(MetricRegistry) static unsigned char storage[sizeof(
      MetricRegistry)];
  static MetricRegistry* instance =
      ::new (static_cast<void*>(storage)) MetricRegistry();
  return *instance;
}

}  // namespace fchain::obs
