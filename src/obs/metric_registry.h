// Metric registry: named counters/gauges/histograms with {worker,node,op}
// labels, O(1) hot-path increments, and snapshot-on-demand.
//
// Two ways to publish a metric:
//
//   * Owned handles — GetCounter/GetGauge/GetHistogram return a stable
//     pointer whose mutation is one memory write (no lookup, no lock: the
//     simulator is single-threaded). Use these on hot paths.
//   * Probes — RegisterProbe(name, labels, fn) samples `fn` at Snapshot()
//     time. Use these to export counters a component already keeps, without
//     double bookkeeping on the hot path.
//
// Snapshot() flattens both into a sorted vector of MetricSample, which
// RunResult carries so benches and tests can read any metric by name without
// a dedicated RunResult field per counter.

#ifndef ADIOS_SRC_OBS_METRIC_REGISTRY_H_
#define ADIOS_SRC_OBS_METRIC_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/histogram.h"

namespace adios {

// Label set, canonicalized to "k1=v1,k2=v2" (sorted by key) for identity.
class MetricLabels {
 public:
  MetricLabels() = default;
  MetricLabels(std::initializer_list<std::pair<std::string, std::string>> kv);

  void Set(const std::string& key, const std::string& value);
  // Canonical "k1=v1,k2=v2" form; empty string for no labels.
  const std::string& str() const { return canonical_; }
  bool empty() const { return canonical_.empty(); }

  static MetricLabels Worker(uint32_t index);
  static MetricLabels Node(uint32_t node);
  static MetricLabels Op(const std::string& op);

 private:
  void Rebuild();
  std::vector<std::pair<std::string, std::string>> kv_;
  std::string canonical_;
};

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class HistogramMetric {
 public:
  void Observe(uint64_t v) { histogram_.Add(v); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

struct MetricSample {
  std::string name;
  std::string labels;  // Canonical "k=v,k=v" form.
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // Counter/gauge value; histogram count.
  // Histogram-only summary (zero otherwise).
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

// Flattened snapshot with lookup helpers, carried in RunResult.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // Sorted by (name, labels).

  // First sample matching (name, labels); nullptr when absent.
  const MetricSample* Find(const std::string& name, const std::string& labels = "") const;
  // Value of (name, labels), or `fallback` when absent.
  double Value(const std::string& name, const std::string& labels = "",
               double fallback = 0.0) const;
  // Sum of every sample of `name` across all label sets (e.g. a per-worker
  // counter aggregated over workers).
  double Sum(const std::string& name) const;
  // Sum() of a counter some component registered, as an integer; aborts on
  // any other name, so a renamed probe fails loudly instead of reading 0.
  uint64_t Count(const std::string& name) const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Idempotent: the same (name, labels) returns the same handle.
  Counter* GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name, const MetricLabels& labels = {});

  // Sampled at Snapshot() time; no hot-path cost. Re-registering the same
  // (name, labels) replaces the probe.
  void RegisterProbe(const std::string& name, const MetricLabels& labels,
                     std::function<double()> fn);

  // Samples one registered probe immediately (O(1) lookup by canonical
  // labels string), or returns `fallback` when no such probe exists. This is
  // how feedback consumers (the overload controller, docs/OVERLOAD.md) close
  // the loop on signals components already publish, without a side channel.
  double ReadProbe(const std::string& name, const std::string& labels = "",
                   double fallback = 0.0) const;

  MetricsSnapshot Snapshot() const;

  size_t metric_count() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::string labels;
    T metric;
  };
  struct Probe {
    std::string name;
    std::string labels;
    std::function<double()> fn;
  };

  static std::string Key(const std::string& name, const std::string& labels) {
    return name + "\x1f" + labels;
  }

  // Deques for pointer stability of handed-out handles.
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<HistogramMetric>> histograms_;
  std::vector<Probe> probes_;
  std::unordered_map<std::string, size_t> counter_index_;
  std::unordered_map<std::string, size_t> gauge_index_;
  std::unordered_map<std::string, size_t> histogram_index_;
  std::unordered_map<std::string, size_t> probe_index_;
};

}  // namespace adios

#endif  // ADIOS_SRC_OBS_METRIC_REGISTRY_H_
