#include "src/obs/metric_registry.h"

#include <algorithm>

#include "src/base/check.h"

namespace adios {

MetricLabels::MetricLabels(std::initializer_list<std::pair<std::string, std::string>> kv)
    : kv_(kv) {
  Rebuild();
}

void MetricLabels::Set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : kv_) {
    if (k == key) {
      v = value;
      Rebuild();
      return;
    }
  }
  kv_.emplace_back(key, value);
  Rebuild();
}

void MetricLabels::Rebuild() {
  std::sort(kv_.begin(), kv_.end());
  canonical_.clear();
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (i > 0) {
      canonical_ += ',';
    }
    canonical_ += kv_[i].first;
    canonical_ += '=';
    canonical_ += kv_[i].second;
  }
}

MetricLabels MetricLabels::Worker(uint32_t index) {
  return MetricLabels{{"worker", std::to_string(index)}};
}

MetricLabels MetricLabels::Node(uint32_t node) {
  return MetricLabels{{"node", std::to_string(node)}};
}

MetricLabels MetricLabels::Op(const std::string& op) { return MetricLabels{{"op", op}}; }

const MetricSample* MetricsSnapshot::Find(const std::string& name,
                                          const std::string& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) {
      return &s;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(const std::string& name, const std::string& labels,
                              double fallback) const {
  const MetricSample* s = Find(name, labels);
  return s == nullptr ? fallback : s->value;
}

double MetricsSnapshot::Sum(const std::string& name) const {
  double sum = 0.0;
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      sum += s.value;
    }
  }
  return sum;
}

uint64_t MetricsSnapshot::Count(const std::string& name) const {
  if (std::none_of(samples.begin(), samples.end(),
                   [&name](const MetricSample& s) { return s.name == name; })) {
    CheckFailed("metric is registered", __FILE__, __LINE__,
                ("nothing registered a metric named " + name).c_str());
  }
  return static_cast<uint64_t>(Sum(name));
}

Counter* MetricRegistry::GetCounter(const std::string& name, const MetricLabels& labels) {
  const std::string key = Key(name, labels.str());
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) {
    return &counters_[it->second].metric;
  }
  counter_index_.emplace(key, counters_.size());
  counters_.push_back(Entry<Counter>{name, labels.str(), Counter()});
  return &counters_.back().metric;
}

Gauge* MetricRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  const std::string key = Key(name, labels.str());
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) {
    return &gauges_[it->second].metric;
  }
  gauge_index_.emplace(key, gauges_.size());
  gauges_.push_back(Entry<Gauge>{name, labels.str(), Gauge()});
  return &gauges_.back().metric;
}

HistogramMetric* MetricRegistry::GetHistogram(const std::string& name,
                                              const MetricLabels& labels) {
  const std::string key = Key(name, labels.str());
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) {
    return &histograms_[it->second].metric;
  }
  histogram_index_.emplace(key, histograms_.size());
  histograms_.push_back(Entry<HistogramMetric>{name, labels.str(), HistogramMetric()});
  return &histograms_.back().metric;
}

void MetricRegistry::RegisterProbe(const std::string& name, const MetricLabels& labels,
                                   std::function<double()> fn) {
  const std::string key = Key(name, labels.str());
  auto it = probe_index_.find(key);
  if (it != probe_index_.end()) {
    probes_[it->second].fn = std::move(fn);
    return;
  }
  probe_index_.emplace(key, probes_.size());
  probes_.push_back(Probe{name, labels.str(), std::move(fn)});
}

double MetricRegistry::ReadProbe(const std::string& name, const std::string& labels,
                                 double fallback) const {
  auto it = probe_index_.find(Key(name, labels));
  if (it == probe_index_.end()) {
    return fallback;
  }
  return probes_[it->second].fn();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(metric_count());
  for (const auto& e : counters_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(e.metric.value());
    snap.samples.push_back(std::move(s));
  }
  for (const auto& e : gauges_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = MetricKind::kGauge;
    s.value = e.metric.value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& e : histograms_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = MetricKind::kHistogram;
    s.value = static_cast<double>(e.metric.histogram().count());
    s.p50 = e.metric.histogram().P50();
    s.p99 = e.metric.histogram().P99();
    s.max = e.metric.histogram().max();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& p : probes_) {
    MetricSample s;
    s.name = p.name;
    s.labels = p.labels;
    s.kind = MetricKind::kGauge;
    s.value = p.fn();
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) {
                return a.name < b.name;
              }
              return a.labels < b.labels;
            });
  return snap;
}

size_t MetricRegistry::metric_count() const {
  return counters_.size() + gauges_.size() + histograms_.size() + probes_.size();
}

}  // namespace adios
