#include "src/obs/time_series.h"

#include <algorithm>

namespace adios {

namespace {

// Averages sampler `points` into the windows they fall in: a window's `mean`
// becomes the mean of its points and `count` their number. Points before the
// origin or past the last window are skipped.
void BinPoints(const std::vector<PfPoint>& points, TimeSeries& ts, double TimeWindow::*mean,
               uint32_t TimeWindow::*count) {
  for (const PfPoint& p : points) {
    if (p.time < ts.origin) {
      continue;
    }
    const size_t w = static_cast<size_t>((p.time - ts.origin) / ts.window_ns);
    if (w >= ts.windows.size()) {
      continue;
    }
    ts.windows[w].*mean += p.outstanding;
    ++(ts.windows[w].*count);
  }
  for (TimeWindow& win : ts.windows) {
    if (win.*count > 0) {
      win.*mean /= static_cast<double>(win.*count);
    }
  }
}

}  // namespace

double TimeSeries::GoodputKrps(size_t i) const {
  if (i >= windows.size() || window_ns == 0) {
    return 0.0;
  }
  // Same float-op order as the failover bench's original timeline
  // (count / seconds / 1000), so the printed numbers are bit-identical.
  return static_cast<double>(windows[i].completed) /
         (static_cast<double>(window_ns) * 1e-9) / 1000.0;
}

TimeSeries BuildTimeSeries(const std::vector<RequestSample>& samples,
                           const std::vector<PfPoint>& pf_points,
                           const std::vector<PfPoint>& active_points, SimDuration warmup_ns,
                           SimDuration measure_ns, SimDuration window_ns) {
  TimeSeries ts;
  if (window_ns == 0 || measure_ns == 0) {
    return ts;
  }
  ts.window_ns = window_ns;
  ts.origin = warmup_ns;
  const size_t num_windows = static_cast<size_t>((measure_ns + window_ns - 1) / window_ns);
  ts.windows.resize(num_windows);
  for (size_t i = 0; i < num_windows; ++i) {
    ts.windows[i].start = warmup_ns + static_cast<SimTime>(i) * window_ns;
  }

  // Per-window latency sets, folded to percentiles below (nearest-rank, the
  // same index rule as RunResult::Breakdown).
  std::vector<std::vector<uint64_t>> latencies(num_windows);
  for (const RequestSample& s : samples) {
    if (s.finish_ns < warmup_ns) {
      continue;
    }
    const size_t w = static_cast<size_t>((s.finish_ns - warmup_ns) / window_ns);
    if (w >= num_windows) {
      continue;
    }
    ++ts.windows[w].completed;
    latencies[w].push_back(s.e2e_ns);
  }
  for (size_t w = 0; w < num_windows; ++w) {
    std::vector<uint64_t>& lat = latencies[w];
    if (lat.empty()) {
      continue;
    }
    std::sort(lat.begin(), lat.end());
    auto rank = [&lat](double p) {
      size_t idx =
          static_cast<size_t>(p / 100.0 * static_cast<double>(lat.size() - 1) + 0.5);
      return lat[std::min(idx, lat.size() - 1)];
    };
    ts.windows[w].p50_ns = rank(50.0);
    ts.windows[w].p99_ns = rank(99.0);
    ts.windows[w].max_ns = lat.back();
  }

  BinPoints(pf_points, ts, &TimeWindow::mean_outstanding_pf, &TimeWindow::pf_samples);
  BinPoints(active_points, ts, &TimeWindow::mean_active_workers, &TimeWindow::active_samples);
  return ts;
}

}  // namespace adios
