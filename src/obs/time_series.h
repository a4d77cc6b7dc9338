// Windowed run telemetry: the measurement window cut into fixed-size time
// windows, each summarizing throughput, latency percentiles, and the
// outstanding-page-fault level. MdSystem::Run builds one (100 us windows) into
// RunResult::timeline; benches that need a coarser bin (bench_failover's
// blackout timeline) rebuild from RunResult::samples with their own window
// size via BuildTimeSeries.

#ifndef ADIOS_SRC_OBS_TIME_SERIES_H_
#define ADIOS_SRC_OBS_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/time.h"
#include "src/obs/sample.h"

namespace adios {

// One telemetry point from the periodic sampler: a level (outstanding page
// faults averaged across workers, or active workers) at one instant.
struct PfPoint {
  SimTime time = 0;
  double outstanding = 0.0;
};

struct TimeWindow {
  SimTime start = 0;        // Absolute sim time of the window's left edge.
  uint64_t completed = 0;   // Successful replies landing in the window.
  // End-to-end latency summary of those replies (ns; zero when none landed).
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
  // Mean outstanding page faults over the sampler points in the window.
  double mean_outstanding_pf = 0.0;
  uint32_t pf_samples = 0;
  // Mean active-worker level from the scaling controller, same sampler
  // cadence (docs/OVERLOAD.md).
  double mean_active_workers = 0.0;
  uint32_t active_samples = 0;
};

struct TimeSeries {
  SimDuration window_ns = 0;
  SimTime origin = 0;  // Measurement-window start (warmup end).
  std::vector<TimeWindow> windows;

  bool empty() const { return windows.empty(); }
  // Goodput of window `i` in K completions/s (the unit the failover bench
  // prints).
  double GoodputKrps(size_t i) const;
};

// Bins `samples` by reply-landing time (finish_ns) into ceil(measure/window)
// windows starting at `warmup_ns`; replies before warmup or past the last
// window are skipped. `pf_points` and `active_points` (sampler points of the
// outstanding-fault and active-worker levels; either may be empty) are
// averaged per window the same way.
TimeSeries BuildTimeSeries(const std::vector<RequestSample>& samples,
                           const std::vector<PfPoint>& pf_points,
                           const std::vector<PfPoint>& active_points, SimDuration warmup_ns,
                           SimDuration measure_ns, SimDuration window_ns);

}  // namespace adios

#endif  // ADIOS_SRC_OBS_TIME_SERIES_H_
