// Results of one MD-system run: everything the figure benches print.

#ifndef ADIOS_SRC_CORE_RUN_RESULT_H_
#define ADIOS_SRC_CORE_RUN_RESULT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/mem/memory_manager.h"
#include "src/net/load_generator.h"
#include "src/obs/metric_registry.h"
#include "src/obs/time_series.h"

namespace adios {

// Latency-component breakdown of the request at a given percentile of the
// server-side latency distribution (Figs. 2(c), 7(c)).
struct BreakdownRow {
  double percentile = 0.0;
  uint64_t total_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t handle_ns = 0;  // Includes rdma/busy/tx below.
  uint64_t rdma_ns = 0;
  uint64_t busy_wait_ns = 0;
  uint64_t tx_wait_ns = 0;
};

struct OpResult {
  std::string name;
  Histogram e2e;
};

// Registry name of each MemoryManager::Stats field: MdSystem publishes every
// field under its name, and RunResult::mem is read back from them.
inline constexpr std::pair<const char*, uint64_t MemoryManager::Stats::*> kMemStatNames[] = {
    {"mem.faults", &MemoryManager::Stats::faults},
    {"mem.prefetches", &MemoryManager::Stats::prefetches},
    {"mem.shared_faults", &MemoryManager::Stats::shared_faults},
    {"mem.evictions_clean", &MemoryManager::Stats::evictions_clean},
    {"mem.evictions_dirty", &MemoryManager::Stats::evictions_dirty},
    {"mem.frame_stalls", &MemoryManager::Stats::frame_stalls},
    {"mem.fetch_aborts", &MemoryManager::Stats::fetch_aborts},
    {"mem.prefetch_hits", &MemoryManager::Stats::prefetch_hits},
    {"mem.prefetch_late", &MemoryManager::Stats::prefetch_late},
    {"mem.prefetch_wasted", &MemoryManager::Stats::prefetch_wasted},
    {"mem.frame_refills", &MemoryManager::Stats::frame_refills},
    {"mem.frame_spills", &MemoryManager::Stats::frame_spills},
    {"mem.chunk_partials", &MemoryManager::Stats::chunk_partials},
    {"mem.chunk_early_wakes", &MemoryManager::Stats::chunk_early_wakes},
};

struct RunCounterField {
  const char* name;
  uint64_t* field;
};

// What RunResult holds (docs/OBSERVABILITY.md §2): the load generator's
// outcome, the window statistics only MdSystem::Run can compute, and the
// registry snapshot. Every other run counter is read from `metrics` by name;
// the few counter fields below are filled from their names by FillCounters.
struct RunResult {
  std::string system;
  double offered_rps = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;  // Successful completions/s (== throughput when
                             // nothing fails).

  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t measured = 0;
  uint64_t requests_failed = 0;  // Error replies after fetch-retry exhaustion.

  Histogram e2e;     // End-to-end latency, all ops, measured window.
  Histogram server;  // Server-side latency (arrive -> reply posted).
  Histogram queue;   // Queueing delay component.
  std::vector<OpResult> ops;

  double rdma_utilization = 0.0;   // Fetch-link payload utilization.
  double worker_utilization = 0.0;  // Mean busy fraction across workers.
  double dispatcher_utilization = 0.0;

  // Sampled every 50 us of the measurement window: per-QP outstanding page
  // fetches (the congestion signal PF-aware dispatching balances, §3.4) and
  // the scaling controller's active workers.
  double mean_outstanding_pf = 0.0;     // Mean per-worker outstanding fetches.
  double pf_imbalance_stddev = 0.0;     // Mean across-worker stddev per sample.
  double mean_active_workers = 0.0;     // docs/OVERLOAD.md.

  // CPU-efficiency accounting (the paper's §1 motivation: busy-waiting
  // wastes the cycles that could serve other requests).
  double worker_cycles_per_request = 0.0;  // Busy worker cycles / completed req.
  double busy_wait_fraction = 0.0;         // Wasted (spinning) share of busy time.

  // --- Counter fields, each a copy of one registry name (CounterFields) ---
  MemoryManager::Stats mem;
  uint64_t worker_yields = 0;
  uint64_t qp_full_stalls = 0;
  uint64_t doorbells_saved = 0;  // Doorbell rings avoided by batched posts.
  uint64_t fetch_retries = 0;
  uint64_t fetch_timeouts = 0;
  uint64_t failovers = 0;  // In-flight fetches redirected to a replica.
  uint64_t writeback_retries = 0;
  uint64_t node_suspect_events = 0;
  // Zero unless SystemConfig.integrity is on (docs/INTEGRITY.md).
  struct IntegrityStats {
    uint64_t detected = 0;     // Corrupt payloads caught (verify or scrub).
    uint64_t repaired = 0;     // Replica repair copies that landed.
    uint64_t scrub_pages = 0;  // Pages the background scrubber read.
  };
  IntegrityStats integrity;

  std::vector<RequestSample> samples;

  // End-of-run flattening of the metric registry (src/obs/metric_registry.h):
  // every registered counter/gauge/histogram/probe, readable by name.
  MetricsSnapshot metrics;

  // Windowed telemetry across the measurement window (100 us windows):
  // per-window throughput, p50/p99 latency, and outstanding page faults.
  TimeSeries timeline;

  // The counter fields above with the registry name each is read from. The
  // integrity entries exist only when the integrity layer registered them.
  std::vector<RunCounterField> CounterFields(bool integrity_on);
  // Fills every CounterFields(integrity_on) entry from `metrics`, summed over
  // label sets; aborts on a name nothing registered.
  void FillCounters(bool integrity_on);

  // Computes component breakdowns at the given server-latency percentiles.
  std::vector<BreakdownRow> Breakdown(const std::vector<double>& percentiles) const;
};

}  // namespace adios

#endif  // ADIOS_SRC_CORE_RUN_RESULT_H_
