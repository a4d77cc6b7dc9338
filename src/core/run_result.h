// Results of one MD-system run: everything the figure benches print.

#ifndef ADIOS_SRC_CORE_RUN_RESULT_H_
#define ADIOS_SRC_CORE_RUN_RESULT_H_

#include <string>
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

struct RunResult {
  std::string system;
  double offered_rps = 0.0;
  double throughput_rps = 0.0;

  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t measured = 0;

  Histogram e2e;     // End-to-end latency, all ops, measured window.
  Histogram server;  // Server-side latency (arrive -> reply posted).
  Histogram queue;   // Queueing delay component.
  std::vector<OpResult> ops;

  double rdma_utilization = 0.0;   // Fetch-link payload utilization.
  double worker_utilization = 0.0;  // Mean busy fraction across workers.
  double dispatcher_utilization = 0.0;

  // Sampled per-QP outstanding-page-fetch statistics over the measurement
  // window: the congestion signal PF-aware dispatching balances (§3.4).
  double mean_outstanding_pf = 0.0;     // Mean per-worker outstanding fetches.
  double pf_imbalance_stddev = 0.0;     // Mean across-worker stddev per sample.
  double mean_central_queue_depth = 0.0;

  // CPU-efficiency accounting (the paper's §1 motivation: busy-waiting
  // wastes the cycles that could serve other requests).
  double worker_cycles_per_request = 0.0;  // Busy worker cycles / completed req.
  double busy_wait_fraction = 0.0;         // Wasted (spinning) share of busy time.

  MemoryManager::Stats mem;
  // Doorbell rings avoided by batched fault+prefetch posts, summed over the
  // workers' memory QPs (0 when prefetching or batching is off).
  uint64_t doorbells_saved = 0;
  uint64_t dispatcher_drops = 0;
  uint64_t requeues = 0;
  uint64_t worker_yields = 0;
  uint64_t qp_full_stalls = 0;

  // --- Fault tolerance (docs/FAULT_MODEL.md; all zero when injection is
  // off) ---
  double goodput_rps = 0.0;      // Successful completions/s (== throughput
                                 // when nothing fails).
  uint64_t requests_failed = 0;  // Error replies after fetch-retry exhaustion.
  uint64_t fetch_retries = 0;    // Software fetch reposts across workers.
  uint64_t fetch_timeouts = 0;   // Fetch deadlines that expired.
  uint64_t writeback_retries = 0;
  uint64_t writeback_timeouts = 0;
  uint64_t writeback_aborts = 0;  // Write-backs dropped after retry exhaustion.
  uint64_t brownout_ns = 0;       // Simulated time inside degraded windows.

  // --- Replication / failover (docs/FAILOVER.md; all zero with a single
  // memory node) ---
  uint64_t failovers = 0;            // In-flight fetches redirected to a replica.
  uint64_t node_suspect_events = 0;  // kHealthy -> kSuspect transitions.
  uint64_t node_dead_events = 0;     // kSuspect -> kDead transitions.
  uint64_t node_recoveries = 0;      // Suspect cleared or dead node probed back.
  uint64_t pages_resilvered = 0;     // Replica copies restored by the re-silver pass.
  uint64_t resilver_failures = 0;    // Pages left divergent after the attempt budget.
  uint64_t replica_divergence = 0;   // Replica slots still out of sync at run end.
  uint64_t divergence_events = 0;    // Cumulative slots that ever went out of sync.

  // --- Overload control (docs/OVERLOAD.md). `enabled` mirrors
  // SystemConfig.ctrl.enabled(); with it off the counters are zero and
  // mean_active_workers is the full worker count ---
  struct CtrlStats {
    bool enabled = false;
    uint64_t admit_drops = 0;       // Token-bucket rejections at arrival.
    uint64_t shed_drops = 0;        // Rejections while shedding was engaged.
    uint64_t shed_engagements = 0;  // Off->on transitions of the shedder.
    uint64_t scale_ups = 0;         // Active-worker-set growth steps.
    uint64_t scale_downs = 0;
    double mean_active_workers = 0.0;  // Sampled at the 50 us telemetry cadence.
  };
  CtrlStats ctrl;

  // --- Data integrity (docs/INTEGRITY.md; enabled=false and all zero when
  // SystemConfig.integrity is off) ---
  struct IntegrityStats {
    bool enabled = false;
    uint64_t detected = 0;       // Corrupt payloads caught (verify or scrub).
    uint64_t repaired = 0;       // Replica repair copies that landed.
    uint64_t unrepairable = 0;   // Detections with no second copy to heal from.
    uint64_t scrub_pages = 0;    // Pages the background scrubber read.
    uint64_t scrub_finds = 0;    // Detections credited to the scrubber.
    uint64_t served_corrupt = 0; // Corrupt payloads the app consumed (verify off).
  };
  IntegrityStats integrity;

  // Trace records dropped at the tracer's capacity (0 unless tracing was
  // enabled with too small a cap); printed by the bench tables so a
  // truncated timeline is never mistaken for a quiet run.
  uint64_t trace_drops = 0;

  std::vector<RequestSample> samples;

  // End-of-run flattening of the metric registry (src/obs/metric_registry.h):
  // every registered counter/gauge/histogram/probe, readable by name.
  MetricsSnapshot metrics;

  // Windowed telemetry across the measurement window (100 us windows):
  // per-window throughput, p50/p99 latency, and outstanding page faults.
  TimeSeries timeline;

  // Computes component breakdowns at the given server-latency percentiles.
  std::vector<BreakdownRow> Breakdown(const std::vector<double>& percentiles) const;
};

}  // namespace adios

#endif  // ADIOS_SRC_CORE_RUN_RESULT_H_
