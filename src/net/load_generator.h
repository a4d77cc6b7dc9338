// Open-loop Poisson load generator (paper §4, "Load generator").
//
// Emulates many clients: request arrivals follow a Poisson process at the
// offered rate, independent of completions (open loop — queues grow and the
// system drops when saturated). Latency is end-to-end, TX-timestamp to
// RX-timestamp at the generator, like the paper's NIC hardware timestamps.
// Requests generated during warmup are excluded from statistics.

#ifndef ADIOS_SRC_NET_LOAD_GENERATOR_H_
#define ADIOS_SRC_NET_LOAD_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/apps/application.h"
#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/obs/metric_registry.h"
#include "src/obs/sample.h"
#include "src/rdma/fabric.h"
#include "src/sched/dispatcher.h"
#include "src/sim/engine.h"

namespace adios {

class LoadGenerator {
 public:
  // One phase of a piecewise-constant arrival-rate schedule: for
  // `duration_ns` the offered rate is rate_rps * multiplier. Phases repeat
  // cyclically from t = 0 for the whole run (warmup included), which is how
  // the overload bench shapes diurnal and flash-crowd traces
  // (docs/OVERLOAD.md) without touching the Poisson draw itself.
  struct RatePhase {
    SimDuration duration_ns = 0;
    double multiplier = 1.0;
  };

  struct Options {
    size_t max_samples = 1u << 20;
    // Spot-check every Nth completed request against Application::Verify.
    uint32_t verify_every = 64;
    // Empty = constant rate (multiplier 1.0 throughout).
    std::vector<RatePhase> rate_schedule;
  };

  // Offers `rate_rps` for `warmup_ns` (excluded from statistics) plus
  // `measure_ns`; `seed` drives the arrival and workload streams.
  LoadGenerator(Engine* engine, RdmaFabric* fabric, Dispatcher* dispatcher, Application* app,
                double rate_rps, SimDuration warmup_ns, SimDuration measure_ns, uint64_t seed,
                const Options& options);

  void Start();

  // Registers the per-op latency histograms loadgen.e2e_ns{op=name} (the
  // generator's only copy of them), probes over their counts as
  // loadgen.completed{op=name}, and sent / failed / dropped probes. Call
  // before Start().
  void RegisterMetrics(MetricRegistry* registry);

  // Reply delivered back at the generator (wired as the send's delivery
  // callback). Records stats and recycles the request.
  void OnReply(Request* req);
  // Request dropped at the compute node's RX ring; recycles it.
  void OnDrop(Request* req);

  // --- Results (read after the engine drained) ---
  uint64_t sent() const { return sent_; }
  uint64_t completed() const { return completed_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t in_flight() const { return sent_ - completed_ - dropped_; }
  // Error replies: the request came back, but degraded (a page fetch
  // exhausted its retry budget). Counted in completed(), not in goodput.
  uint64_t failed() const { return failed_; }

  uint64_t measured_completed() const { return measured_completed_; }
  uint64_t measured_failed() const { return measured_failed_; }
  // Throughput over the measurement window, in requests/second.
  double ThroughputRps() const;
  // Successful (non-error) completions per second over the window.
  double GoodputRps() const;

  // All ops: the merge of the per-op histograms.
  Histogram e2e_all() const;
  const Histogram& e2e_of(uint32_t op) const { return op_latency_[op]->histogram(); }
  const Histogram& server() const { return server_; }
  const Histogram& queue() const { return queue_; }
  // Moves the per-request samples out (the generator keeps none after).
  std::vector<RequestSample> TakeSamples() { return std::move(samples_); }

 private:
  void ScheduleNextArrival();
  void EmitRequest();
  // A blank Request, from the free list when it has one.
  Request* AcquireRequest();
  // Returns a request the system is done with (replied or dropped) to the
  // free list. Requests still in flight are never recycled, nor freed: a
  // request the system loses stays visible as in flight.
  void RecycleRequest(Request* req);
  // Schedule multiplier in effect at `now` (1.0 with an empty schedule).
  double RateMultiplierAt(SimTime now) const;

  Engine* engine_;
  RdmaFabric* fabric_;
  Dispatcher* dispatcher_;
  Application* app_;
  double rate_rps_;
  SimDuration warmup_ns_;
  SimDuration measure_ns_;
  Options options_;
  Rng arrival_rng_;
  Rng workload_rng_;
  SimTime end_time_ = 0;

  uint64_t next_id_ = 1;
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t failed_ = 0;
  uint64_t measured_completed_ = 0;
  uint64_t measured_failed_ = 0;
  SimTime last_measured_reply_ = 0;

  Histogram server_;
  Histogram queue_;
  std::vector<RequestSample> samples_;
  std::vector<std::unique_ptr<Request>> free_requests_;

  // Per-op e2e latency histograms in the registry (empty until
  // RegisterMetrics), fed by each good measured reply.
  std::vector<HistogramMetric*> op_latency_;
};

}  // namespace adios

#endif  // ADIOS_SRC_NET_LOAD_GENERATOR_H_
