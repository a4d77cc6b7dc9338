// SLO-aware overload control: admission, PF-aware shedding, elastic scaling
// (docs/OVERLOAD.md).
//
// One OverloadController sits in front of the dispatcher. Arrival-path
// decisions (Admit) are synchronous and O(1); the feedback controllers
// (shed, scale) run on a periodic engine tick and read their inputs through
// the MetricRegistry probes the dispatcher and workers already publish —
// the same signals the observability timeline plots, so a knee seen in
// BENCH output is literally the signal the controller acts on.
//
// Decisions are published two ways: ctrl.* registry probes and
// kAdmit/kShed/kScale trace events.

#ifndef ADIOS_SRC_CTRL_OVERLOAD_CONTROL_H_
#define ADIOS_SRC_CTRL_OVERLOAD_CONTROL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ctrl/ctrl_config.h"
#include "src/obs/metric_registry.h"
#include "src/sched/request.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

// Classic token bucket over simulated time. Refill is computed lazily from
// the elapsed time at each TryTake, so the bucket costs nothing between
// arrivals and stays exact under any arrival pattern.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst)
      : rate_per_ns_(rate_per_sec * 1e-9), burst_(burst), tokens_(burst) {}

  // Takes one token if available at `now`; false = drop.
  bool TryTake(SimTime now) {
    Refill(now);
    if (tokens_ < 1.0) {
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  double TokensAt(SimTime now) {
    Refill(now);
    return tokens_;
  }

 private:
  void Refill(SimTime now) {
    if (now > last_refill_) {
      tokens_ += static_cast<double>(now - last_refill_) * rate_per_ns_;
      if (tokens_ > burst_) {
        tokens_ = burst_;
      }
      last_refill_ = now;
    }
  }

  double rate_per_ns_;
  double burst_;
  double tokens_;
  SimTime last_refill_ = 0;
};

class OverloadController {
 public:
  // Tick period: how often shed/scale re-read their signals.
  static constexpr SimDuration kTickNs = Microseconds(20);

  enum class Verdict : uint8_t {
    kAdmit = 0,     // Proceed to the RX ring.
    kAdmitDrop = 1, // Tenant token bucket empty.
    kShedDrop = 2,  // PF level above the knee; shedding engaged.
  };

  // `registry` supplies the feedback signals (dispatcher.queue_depth,
  // worker.outstanding_faults{worker=i}); the components must have called
  // RegisterMetrics on it before the first tick.
  OverloadController(Engine* engine, const CtrlConfig& config, uint32_t num_workers,
                     MetricRegistry* registry);

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Publishes the controller's own decisions as ctrl.* probes.
  void RegisterMetrics(MetricRegistry* registry);

  // Schedules periodic ticks every kTickNs, stopping at `horizon` so
  // Engine::Run (which drains the queue) still terminates.
  void Start(SimTime horizon);

  // Arrival-path decision for one request (called by Dispatcher::OnRx after
  // the kArrive trace record). Non-admit verdicts are traced and counted
  // here; the dispatcher owns the drop bookkeeping.
  Verdict Admit(const Request& req, SimTime now);

  // Scaling: the dispatcher only assigns to workers [0, active_workers).
  bool WorkerActive(uint32_t index) const { return index < active_workers_; }

  // One shed/scale evaluation at `now`. Public so unit tests can drive the
  // controller without scheduling engine ticks.
  void TickNow(SimTime now);

  // --- Decision counters ---
  uint64_t admit_drops() const { return admit_drops_; }
  uint64_t shed_drops() const { return shed_drops_; }
  uint64_t scale_ups() const { return scale_ups_; }
  uint64_t scale_downs() const { return scale_downs_; }
  uint64_t shed_engagements() const { return shed_engagements_; }
  uint32_t active_workers() const { return active_workers_; }
  bool shedding() const { return shedding_; }
  const CtrlConfig& config() const { return config_; }

 private:
  void ScheduleNextTick();
  // Mean outstanding page fetches per *active* worker, read via registry
  // probes.
  double MeanOutstandingPf() const;

  Engine* engine_;
  CtrlConfig config_;
  uint32_t num_workers_;
  MetricRegistry* registry_;
  Tracer* tracer_ = Tracer::Off();

  std::vector<TokenBucket> buckets_;  // Grown on demand, one per tenant.
  // Cached probe label strings ("worker=i"), built once.
  std::vector<std::string> worker_labels_;

  bool shedding_ = false;
  uint32_t active_workers_;
  SimTime last_scale_time_ = 0;
  SimTime tick_horizon_ = 0;

  uint64_t admit_drops_ = 0;
  uint64_t shed_drops_ = 0;
  uint64_t scale_ups_ = 0;
  uint64_t scale_downs_ = 0;
  uint64_t shed_engagements_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_CTRL_OVERLOAD_CONTROL_H_
