// SLO-aware overload-control knobs (docs/OVERLOAD.md).
//
// Three independent controllers, each behind its own enable flag so any
// subset can run. All default-off: MdSystem always builds the controller,
// and with every loop off it admits every arrival, keeps every worker
// active and schedules no tick event.
//
//   * Admission — per-tenant token buckets at the dispatcher front door.
//     Arrivals beyond the sustained rate (plus a burst allowance) are
//     dropped immediately instead of queueing toward a doomed deadline.
//   * Shedding — drops arrivals while the mean outstanding page fetches per
//     active worker sits above a configurable knee. The knee is the point
//     the PR-5 observability timeline makes visible: past it, extra
//     admitted requests only deepen fetch queues and inflate P99.
//   * Scaling — grows/shrinks the active worker set from MetricRegistry
//     signals (central queue depth) with hysteresis and a dwell time.

#ifndef ADIOS_SRC_CTRL_CTRL_CONFIG_H_
#define ADIOS_SRC_CTRL_CTRL_CONFIG_H_

#include <cstdint>

#include "src/base/time.h"

namespace adios {

struct CtrlConfig {
  // --- Admission control (per-tenant token bucket) ---
  bool admission_enabled = false;
  // Sustained admitted-request rate per tenant, tokens/second. With a single
  // tenant (the default load generator), this is the whole-system admission
  // rate; size it just under the measured knee capacity.
  double admit_rate_rps = 0.0;
  // Bucket capacity: how far a tenant may burst above the sustained rate.
  double admit_burst = 64.0;

  // --- PF-aware load shedding ---
  bool shed_enabled = false;
  // Mean outstanding page fetches per active worker at which shedding
  // engages (the knee of the latency/load curve).
  double shed_pf_knee = 8.0;

  // --- Elastic worker scaling ---
  bool scale_enabled = false;
  uint32_t min_workers = 1;  // The active set grows back to every worker.
  // Grow the active set when the central queue depth crosses this...
  double scale_up_queue = 32.0;
  // ...and shrink it when the depth falls to or below this.
  double scale_down_queue = 2.0;
  // Minimum time between scaling decisions (dwell), so one burst does not
  // ping the worker set up and down every tick.
  SimDuration scale_dwell_ns = Microseconds(200);

  bool enabled() const { return admission_enabled || shed_enabled || scale_enabled; }

  // Level the signal must fall back to before shedding disengages: half the
  // knee. The gap is the hysteresis band that prevents flapping.
  double ShedClearLevel() const { return shed_pf_knee * 0.5; }
};

}  // namespace adios

#endif  // ADIOS_SRC_CTRL_CTRL_CONFIG_H_
