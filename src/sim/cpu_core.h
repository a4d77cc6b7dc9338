// Simulated CPU core: charges compute time and tracks busy-cycle accounting.
//
// Each core hosts one actor: a worker fiber, or the dispatcher or reclaimer
// task. Code running on the core models computation with Consume(cycles)
// (a fiber) or `co_await Charge(cycles)` (a task): simulated time advances
// and the core's busy counter grows. Busy-waiting is charged with
// BusyWaitUntil so the per-core breakdown can separate useful work from
// wasted spinning (Fig. 2(c)).

#ifndef ADIOS_SRC_SIM_CPU_CORE_H_
#define ADIOS_SRC_SIM_CPU_CORE_H_

#include <string>

#include "src/base/annotations.h"
#include "src/base/time.h"
#include "src/sim/engine.h"

namespace adios {

class CpuCore {
 public:
  CpuCore(Engine* engine, CycleClock clock, std::string name)
      : engine_(engine), clock_(clock), name_(std::move(name)) {}

  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  Engine* engine() { return engine_; }
  const CycleClock& clock() const { return clock_; }
  const std::string& name() const { return name_; }

  // Models `cycles` of computation on this core.
  ADIOS_MAY_SUSPEND void Consume(uint64_t cycles) {
    const SimDuration ns = clock_.ToNanos(cycles);
    busy_ns_ += ns;
    engine_->Wait(ns);
  }

  ADIOS_MAY_SUSPEND void ConsumeNs(SimDuration ns) {
    busy_ns_ += ns;
    engine_->Wait(ns);
  }

  // The task forms of Consume and ConsumeNs: `co_await core->Charge(c)`.
  Engine::SleepAwaiter Charge(uint64_t cycles) { return ChargeNs(clock_.ToNanos(cycles)); }
  Engine::SleepAwaiter ChargeNs(SimDuration ns) {
    busy_ns_ += ns;
    return engine_->Sleep(ns);
  }

  // Models spinning until simulated time `until` (e.g. busy-waiting on an
  // RDMA completion). The core is busy the whole time.
  ADIOS_MAY_SUSPEND void BusyWaitUntil(SimTime until) {
    const SimTime start = engine_->now();
    if (until <= start) {
      return;
    }
    const SimDuration ns = until - start;
    busy_ns_ += ns;
    busy_wait_ns_ += ns;
    engine_->Wait(ns);
  }

  // Accounts `ns` of already-elapsed simulated time as busy spinning. Used
  // when the spin was implemented as an event-driven suspension (the core
  // did nothing else meanwhile, so the accounting is exact).
  void AccountBusyWait(SimDuration ns) {
    busy_ns_ += ns;
    busy_wait_ns_ += ns;
  }

  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t busy_wait_ns() const { return busy_wait_ns_; }

  // Busy fraction over [window_start, now].
  double Utilization(SimTime window_start) const {
    const SimTime now = engine_->now();
    if (now <= window_start) {
      return 0.0;
    }
    return static_cast<double>(busy_ns_ - busy_ns_at_mark_) /
           static_cast<double>(now - window_start);
  }

  // Marks the start of a measurement window for Utilization() and the
  // window_*() accessors.
  void MarkWindow() {
    busy_ns_at_mark_ = busy_ns_;
    busy_wait_ns_at_mark_ = busy_wait_ns_;
  }

  uint64_t window_busy_ns() const { return busy_ns_ - busy_ns_at_mark_; }
  uint64_t window_busy_wait_ns() const { return busy_wait_ns_ - busy_wait_ns_at_mark_; }

 private:
  Engine* engine_;
  CycleClock clock_;
  std::string name_;
  uint64_t busy_ns_ = 0;
  uint64_t busy_wait_ns_ = 0;
  uint64_t busy_ns_at_mark_ = 0;
  uint64_t busy_wait_ns_at_mark_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_CPU_CORE_H_
