#include "src/ctrl/overload_control.h"

#include <algorithm>

#include "src/base/check.h"

namespace adios {

OverloadController::OverloadController(Engine* engine, const CtrlConfig& config,
                                       uint32_t num_workers, MetricRegistry* registry)
    : engine_(engine), config_(config), num_workers_(num_workers), registry_(registry) {
  ADIOS_CHECK(engine_ != nullptr);
  ADIOS_CHECK(registry_ != nullptr);
  ADIOS_CHECK(num_workers_ >= 1);
  if (config_.admission_enabled) {
    ADIOS_CHECK(config_.admit_rate_rps > 0.0);
    ADIOS_CHECK(config_.admit_burst >= 1.0);
  }
  if (config_.shed_enabled) {
    ADIOS_CHECK(config_.shed_pf_knee > 0.0);
    ADIOS_CHECK(config_.ShedClearLevel() < config_.shed_pf_knee);
  }
  if (config_.scale_enabled) {
    ADIOS_CHECK(config_.min_workers >= 1);
    ADIOS_CHECK(config_.min_workers <= num_workers_);
    ADIOS_CHECK(config_.scale_down_queue < config_.scale_up_queue);
  }
  active_workers_ = num_workers_;
  worker_labels_.reserve(num_workers_);
  for (uint32_t i = 0; i < num_workers_; ++i) {
    worker_labels_.push_back(MetricLabels::Worker(i).str());
  }
}

void OverloadController::RegisterMetrics(MetricRegistry* registry) {
  registry->RegisterProbe("ctrl.admit_drops", {},
                          [this] { return static_cast<double>(admit_drops_); });
  registry->RegisterProbe("ctrl.shed_drops", {},
                          [this] { return static_cast<double>(shed_drops_); });
  registry->RegisterProbe("ctrl.scale_ups", {},
                          [this] { return static_cast<double>(scale_ups_); });
  registry->RegisterProbe("ctrl.scale_downs", {},
                          [this] { return static_cast<double>(scale_downs_); });
  registry->RegisterProbe("ctrl.shed_engagements", {},
                          [this] { return static_cast<double>(shed_engagements_); });
  registry->RegisterProbe("ctrl.active_workers", {},
                          [this] { return static_cast<double>(active_workers_); });
  registry->RegisterProbe("ctrl.shedding", {},
                          [this] { return shedding_ ? 1.0 : 0.0; });
}

void OverloadController::Start(SimTime horizon) {
  if (!config_.shed_enabled && !config_.scale_enabled) {
    return;  // Admission needs no tick: buckets refill lazily on arrival.
  }
  tick_horizon_ = horizon;
  ScheduleNextTick();
}

void OverloadController::ScheduleNextTick() {
  engine_->Schedule(kTickNs, [this] {
    TickNow(engine_->now());
    // Self-rescheduling stops at the horizon so an engine that runs until
    // its queue drains is not kept alive by the controller itself.
    if (engine_->now() < tick_horizon_) {
      ScheduleNextTick();
    }
  });
}

OverloadController::Verdict OverloadController::Admit(const Request& req, SimTime now) {
  if (config_.shed_enabled && shedding_) {
    ++shed_drops_;
    tracer_->Record(now, req.id, TraceEvent::kShed, req.tenant);
    return Verdict::kShedDrop;
  }
  if (config_.admission_enabled) {
    if (req.tenant >= buckets_.size()) {
      buckets_.resize(req.tenant + 1,
                      TokenBucket(config_.admit_rate_rps, config_.admit_burst));
    }
    if (!buckets_[req.tenant].TryTake(now)) {
      ++admit_drops_;
      tracer_->Record(now, req.id, TraceEvent::kAdmit, req.tenant);
      return Verdict::kAdmitDrop;
    }
  }
  return Verdict::kAdmit;
}

double OverloadController::MeanOutstandingPf() const {
  double sum = 0.0;
  const uint32_t n = std::max<uint32_t>(1, active_workers_);
  for (uint32_t i = 0; i < active_workers_ && i < num_workers_; ++i) {
    sum += registry_->ReadProbe("worker.outstanding_faults", worker_labels_[i]);
  }
  return sum / static_cast<double>(n);
}

void OverloadController::TickNow(SimTime now) {
  if (config_.shed_enabled) {
    const double pf = MeanOutstandingPf();
    if (!shedding_ && pf >= config_.shed_pf_knee) {
      shedding_ = true;
      ++shed_engagements_;
    } else if (shedding_ && pf <= config_.ShedClearLevel()) {
      shedding_ = false;
    }
  }
  if (config_.scale_enabled && now - last_scale_time_ >= config_.scale_dwell_ns) {
    const double depth = registry_->ReadProbe("dispatcher.queue_depth", "");
    if (depth >= config_.scale_up_queue && active_workers_ < num_workers_) {
      ++active_workers_;
      ++scale_ups_;
      last_scale_time_ = now;
      tracer_->Record(now, 0, TraceEvent::kScale, active_workers_);
    } else if (depth <= config_.scale_down_queue && active_workers_ > config_.min_workers) {
      --active_workers_;
      ++scale_downs_;
      last_scale_time_ = now;
      tracer_->Record(now, 0, TraceEvent::kScale, active_workers_);
    }
  }
}

}  // namespace adios
