#include "src/rdma/fault_injector.h"

#include <algorithm>

namespace adios {

FaultInjector::Verdict FaultInjector::Classify(WorkType type, SimTime now) {
  ++classified_;
  // The RNG is consumed exactly once per WQE regardless of which fault (if
  // any) fires, so changing one rate does not reshuffle the draws of the
  // others within a run.
  const double u = rng_.NextDouble();

  if (InBlackout(now)) {
    ++injected_drops_;
    return Verdict{Action::kDrop, 0};
  }

  // An open corruption burst claims the next READs outright (the draw above
  // is still consumed, so burst length does not reshuffle later verdicts).
  if (type == WorkType::kRead && corrupt_pending_ > 0) {
    --corrupt_pending_;
    ++injected_corruptions_;
    return Verdict{Action::kCorrupt, 0};
  }

  const double loss =
      type == WorkType::kWrite ? options_.write_loss_rate : options_.read_loss_rate;
  double threshold = loss;
  if (u < threshold) {
    ++injected_drops_;
    return Verdict{Action::kDrop, 0};
  }
  threshold += options_.nack_rate;
  if (u < threshold) {
    ++injected_nacks_;
    return Verdict{Action::kNack, 0};
  }
  threshold += options_.delay_rate;
  if (u < threshold) {
    ++injected_delays_;
    // Derive the spike size from the same draw (deterministic, no extra RNG
    // consumption): map u's position within the delay band onto [min, max].
    const double frac = options_.delay_rate > 0.0
                            ? (threshold - u) / options_.delay_rate
                            : 0.0;
    return Verdict{Action::kDelay,
                   kDelayMinNs + static_cast<SimDuration>(
                                     frac * static_cast<double>(kDelayMaxNs - kDelayMinNs))};
  }
  threshold += options_.duplicate_rate;
  if (u < threshold && type == WorkType::kRead) {
    ++injected_duplicates_;
    return Verdict{Action::kDuplicate, kDuplicateLagNs};
  }
  // Corruption occupies the band just past duplicate. The band is tested
  // with an explicit [threshold, threshold + rate) window rather than by
  // advancing `threshold`, because the duplicate band above is READ-only: a
  // WRITE whose draw fell inside it must stay kDeliver, not slide into the
  // corrupt band.
  const double corrupt =
      type == WorkType::kWrite ? options_.write_poison_rate : options_.corrupt_rate;
  if (corrupt > 0.0 && u >= threshold && u < threshold + corrupt) {
    ++injected_corruptions_;
    if (type == WorkType::kRead && options_.corrupt_burst > 1) {
      corrupt_pending_ = options_.corrupt_burst - 1;
    }
    return Verdict{Action::kCorrupt, 0};
  }
  return Verdict{Action::kDeliver, 0};
}

uint64_t FaultInjector::DegradedNs(SimTime now) const {
  uint64_t total = 0;
  if (options_.brownout_period_ns > 0 && options_.brownout_duration_ns > 0) {
    const uint64_t full_periods = now / options_.brownout_period_ns;
    total += full_periods * std::min<uint64_t>(options_.brownout_duration_ns,
                                               options_.brownout_period_ns);
    total += std::min<uint64_t>(now % options_.brownout_period_ns,
                                options_.brownout_duration_ns);
  }
  if (options_.blackout_duration_ns > 0 && now > options_.blackout_start_ns) {
    total += std::min<uint64_t>(now - options_.blackout_start_ns,
                                options_.blackout_duration_ns);
  }
  return total;
}

}  // namespace adios
