// Seeded fault injection for the simulated RDMA fabric.
//
// The ideal fabric completes every one-sided READ/WRITE; this layer makes it
// lossy in the ways real ConnectX/IB deployments are (see docs/FAULT_MODEL.md
// for the full probability model and the hardware-semantics mapping):
//
//   drop      — the request or response packet is lost and the NIC's
//               transport-level retransmissions also fail; the requester sees
//               a completion-with-error (IBV_WC_RETRY_EXC_ERR analogue) after
//               `kDropDetectNs` (the transport retry timeout).
//   NAK       — the memory node answers RNR/again (receiver not ready); the
//               requester sees a fast completion-with-error after one RTT.
//   delay     — a congestion/PFC pause spike adds tens of microseconds to the
//               memory-node stage of one WQE.
//   duplicate — the response is delivered twice (retransmit race); the second
//               success completion arrives late and must be deduplicated.
//   corrupt   — the WQE completes successfully but the payload is wrong: a
//               remote-DRAM bit flip or a DMA from a stale buffer on READs,
//               a torn/poisoned landing on WRITEs. No error is signaled, so
//               only end-to-end checksums (src/integrity/) can see it.
//   brownout  — periodic windows in which the memory node's DMA engine is
//               rate-limited (e.g. a co-located tenant thrashing the memory
//               bus): every DMA in the window takes `kBrownoutDmaMultiplier`
//               times longer.
//   blackout  — one full outage interval (link flap / memory-node reboot):
//               every WQE entering the fabric in the window behaves like a
//               drop.
//
// All randomness flows through one seeded xoshiro generator, consumed once
// per classified WQE, so runs are deterministic. The injector is pure
// decision logic — RdmaFabric applies the verdicts to its pipeline stages.

#ifndef ADIOS_SRC_RDMA_FAULT_INJECTOR_H_
#define ADIOS_SRC_RDMA_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/rdma/completion.h"

namespace adios {

class FaultInjector {
 public:
  struct Options {
    // Per-WQE fault probabilities (independent Bernoulli draws, evaluated in
    // the order drop > nack > delay > duplicate > corrupt; at most one fires
    // per WQE).
    double read_loss_rate = 0.0;   // One-sided READ lost end-to-end.
    double write_loss_rate = 0.0;  // One-sided WRITE lost end-to-end.
    double nack_rate = 0.0;        // RNR NAK from the memory node.
    double delay_rate = 0.0;       // Congestion/PFC delay spike.
    double duplicate_rate = 0.0;   // Response delivered twice (READs only).
    double corrupt_rate = 0.0;     // READ payload silently corrupted in flight.
    double write_poison_rate = 0.0;  // WRITE lands but poisons the stored page.

    // When a READ draws corruption, the next `corrupt_burst - 1` READs on
    // this injector are corrupted too (a flaky DIMM/row corrupts a locality
    // burst, not one isolated word). 1 = independent corruption.
    uint32_t corrupt_burst = 1;

    // Memory-node brownouts: every `brownout_period_ns` a window of
    // `brownout_duration_ns` opens during which remote DMA takes
    // `kBrownoutDmaMultiplier` times its calibrated cost. 0 period = off.
    SimDuration brownout_period_ns = 0;
    SimDuration brownout_duration_ns = 0;

    // One full blackout interval [start, start + duration): all WQEs posted
    // inside it are treated as drops. 0 duration = off.
    SimDuration blackout_start_ns = 0;
    SimDuration blackout_duration_ns = 0;
    // Which memory node the blackout hits on a replicated fabric. The
    // injector itself ignores this (each node owns one injector); MdSystem
    // uses it to decide which node's injector keeps the blackout window.
    uint32_t blackout_node = 0;

    uint64_t seed = 99;

    bool enabled() const {
      return read_loss_rate > 0.0 || write_loss_rate > 0.0 || nack_rate > 0.0 ||
             delay_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
             write_poison_rate > 0.0 ||
             (brownout_period_ns > 0 && brownout_duration_ns > 0) ||
             blackout_duration_ns > 0;
    }
  };

  // Time for the NIC transport layer to exhaust its hardware retries and
  // flush a lost WQE as a completion-with-error: the transport retry counter
  // times the local ACK timeout, scaled to the simulation's microsecond
  // world (20 us, below the 25 us software deadline of RetryPolicy).
  static constexpr SimDuration kDropDetectNs = 20000;
  // RTT until an RNR NAK surfaces as a fast completion-with-error: roughly
  // one fabric round trip, with no memory-node DMA (§2.3).
  static constexpr SimDuration kNackRttNs = 2000;
  // Bounds of a congestion/PFC delay spike (uniform in [min, max]).
  static constexpr SimDuration kDelayMinNs = 5000;
  static constexpr SimDuration kDelayMaxNs = 50000;
  // Lag of a duplicate success completion behind the first.
  static constexpr SimDuration kDuplicateLagNs = 10000;
  // Slowdown of every remote DMA inside a brownout window.
  static constexpr double kBrownoutDmaMultiplier = 8.0;

  enum class Action : uint8_t {
    kDeliver = 0,    // Normal completion.
    kDrop = 1,       // Lost; error completion after kDropDetectNs.
    kNack = 2,       // RNR NAK; error completion after kNackRttNs.
    kDelay = 3,      // Success completion, extra_ns added at the memory node.
    kDuplicate = 4,  // Success completion, then a second one extra_ns later.
    kCorrupt = 5,    // Success completion, payload silently corrupted — the
                     // only fault class the retry path cannot see.
  };

  struct Verdict {
    Action action = Action::kDeliver;
    SimDuration extra_ns = 0;
  };

  explicit FaultInjector(const Options& options) : options_(options), rng_(options.seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const Options& options() const { return options_; }

  // Classifies one posted WQE. Consumes RNG state; call exactly once per WQE.
  Verdict Classify(WorkType type, SimTime now);

  // True inside the blackout interval.
  bool InBlackout(SimTime now) const {
    return options_.blackout_duration_ns > 0 && now >= options_.blackout_start_ns &&
           now < options_.blackout_start_ns + options_.blackout_duration_ns;
  }

  // True inside a periodic brownout window.
  bool InBrownout(SimTime now) const {
    if (options_.brownout_period_ns == 0 || options_.brownout_duration_ns == 0) {
      return false;
    }
    return now % options_.brownout_period_ns < options_.brownout_duration_ns;
  }

  // Extra DMA nanoseconds for a memory-node DMA starting at `now`.
  SimDuration DmaPenaltyNs(SimTime now, SimDuration base_dma_ns) const {
    if (!InBrownout(now)) {
      return 0;
    }
    return static_cast<SimDuration>(static_cast<double>(base_dma_ns) *
                                    (kBrownoutDmaMultiplier - 1.0));
  }

  // Total simulated time spent inside brownout + blackout windows in [0, now]
  // (analytic — independent of traffic).
  uint64_t DegradedNs(SimTime now) const;

  // --- Injection stats (reads after a run) ---
  uint64_t classified() const { return classified_; }
  uint64_t injected_drops() const { return injected_drops_; }
  uint64_t injected_nacks() const { return injected_nacks_; }
  uint64_t injected_delays() const { return injected_delays_; }
  uint64_t injected_duplicates() const { return injected_duplicates_; }
  uint64_t injected_corruptions() const { return injected_corruptions_; }

 private:
  Options options_;
  Rng rng_;
  uint64_t classified_ = 0;
  uint64_t injected_drops_ = 0;
  uint64_t injected_nacks_ = 0;
  uint64_t injected_delays_ = 0;
  uint64_t injected_duplicates_ = 0;
  uint64_t injected_corruptions_ = 0;
  // Remaining READs of the current corruption burst.
  uint32_t corrupt_pending_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_FAULT_INJECTOR_H_
