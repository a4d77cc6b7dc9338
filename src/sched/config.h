// Scheduler configuration: policies, plus the CPU-cost calibration the
// workers and the dispatcher charge.
//
// All cost constants are CPU cycles at the nominal 2.0 GHz clock. The policy
// knobs select among the systems the paper evaluates:
//
//   Adios   = kYield     + kPfAware    + polling delegation
//   DiLOS   = kBusyWait  + kRoundRobin + synchronous TX
//   DiLOS-P = DiLOS + cooperative preemption (5 us quantum)
//   Hermit  = kKernelBusyWait (kernel-based costs) + kRoundRobin

#ifndef ADIOS_SRC_SCHED_CONFIG_H_
#define ADIOS_SRC_SCHED_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/base/time.h"
#include "src/mem/prefetcher.h"
#include "src/rdma/params.h"

namespace adios {

enum class FaultPolicy : uint8_t {
  kYield = 0,            // Adios: issue fetch, yield to the worker (Fig. 5).
  kBusyWait = 1,         // DiLOS: spin until the fetch completes.
  kKernelBusyWait = 2,   // Hermit: busy-wait plus kernel trap/return costs.
  kKernelYield = 3,      // Infiniswap: yield through the kernel scheduler —
                         // heavyweight thread switches (~4 us [40]) and a
                         // scheduler wake-up delay before resuming.
};

enum class DispatchPolicy : uint8_t {
  kRoundRobin = 0,    // Shinjuku/Concord baseline dispatcher.
  kPfAware = 1,       // Algorithm 1: prefer idle workers with fewest in-flight PFs.
  kWorkStealing = 2,  // ZygOS-style d-FCFS: round-robin push into per-worker
                      // queues; idle workers steal from the busiest peer.
                      // (§3.4 rejects this for Adios: queue scans cost and
                      // RDMA QPs cannot migrate — reproduced as an ablation.)
};

struct SchedConfig {
  FaultPolicy fault_policy = FaultPolicy::kYield;
  DispatchPolicy dispatch_policy = DispatchPolicy::kPfAware;
  bool polling_delegation = true;  // Workers' TX completions go to the dispatcher CQ.
  // Cooperative preemption quantum at instrumented points; 0 = off. DiLOS-P
  // runs the Shinjuku/Concord default of 5 us.
  SimDuration preempt_interval_ns = 0;
  // --- Prefetching (docs/PREFETCH.md) ---
  // Max readahead window in pages (0 = prefetching off, the bit-identical
  // seed default). The policy picks how the window is used: kSequential
  // ramps on unit-stride streaks; kAdaptive majority-votes the stride over
  // the fault history and adapts depth to prefetch-cache hit/waste feedback.
  uint32_t prefetch_window = 0;
  PrefetchPolicy prefetch_policy = PrefetchPolicy::kAdaptive;
};

// --- Queue sizing (constants, not knobs) ---

inline constexpr uint32_t kRxRingSize = 1024;  // Dispatcher RX ring entries.
// The dispatcher stops pulling from the RX ring when the central queue
// holds this many entries; further arrivals overflow the ring and drop
// (the offered-vs-throughput gap of Fig. 2(d)).
inline constexpr uint32_t kCentralQueueLimit = 512;
inline constexpr uint32_t kCqPollBatch = 16;  // Completions per CQ poll.

// --- CPU cost calibration (cycles @ 2 GHz, the paper's Xeon Gold 6330) ---
//
// Charged by the workers (worker.cc) and the dispatcher (dispatcher.cc).
// Each is a constant with its source; none is a knob.

// Table 1: Adios' unithread context switch.
inline constexpr uint32_t kCtxSwitchCycles = 40;
// The §3 fault path (Fig. 5), part of the ~10.6 Kcycles a remote array
// request costs under busy-waiting (Fig. 2(c), DESIGN.md §5): exception
// entry + unified page-table lookup, free-frame pop, fetch issue (WQE build
// + doorbell MMIO; each further WQE of a doorbell-batched post, at most
// QueuePair::kMaxReadBatch per doorbell, builds its WQE without another
// doorbell, the saving batching captures), page map + table update, and
// each completion polled.
inline constexpr uint32_t kFaultEntryCycles = 250;
inline constexpr uint32_t kFrameAllocCycles = 60;
inline constexpr uint32_t kPostReadCycles = 90;
inline constexpr uint32_t kPostReadWqeCycles = 30;
inline constexpr uint32_t kMapPageCycles = 150;
inline constexpr uint32_t kPollCqeCycles = 60;
inline constexpr uint32_t kTxPostCycles = 120;     // Reply WQE build + doorbell.
inline constexpr uint32_t kWorkerLoopCycles = 25;  // Worker scheduling-loop iteration.
// Dispatcher: Algorithm 1 decision + handoff per request, per received
// packet, and per delegated TX completion. They bound Adios' peak, which is
// dispatcher-bound (~2.4-2.6 MRPS; Fig. 7(d), DESIGN.md §6).
inline constexpr uint32_t kDispatchCycles = 180;
inline constexpr uint32_t kRxPollCycles = 150;
inline constexpr uint32_t kTxRecycleCycles = 70;
// Concord-style cooperative preemption: instrumentation probe, and requeue
// + switch on a fired preemption.
inline constexpr uint32_t kPreemptCheckCycles = 6;
inline constexpr uint32_t kPreemptSwitchCycles = 150;
// §3.4's objection to work stealing: peer-queue scan + dequeue.
inline constexpr uint32_t kStealCycles = 200;

// The costs a fault policy adds on top of the shared ones above: one
// constant row per FaultPolicy, so a preset picks a policy and gets its
// costs with it.
struct PolicyCosts {
  // kYield only: checking fetched pages and maintaining the yielded list —
  // the overhead visible at 100% local memory (Fig. 8).
  uint32_t yield_bookkeeping_cycles = 0;
  // Kernel-based systems: trap into the kernel + return around a fault, the
  // kernel network stack per request (each direction), and rare background
  // interference (timer ticks, softirqs, kswapd) that dominates P99.9.
  uint32_t kernel_fault_extra_cycles = 0;
  uint32_t kernel_request_extra_cycles = 0;
  double kernel_jitter_prob = 0.0;
  uint32_t kernel_jitter_min_cycles = 0;
  uint32_t kernel_jitter_max_cycles = 0;
  // kKernelYield only: kernel-thread context switch ([40]: ~4 us) and the
  // scheduler delay before a woken thread runs again.
  uint32_t kernel_ctx_switch_cycles = 0;
  SimDuration kernel_sched_delay_ns = 0;
};

// Indexed by FaultPolicy.
inline constexpr PolicyCosts kPolicyCosts[] = {
    // kYield (Adios).
    {.yield_bookkeeping_cycles = 50},
    // kBusyWait (DiLOS): no yield path, no kernel.
    {},
    // kKernelBusyWait (Hermit): the async-optimized fault trap + return
    // (1.3 us), the kernel network stack, and 30-250 us holds on 0.2% of
    // requests, calibrated so DiLOS's P99.9 is ~42x better at 0.7 MRPS
    // (§5.1, DESIGN.md §5).
    {.kernel_fault_extra_cycles = 2600,
     .kernel_request_extra_cycles = 2400,
     .kernel_jitter_prob = 0.002,
     .kernel_jitter_min_cycles = 60000,
     .kernel_jitter_max_cycles = 500000},
    // kKernelYield (Infiniswap, §7 [21]): the kernel swap-in path (~7 us),
    // Hermit's network stack and interference, a ~4 us thread switch [40]
    // and a 30 us scheduler wake-up; the paper measured 582 us - 73 ms
    // P99.9 and 261 KRPS.
    {.kernel_fault_extra_cycles = 14000,
     .kernel_request_extra_cycles = 2400,
     .kernel_jitter_prob = 0.002,
     .kernel_jitter_min_cycles = 60000,
     .kernel_jitter_max_cycles = 500000,
     .kernel_ctx_switch_cycles = 8000,
     .kernel_sched_delay_ns = 30000},
};

static_assert(sizeof(kPolicyCosts) / sizeof(kPolicyCosts[0]) ==
                  static_cast<size_t>(FaultPolicy::kKernelYield) + 1,
              "one kPolicyCosts row per FaultPolicy");

constexpr const PolicyCosts& CostsOf(FaultPolicy policy) {
  return kPolicyCosts[static_cast<uint8_t>(policy)];
}

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_CONFIG_H_
