// Scheduler configuration: policies and CPU-cost calibration.
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
  bool preemption = false;         // Cooperative preemption at instrumented points.
  SimDuration preempt_interval_ns = 5000;  // Shinjuku/Concord default 5 us.
  // --- Prefetching (docs/PREFETCH.md) ---
  // Max readahead window in pages (0 = prefetching off, the bit-identical
  // seed default). The policy picks how the window is used: kSequential
  // ramps on unit-stride streaks; kAdaptive majority-votes the stride over
  // the fault history and adapts depth to prefetch-cache hit/waste feedback.
  uint32_t prefetch_window = 0;
  PrefetchPolicy prefetch_policy = PrefetchPolicy::kAdaptive;
  uint32_t rx_ring_size = 1024;
  // The dispatcher stops pulling from the RX ring when the central queue
  // holds this many entries; further arrivals overflow the ring and drop
  // (the offered-vs-throughput gap of Fig. 2(d)).
  uint32_t central_queue_limit = 512;
  uint32_t cq_poll_batch = 16;

  // --- CPU cost calibration (cycles @ 2 GHz) ---

  // Unithread context switch (Table 1: 40 cycles for Adios' unithread).
  uint32_t ctx_switch_cycles = 40;
  // Page fault exception entry + unified page-table lookup.
  uint32_t fault_entry_cycles = 250;
  uint32_t frame_alloc_cycles = 60;
  uint32_t post_read_cycles = 90;    // Build WQE + doorbell MMIO.
  // Each WQE after the first in a doorbell-batched post (at most
  // QueuePair::kMaxReadBatch per doorbell): WQE build without another
  // doorbell MMIO (the saving batching exists to capture).
  uint32_t post_read_wqe_cycles = 30;
  uint32_t map_page_cycles = 150;    // Map fetched page, update page table.
  uint32_t poll_cqe_cycles = 60;     // Per completion processed.
  // Extra bookkeeping on Adios' yield path (checking fetched pages, yielded
  // list maintenance) — the overhead visible at 100% local memory (Fig. 8).
  uint32_t yield_bookkeeping_cycles = 50;
  uint32_t tx_post_cycles = 120;
  uint32_t dispatch_cycles = 180;    // Dispatcher per-request decision + handoff.
  uint32_t rx_poll_cycles = 150;     // Dispatcher per received packet.
  uint32_t tx_recycle_cycles = 70;   // Dispatcher per delegated TX completion.
  uint32_t worker_loop_cycles = 25;  // Worker scheduling-loop iteration.
  uint32_t preempt_check_cycles = 6;     // Concord-style instrumentation probe.
  uint32_t preempt_switch_cycles = 150;  // Requeue + switch on a fired preemption.
  uint32_t steal_cycles = 200;           // Peer-queue scan + dequeue (work stealing).

  // --- Kernel-based system extras (Hermit, Infiniswap) ---
  uint32_t kernel_fault_extra_cycles = 0;    // Trap into kernel + return.
  uint32_t kernel_request_extra_cycles = 0;  // Kernel network stack per request.
  double kernel_jitter_prob = 0.0;           // Background kernel interference.
  uint32_t kernel_jitter_min_cycles = 0;
  uint32_t kernel_jitter_max_cycles = 0;
  // kKernelYield only: kernel-thread context switch ([40]: ~4 us) and the
  // scheduler delay before a woken thread runs again.
  uint32_t kernel_ctx_switch_cycles = 8000;
  SimDuration kernel_sched_delay_ns = 30000;

  uint64_t seed = 42;
};

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_CONFIG_H_
