// Calibration constants for the simulated RDMA fabric.
//
// Values are chosen so an unloaded 4 KB one-sided READ completes in ~2.5 us,
// matching the 2-3 us the paper reports for 100 GbE ConnectX-class NICs
// (§2.3, §3, [29, 64, 66]), and so WQE processing caps the NIC at a few
// million ops/s (the NIC-bound regime discussed for Memcached in §5.2).

#ifndef ADIOS_SRC_RDMA_PARAMS_H_
#define ADIOS_SRC_RDMA_PARAMS_H_

#include <array>
#include <cstdint>

#include "src/base/time.h"

namespace adios {

// Traffic classes for the QoS link scheduler (docs/QOS.md). Lower value =
// higher priority. Demand faults are latency-critical; prefetches are
// speculative; re-silver/scrub/write-back movement is pure background repair
// bandwidth. Class tags ride every posted WQE into the link layer and back
// out in its completion.
enum class TrafficClass : uint8_t {
  kDemand = 0,
  kPrefetch = 1,
  kBackground = 2,
};

inline constexpr uint32_t kNumTrafficClasses = 3;

inline const char* TrafficClassName(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kDemand:
      return "demand";
    case TrafficClass::kPrefetch:
      return "prefetch";
    case TrafficClass::kBackground:
      return "background";
  }
  return "?";
}

struct FabricParams {
  // Link speed per direction (the testbed uses 100 GbE everywhere).
  double link_gbps = 100.0;

  // Propagation + switching per direction.
  SimDuration wire_latency_ns = 400;

  // NIC requester processing per WQE (doorbell, WQE fetch, address
  // translation). One engine, round-robin across QPs: caps the NIC at
  // 1e9/this ops per second (§5.2's "NIC could not match the host").
  SimDuration wqe_process_ns = 195;

  // Memory-node-side DMA read/write of a 4 KB page (PCIe round trip).
  SimDuration remote_dma_ns = 1200;

  // Compute-node-side DMA of a transmit payload from host memory (PCIe),
  // part of every Raw-Ethernet send before serialization. Determines how
  // long a synchronous sender busy-waits for its TX CQE (Fig. 9).
  SimDuration tx_dma_ns = 1200;

  // Completion write-back + detection by polling.
  SimDuration cqe_deliver_ns = 300;

  // Per-message wire overhead (Ethernet + RoCE headers).
  uint32_t header_bytes = 66;

  // Send-queue depth per QP; posting fails when this many WQEs are in flight.
  uint32_t qp_depth = 128;

  // Ablation: serve the shared links in global FIFO order instead of
  // per-QP round-robin (removes the per-flow isolation PF-aware dispatching
  // relies on).
  bool fifo_links = false;

  // Client-facing link (load generator <-> compute node), same class of
  // hardware in the testbed.
  double client_link_gbps = 100.0;
  SimDuration client_wire_latency_ns = 500;

  // --- QoS link scheduling (docs/QOS.md) ---
  //
  // `link_classes` <= 1 gives every link one WDRR class: plain per-flow
  // round-robin, as in the seed. Set to kNumTrafficClasses (3) to split every
  // shared link into prioritized virtual queues (demand > prefetch >
  // background) served by weighted deficit round-robin. Weights are in
  // quantum units per round; every weight is clamped to >= 1, which is the
  // starvation floor — background classes always drain.
  uint32_t link_classes = 0;
  std::array<uint32_t, kNumTrafficClasses> class_weights = {8, 2, 1};

  // Critical-chunk-first delivery (docs/QOS.md): when nonzero and smaller
  // than the transfer, a demand READ's first `chunk_bytes` are delivered as
  // their own link-level message and surface as an early *partial*
  // completion that resumes the faulting unithread; the tail streams behind
  // it (at prefetch priority when classes are on) and only the tail's
  // completion retires the WQE. 0 = off, bit-identical to seed.
  uint32_t chunk_bytes = 0;

  // Link-level page compression (docs/QOS.md): wire payload bytes scale by
  // `compress_ratio` while the (de)compression engines charge
  // SerializationNs(page, compress_gbps) — compression on the memory-node
  // DMA timeline, decompression on the faulting worker's core. Off by
  // default; `compress_gbps` <= 0 also disables the cost model.
  bool compress = false;
  double compress_gbps = 0.0;
  double compress_ratio = 0.6;

  // Nanoseconds to serialize `bytes` on a `gbps` link.
  static SimDuration SerializationNs(uint64_t bytes, double gbps) {
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 / gbps + 0.5);
  }
};

// Software timeout/retry/backoff policy for one-sided operations (page
// fetches and write-backs). Sits *above* the NIC's transport retries: when a
// WQE neither completes nor errors within `timeout_ns`, or completes with an
// error status, the requester reposts it after an exponentially growing
// backoff, up to `max_retries` reposts. Exhausting the budget triggers the
// graceful-degradation path (fail the faulting request / abandon the
// write-back) instead of wedging the worker. See docs/FAULT_MODEL.md.
struct RetryPolicy {
  bool enabled = false;
  // Deadline per posted WQE. ~10x the unloaded 2.5 us fetch: loaded fetches
  // routinely take several microseconds, so a tight deadline would spur
  // spurious retries that double link load exactly when it is scarce.
  SimDuration timeout_ns = 25000;
  // Reposts per operation before giving up (transport-retry-counter
  // analogue, applied in software).
  uint32_t max_retries = 6;
  // Backoff before the k-th repost: min(base * multiplier^(k-1), cap).
  SimDuration backoff_base_ns = 4000;
  double backoff_multiplier = 2.0;
  SimDuration backoff_cap_ns = 100000;

  // Retry sub-budget for background traffic classes (prefetch fetches and
  // the reclaimer's write-backs): under a brownout, background reposts must
  // not starve demand retries of link/QP capacity. 0 = share `max_retries`
  // (seed-identical); nonzero caps background reposts independently.
  uint32_t background_max_retries = 0;

  uint32_t MaxRetriesFor(TrafficClass cls) const {
    if (cls == TrafficClass::kDemand || background_max_retries == 0) {
      return max_retries;
    }
    return background_max_retries;
  }

  SimDuration NextBackoff(SimDuration current) const {
    const SimDuration next =
        static_cast<SimDuration>(static_cast<double>(current) * backoff_multiplier);
    return next > backoff_cap_ns ? backoff_cap_ns : next;
  }
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_PARAMS_H_
