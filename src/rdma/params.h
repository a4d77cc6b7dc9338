// Calibration constants and knobs for the simulated RDMA fabric.
//
// Values are chosen so an unloaded 4 KB one-sided READ completes in ~2.8 us,
// within the 2-3 us the paper reports for 100 GbE ConnectX-class NICs
// (§2.3, §3, [29, 64, 66]), and so WQE processing caps the NIC at a few
// million ops/s (the NIC-bound regime discussed for Memcached in §5.2). The
// stage costs nothing varies are constants; FabricParams keeps the axes
// that benches and tests sweep.

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

// --- Fixed stage costs of the unloaded 4 KB READ (§2.3) ---
//
// WQE processing (wqe_process_ns, 195) + request header on the wire (5) +
// kWireLatencyNs + kRemoteDmaNs + 4 KB payload at 100 Gb/s (333) +
// kWireLatencyNs + kCqeDeliverNs = 2833 ns
// (FabricDefaults.UnloadedFetchWithinPaperRange).

// Propagation + switching per direction.
inline constexpr SimDuration kWireLatencyNs = 400;
// Memory-node-side DMA read/write of a 4 KB page (PCIe round trip).
inline constexpr SimDuration kRemoteDmaNs = 1200;
// Compute-node-side DMA of a transmit payload from host memory (PCIe),
// part of every Raw-Ethernet send before serialization. Determines how long
// a synchronous sender busy-waits for its TX CQE (Fig. 9).
inline constexpr SimDuration kTxDmaNs = 1200;
// Completion write-back + detection by polling.
inline constexpr SimDuration kCqeDeliverNs = 300;
// Per-message wire overhead (Ethernet + RoCE headers).
inline constexpr uint32_t kHeaderBytes = 66;
// Client-facing link (load generator <-> compute node): the same class of
// 100 GbE hardware in the testbed (§5).
inline constexpr double kClientLinkGbps = 100.0;
inline constexpr SimDuration kClientWireLatencyNs = 500;

// WDRR weights of the QoS link classes (docs/QOS.md), in quantum units per
// round: demand 8, prefetch 2, background 1, so demand gets 8/11 of a
// saturated three-class link and background keeps a floor of 1/11.
inline constexpr std::array<uint32_t, kNumTrafficClasses> kClassWeights = {8, 2, 1};

struct FabricParams {
  // Link speed per direction (the testbed uses 100 GbE everywhere).
  double link_gbps = 100.0;

  // NIC requester processing per WQE (doorbell, WQE fetch, address
  // translation). One engine, round-robin across QPs: caps the NIC at
  // 1e9/this ops per second (§5.2's "NIC could not match the host").
  SimDuration wqe_process_ns = 195;

  // Send-queue depth per QP; posting fails when this many WQEs are in flight.
  uint32_t qp_depth = 128;

  // Ablation: serve the shared links in global FIFO order instead of
  // per-QP round-robin (removes the per-flow isolation PF-aware dispatching
  // relies on).
  bool fifo_links = false;

  // --- QoS link scheduling (docs/QOS.md) ---
  //
  // `link_classes` <= 1 gives every link one WDRR class: plain per-flow
  // round-robin, as in the seed. Set to kNumTrafficClasses (3) to split every
  // shared link into prioritized virtual queues (demand > prefetch >
  // background) served by weighted deficit round-robin with kClassWeights.
  uint32_t link_classes = 0;

  // Critical-chunk-first delivery (docs/QOS.md): when nonzero and smaller
  // than the transfer, a demand READ's first `chunk_bytes` are delivered as
  // their own link-level message and surface as an early *partial*
  // completion that resumes the faulting unithread; the tail streams behind
  // it (at prefetch priority when classes are on) and only the tail's
  // completion retires the WQE. 0 = off, bit-identical to seed.
  uint32_t chunk_bytes = 0;

  // Link-level page compression (docs/QOS.md): wire payload bytes scale by
  // `kCompressRatio` while the (de)compression engines charge
  // SerializationNs(page, compress_gbps) — compression on the memory-node
  // DMA timeline, decompression on the faulting worker's core. On exactly
  // when `compress_gbps` > 0; off by default.
  double compress_gbps = 0.0;
  // Wire bytes per payload byte while compression is on.
  static constexpr double kCompressRatio = 0.6;

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
  // Binary exponential backoff from 4 us, capped at 100 us (4x the deadline)
  // so a long outage is re-probed rather than waited out.
  static constexpr SimDuration kBackoffBaseNs = 4000;
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr SimDuration kBackoffCapNs = 100000;

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
        static_cast<SimDuration>(static_cast<double>(current) * kBackoffMultiplier);
    return next > kBackoffCapNs ? kBackoffCapNs : next;
  }
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_PARAMS_H_
