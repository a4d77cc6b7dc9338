// Paging knobs: page size, reclaim watermarks and the lock-free datapath's
// clock, frame-cache and synchronization-cost settings (docs/DATAPATH.md).
//
// SystemConfig derives from PagingConfig, so `cfg.clock_shards = 8` sets the
// knob MemoryManager reads. The manager's page counts depend on the
// application's working set, so they are constructor arguments.

#ifndef ADIOS_SRC_MEM_PAGING_CONFIG_H_
#define ADIOS_SRC_MEM_PAGING_CONFIG_H_

#include <cstdint>

namespace adios {

// Synchronization-cost model for the paging datapath (docs/DATAPATH.md).
// The simulator's fibers cannot race, so the *cost* of the discipline is
// modeled explicitly; bench_scalability uses kGlobalLock as the serialized
// baseline the lock-free design is measured against.
enum class MmSyncModel : uint8_t {
  kShardedCas = 0,  // Mutating operations pay sync_cas_ns (0 = free); lookups stay free.
  kGlobalLock = 1,  // Every paging operation serializes through one lock.
};

struct PagingConfig {
  // Paging granularity (log2 bytes): 12 = 4 KiB compute-node pages as in
  // the paper; 21 = 2 MiB huge pages (whose 512x I/O amplification §5.2's
  // Silo port works around; reproduced in the ablation bench).
  uint32_t page_shift = 12;
  // Reclamation starts when free frames drop below this fraction of the
  // local frames (the paper's threshold is 15%) and stops once they exceed
  // the high watermark.
  double reclaim_low_watermark = 0.15;
  double reclaim_high_watermark = 0.20;
  // Clock shards for the ResidentPageSet; 0 keeps the dense clock hand.
  uint32_t clock_shards = 0;
  // No effect; nothing reads it. Kept only because perfbench assigns it; it
  // goes with the next benchmark change (ROADMAP item 1).
  uint32_t frame_cache_size = 0;
  // Bound on clock slots scanned per SelectVictim() call; past it the scan
  // returns a retry signal instead of sweeping the whole table. 0 = full
  // sweep.
  uint32_t evict_scan_budget = 0;
  // Synchronization-cost model for paging ops and its parameters
  // (nanoseconds, decoupled from the CPU clock).
  MmSyncModel sync_model = MmSyncModel::kShardedCas;
  uint64_t sync_hold_ns = 0;  // kGlobalLock: lock hold per paging op.
  uint64_t sync_cas_ns = 0;   // kShardedCas: cost per mutating op.
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_PAGING_CONFIG_H_
