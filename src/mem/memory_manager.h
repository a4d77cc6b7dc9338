// Memory manager: local frame accounting, fetch protocol, and eviction
// support for the compute node (§3.3).
//
// The manager owns the page table and the free-frame budget. Fault handlers
// (implemented by the scheduler's workers, since the waiting mechanics differ
// per policy) drive the protocol:
//
//   StateOf(p) == kRemote  -> BeginFetch(p); post READ; AddFetchWaiter(p, fn);
//                             block per policy (busy-wait or yield)
//   StateOf(p) == kFetching-> AddFetchWaiter(p, fn); block per policy
//   StateOf(p) == kPresent -> Touch(p, is_write); proceed (MMU hit, no cost)
//
// On READ completion the polling context calls CompleteFetch(p), which maps
// the page and runs all registered waiter callbacks (each resumes one blocked
// unithread). Frames are reserved at BeginFetch and released by eviction.
//
// The paging datapath is lock-free by construction (docs/DATAPATH.md):
// page residency lives in per-page atomic state words, the free-frame budget
// can split into per-worker credit caches, and the clock can shard its hand.
// SyncGateNs() models the synchronization cost of the discipline in effect,
// so bench_scalability can compare a serialized baseline (one global lock)
// against the sharded-CAS design on identical workloads.

#ifndef ADIOS_SRC_MEM_MEMORY_MANAGER_H_
#define ADIOS_SRC_MEM_MEMORY_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/base/annotations.h"
#include "src/mem/page_table.h"
#include "src/mem/paging_config.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

class MemoryManager {
 public:
  // Frame reservations tagged with this owner (re-silver bounce frames)
  // bypass the per-worker credit caches.
  static constexpr uint16_t kNoFrameOwner = 0xFFFF;

  struct Stats {
    uint64_t faults = 0;            // Demand fetches started.
    uint64_t prefetches = 0;        // Prefetch fetches started.
    uint64_t shared_faults = 0;     // Faults coalesced onto an in-flight fetch.
    uint64_t evictions_clean = 0;
    uint64_t evictions_dirty = 0;
    uint64_t frame_stalls = 0;      // Fault had to wait for a free frame.
    uint64_t fetch_aborts = 0;      // Fetches abandoned after retry exhaustion.
    // Prefetch-cache outcome accounting (docs/PREFETCH.md). Every prefetched
    // page resolves to exactly one of hit / late / wasted (pages still in
    // the cache when the run ends stay unresolved).
    uint64_t prefetch_hits = 0;    // Touched while resident and untouched.
    uint64_t prefetch_late = 0;    // Demand fault coalesced onto the in-flight prefetch.
    uint64_t prefetch_wasted = 0;  // Evicted (or aborted) before any touch.
    // Free-frame credit-cache traffic (docs/DATAPATH.md).
    uint64_t frame_refills = 0;    // Batches moved shared pool -> a cache.
    uint64_t frame_spills = 0;     // Cache credits recalled to the shared pool.
    // Critical-chunk-first delivery (docs/QOS.md).
    uint64_t chunk_partials = 0;     // Critical chunks landed (ChunkReady).
    uint64_t chunk_early_wakes = 0;  // Waiters resumed off a partial page.
  };

  // `total_pages` is the remote working set's size in pages and
  // `local_pages` the compute-node DRAM cache's capacity in frames.
  MemoryManager(Engine* engine, const PagingConfig& paging, uint64_t total_pages,
                uint64_t local_pages);

  uint64_t local_pages() const { return local_pages_; }
  PageTable& page_table() { return page_table_; }
  Stats& stats() { return stats_; }

  // Records frame-credit refill events (kFrameRefill). Null disables.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  ADIOS_NO_SUSPEND PageState StateOf(uint64_t vpage) const {
    return page_table_.StateOf(vpage);
  }

  // Paging-granularity helpers (fetch size = one page).
  uint64_t page_bytes() const { return 1ull << paging_.page_shift; }
  uint64_t PageOfAddr(RemoteAddr addr) const { return addr >> paging_.page_shift; }

  // Fault-handling pins: a pinned page is never selected for eviction.
  ADIOS_NO_SUSPEND void Pin(uint64_t vpage) { page_table_.Pin(vpage); }
  ADIOS_NO_SUSPEND void Unpin(uint64_t vpage) { page_table_.Unpin(vpage); }

  // Records an access to a resident page. The hot path — an already-
  // referenced, non-prefetched page — is an optimistic read: one atomic
  // load, zero stores (SetReferenced/SetDirty no-op without a CAS when the
  // bits are already in the target state). The first touch of a prefetched
  // page promotes it out of the prefetch cache and counts a prefetch hit.
  ADIOS_NO_SUSPEND void Touch(uint64_t vpage, bool write) {
    const PageInfo info = page_table_.Info(vpage);
    ADIOS_DCHECK(info.resident());
    if (info.prefetched) {
      page_table_.ClearPrefetched(vpage);
      PurgePrefetchPool(vpage);
      ++stats_.prefetch_hits;
      NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/true);
    }
    page_table_.SetReferenced(vpage);
    if (write) {
      page_table_.SetDirty(vpage);
    }
  }

  // Models the synchronization cost of the active discipline for one paging
  // operation; returns nanoseconds the CALLER must consume before acting.
  // Under kGlobalLock the op's slice of the single lock is reserved here,
  // synchronously — so concurrent ops serialize in simulated time even
  // though the fiber suspends only in the caller's Consume. Non-suspending.
  ADIOS_NO_SUSPEND uint64_t SyncGateNs(bool mutating) {
    switch (paging_.sync_model) {
      case MmSyncModel::kGlobalLock: {
        const uint64_t now = engine_->now();
        const uint64_t start = lock_free_at_ > now ? lock_free_at_ : now;
        lock_free_at_ = start + paging_.sync_hold_ns;
        return (start - now) + paging_.sync_hold_ns;
      }
      case MmSyncModel::kShardedCas:
        return mutating ? paging_.sync_cas_ns : 0;
    }
    return 0;
  }

  // --- Frame budget ---

  // Free frames = shared pool + credits parked in per-worker caches; the
  // watermarks and HasFreeFrame() see both, so credits idling in a cache
  // never trigger reclamation or stall a fault spuriously.
  uint64_t free_frames() const { return local_pages_ - used_frames_; }
  uint64_t used_frames() const { return used_frames_; }
  uint64_t shared_free_frames() const {
    return local_pages_ - used_frames_ - cached_credits_;
  }
  uint64_t cached_frame_credits() const { return cached_credits_; }
  uint32_t frame_cache_credits(uint16_t owner) const {
    return owner < frame_cache_.size() ? frame_cache_[owner] : 0;
  }
  // Per-owner credit-cache view for the frame-conservation audit.
  const std::vector<uint32_t>& frame_caches() const { return frame_cache_; }
  bool HasFreeFrame() const { return used_frames_ < local_pages_; }
  bool BelowLowWatermark() const {
    return static_cast<double>(free_frames()) <
           paging_.reclaim_low_watermark * static_cast<double>(local_pages_);
  }
  bool AboveHighWatermark() const {
    return static_cast<double>(free_frames()) >=
           paging_.reclaim_high_watermark * static_cast<double>(local_pages_);
  }

  // Frame waiters: a callback run (FIFO) when a frame frees — used by
  // handlers that return control to their worker while waiting, so the
  // worker can keep resuming ready unithreads (deadlock avoidance).
  void AddFrameWaiter(std::function<void()> resume) {
    frame_callbacks_.push_back(std::move(resume));
  }

  // Releases one frame (eviction finished) and wakes one frame waiter.
  void ReleaseFrame();
  // Runs the oldest frame waiter if a frame is free. A woken
  // waiter that leaves without taking the frame calls this to pass its
  // wakeup on: each release wakes exactly one waiter.
  void WakeFrameWaiter();

  // --- Re-silver bounce frames ---

  // Reserves a local frame with no page-table transition: the re-silver pass
  // stages a node-to-node page copy through compute-node DRAM (READ from a
  // surviving replica, WRITE to the recovering node) while the page itself
  // stays kRemote. The frame counts toward used_frames(); the frame-ownership
  // auditor balances it against Reclaimer::bounce_frames_held(). Returns
  // false when no frame is free (the caller backs off; re-silvering must
  // never beat demand fetches to the last frame).
  bool TryReserveBounceFrame() {
    if (!HasFreeFrame()) {
      return false;
    }
    TakeFrame(kNoFrameOwner);
    return true;
  }
  void ReleaseBounceFrame() { ReleaseFrame(); }

  // --- Fetch protocol ---

  // Reserves a frame and transitions kRemote -> kFetching. The caller must
  // have checked HasFreeFrame(). Prefetch fetches enter the prefetch cache;
  // both demand and prefetch fetches are tagged with the issuing worker,
  // which keys the free-frame credit cache (and, for prefetches, the
  // hit/waste feedback route).
  ADIOS_NO_SUSPEND void BeginFetch(uint64_t vpage, bool prefetch = false,
                                   uint16_t owner = 0);

  // Registers a callback to run when the in-flight fetch of `vpage` settles:
  // `ok` is true when the page mapped (CompleteFetch) and false when the
  // fetch was abandoned after retry exhaustion (AbortFetch). A waiter
  // registered with `early` = true additionally qualifies for critical-
  // chunk-first resume: ChunkReady runs it (ok = true) as soon as the
  // faulting chunk lands, without waiting for the tail. Writers must not
  // pass `early` — a write to a partially-landed page could race the
  // streaming tail. A page's waiters run in registration order; they queue
  // on a per-page chain of pooled nodes, so registering allocates nothing
  // once the pool is warm.
  using FetchWaiter = std::function<void(bool ok)>;
  void AddFetchWaiter(uint64_t vpage, FetchWaiter resume, bool early = false);

  // Critical-chunk-first (docs/QOS.md): the demand chunk of `vpage`'s
  // in-flight fetch landed. Sets the page word's partial bit, pins the page
  // (the pin is held until the tail settles the fetch), and resumes every
  // early-flagged waiter. No-ops when the fetch already settled or the bit
  // is already set, so duplicated partial completions are harmless.
  ADIOS_NO_SUSPEND void ChunkReady(uint64_t vpage);

  // Transitions kFetching -> kPresent and runs (then clears) all waiters.
  ADIOS_NO_SUSPEND void CompleteFetch(uint64_t vpage);

  // Fetch retry budget exhausted: transitions kFetching -> kRemote, releases
  // the reserved frame, and runs all waiters with ok = false (the graceful-
  // degradation path — waiters fail their requests instead of refetching).
  ADIOS_NO_SUSPEND void AbortFetch(uint64_t vpage);

  // --- Prefetch cache ---

  // True when `vpage` is an untouched prefetched page in the given state.
  bool IsPrefetchedInFlight(uint64_t vpage) const {
    const PageInfo info = page_table_.Info(vpage);
    return info.prefetched && info.state == PageWordState::kFetching;
  }
  bool IsPrefetchedResident(uint64_t vpage) const {
    const PageInfo info = page_table_.Info(vpage);
    return info.prefetched && info.resident();
  }

  // A demand fault landed on a prefetch still in flight: the fault coalesces
  // onto the READ (never a duplicate post), the page leaves the prefetch
  // cache, and the prefetcher learns its stride was right but its window too
  // shallow — late feedback reports as a hit so the window grows.
  void MarkPrefetchLate(uint64_t vpage);

  // Routes prefetch-cache hit/waste outcomes for fetches tagged with
  // `owner` back to that worker's prefetcher (null clears).
  using PrefetchFeedback = std::function<void(bool hit)>;
  void set_prefetch_feedback(uint16_t owner, PrefetchFeedback fn);

  // Current first-choice victim-pool population (test/diagnostic view; the
  // pool is purged eagerly, so every entry is a live prefetched-resident
  // page).
  size_t prefetch_pool_size() const { return pool_size_; }

  // --- Eviction (driven by the reclaimer) ---

  // Victim selection: untouched prefetched-resident pages first (FIFO order
  // — the oldest unproven prefetch is the cheapest frame to reclaim), then
  // the page table's clock, bounded by evict_scan_budget when set.
  // page_table().num_pages() when none evictable within the budget (the
  // caller backs off and retries).
  ADIOS_NO_SUSPEND uint64_t SelectVictim();

  // Unmaps `vpage`. Returns true when the page was dirty: the caller must
  // write it back and call ReleaseFrame() once the WRITE completes. Clean
  // pages release their frame immediately.
  ADIOS_NO_SUSPEND bool EvictPage(uint64_t vpage);

  // Hook invoked whenever the free-frame count falls below the low
  // watermark (the proactive reclaimer's kick).
  void set_reclaim_kick(std::function<void()> kick) { reclaim_kick_ = std::move(kick); }

  // Residency-transition hooks for the invariant checker (src/check/):
  // evict_hook fires after a page unmaps, map_hook after a fetched page maps
  // (before its waiters resume). Null clears.
  using PageHook = std::function<void(uint64_t vpage)>;
  void set_evict_hook(PageHook hook) { evict_hook_ = std::move(hook); }
  void set_map_hook(PageHook hook) { map_hook_ = std::move(hook); }

 private:
  void TakeFrame(uint16_t owner);
  // Moves a batch of free-frame credits from the shared pool into `owner`'s
  // cache (no-op when the pool is empty).
  void RefillFrameCache(uint16_t owner);
  // Recalls every cached credit to the shared pool — the slow path when a
  // taker finds both its cache and the pool empty while credits idle in
  // other caches.
  void SpillFrameCaches();
  void NotifyPrefetchOutcome(uint16_t owner, bool hit);
  // Fetch-waiter chains (see fetch_waiters_): AllocWaiter takes a node off
  // the free list or grows the pool, AppendWaiter links a node at a chain's
  // tail, DetachWaiters unlinks a page's whole chain, and RunChain runs a
  // detached chain in registration order.
  struct WaiterChain;
  uint32_t AllocWaiter(FetchWaiter fn, bool early);
  void AppendWaiter(WaiterChain& chain, uint32_t n);
  uint32_t DetachWaiters(uint64_t vpage);
  void RunChain(uint32_t head, bool ok);
  void EnqueuePrefetchPool(uint64_t vpage);
  void PurgePrefetchPool(uint64_t vpage);

  Engine* engine_;
  PagingConfig paging_;
  uint64_t local_pages_;
  PageTable page_table_;
  uint64_t used_frames_ = 0;
  std::deque<std::function<void()>> frame_callbacks_;
  // Fetch waiters, without a map: each page with waiters owns a FIFO chain
  // of nodes in one pool, found through per-page head/tail indices (8 bytes
  // per page, beside the page table's 8-byte word). Freed nodes go on a free
  // list, so a warm run registers waiters without allocating; a callable
  // that fits std::function's local storage allocates nothing either.
  static constexpr uint32_t kNoWaiter = ~0u;
  struct WaiterNode {
    FetchWaiter fn;
    uint32_t next = kNoWaiter;  // Next in the page's chain or the free list.
    bool early = false;         // Eligible for chunk-level early resume.
  };
  struct WaiterChain {
    uint32_t head = kNoWaiter;
    uint32_t tail = kNoWaiter;
  };
  std::vector<WaiterChain> fetch_waiters_;  // Indexed by vpage.
  std::vector<WaiterNode> waiter_nodes_;
  uint32_t free_waiter_ = kNoWaiter;
  std::function<void()> reclaim_kick_;
  PageHook evict_hook_;
  PageHook map_hook_;
  // First-choice victim pool: prefetched pages in map order. Purged eagerly
  // on promotion/late/evict, so the pool cannot accumulate stale entries
  // under a prefetch-heavy workload. It is an intrusive doubly linked FIFO
  // threaded through per-vpage links (O(1) push, pop, rotate and random
  // erase, no allocation); the links are sized on the first enqueue, so runs
  // that never prefetch pay nothing for them.
  static constexpr uint32_t kPoolEnd = ~0u;      // No neighbour on that side.
  static constexpr uint32_t kNotPooled = ~0u - 1;  // `prev` of a page outside the pool.
  struct PoolLink {
    uint32_t prev = kNotPooled;
    uint32_t next = kPoolEnd;
  };
  std::vector<PoolLink> pool_links_;  // Indexed by vpage.
  uint32_t pool_head_ = kPoolEnd;
  uint32_t pool_tail_ = kPoolEnd;
  size_t pool_size_ = 0;
  std::vector<PrefetchFeedback> prefetch_feedback_;  // Indexed by owner.
  // Per-worker free-frame credit caches (indexed by owner) and the number of
  // credits currently parked across all of them. Invariant: used_frames_ +
  // shared_free_frames() + cached_credits_ == local_pages.
  std::vector<uint32_t> frame_cache_;
  uint64_t cached_credits_ = 0;
  // kGlobalLock sync model: simulated time at which the one lock frees.
  uint64_t lock_free_at_ = 0;
  Tracer* tracer_ = Tracer::Off();
  Stats stats_;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_MEMORY_MANAGER_H_
