#include "src/mem/memory_manager.h"

#include <utility>

namespace adios {

MemoryManager::MemoryManager(Engine* engine, const PagingConfig& paging, uint64_t total_pages,
                             uint64_t local_pages)
    : engine_(engine),
      paging_(paging),
      local_pages_(local_pages),
      page_table_(total_pages, paging.clock_shards),
      fetch_waiters_(total_pages) {
  ADIOS_CHECK(total_pages > 0);
  ADIOS_CHECK(local_pages > 0);
  ADIOS_CHECK(paging.reclaim_low_watermark >= 0.0);
  ADIOS_CHECK(paging.reclaim_high_watermark >= paging.reclaim_low_watermark);
}

void MemoryManager::TakeFrame() {
  ADIOS_CHECK(used_frames_ < local_pages_);
  ++used_frames_;
  if (BelowLowWatermark() && reclaim_kick_) {
    reclaim_kick_();
  }
}

void MemoryManager::ReleaseFrame() {
  ADIOS_CHECK(used_frames_ > 0);
  --used_frames_;
  WakeFrameWaiter();
}

void MemoryManager::WakeFrameWaiter() {
  if (!HasFreeFrame() || frame_callbacks_.empty()) {
    return;
  }
  auto resume = std::move(frame_callbacks_.front());
  frame_callbacks_.pop_front();
  resume();
}

void MemoryManager::BeginFetch(uint64_t vpage, bool prefetch, uint16_t owner) {
  TakeFrame();
  page_table_.MarkFetching(vpage, prefetch, owner);
  if (prefetch) {
    ++stats_.prefetches;
  } else {
    ++stats_.faults;
  }
}

void MemoryManager::MarkPrefetchLate(uint64_t vpage) {
  ADIOS_DCHECK(IsPrefetchedInFlight(vpage));
  const uint16_t owner = page_table_.Info(vpage).prefetch_owner;
  page_table_.ClearPrefetched(vpage);
  ++stats_.prefetch_late;
  // Late counts as stride-correct feedback: had the window been deeper the
  // page would have arrived in time, so the window should grow, not shrink.
  NotifyPrefetchOutcome(owner, /*hit=*/true);
}

void MemoryManager::set_prefetch_feedback(uint16_t owner, PrefetchFeedback fn) {
  if (prefetch_feedback_.size() <= owner) {
    prefetch_feedback_.resize(owner + 1);
  }
  prefetch_feedback_[owner] = std::move(fn);
}

void MemoryManager::NotifyPrefetchOutcome(uint16_t owner, bool hit) {
  if (owner < prefetch_feedback_.size() && prefetch_feedback_[owner]) {
    prefetch_feedback_[owner](hit);
  }
}

void MemoryManager::EnqueuePrefetchPool(uint64_t vpage) {
  if (pool_links_.empty()) {
    ADIOS_CHECK_LT(page_table_.num_pages(), uint64_t{kNotPooled});
    pool_links_.resize(page_table_.num_pages());
  }
  const auto page = static_cast<uint32_t>(vpage);
  PoolLink& link = pool_links_[page];
  ADIOS_DCHECK(link.prev == kNotPooled);
  link.prev = pool_tail_;
  link.next = kPoolEnd;
  if (pool_tail_ == kPoolEnd) {
    pool_head_ = page;
  } else {
    pool_links_[pool_tail_].next = page;
  }
  pool_tail_ = page;
  ++pool_size_;
}

void MemoryManager::PurgePrefetchPool(uint64_t vpage) {
  if (pool_links_.empty() || pool_links_[vpage].prev == kNotPooled) {
    return;
  }
  const PoolLink link = std::exchange(pool_links_[vpage], PoolLink{});
  (link.prev == kPoolEnd ? pool_head_ : pool_links_[link.prev].next) = link.next;
  (link.next == kPoolEnd ? pool_tail_ : pool_links_[link.next].prev) = link.prev;
  --pool_size_;
}

uint64_t MemoryManager::SelectVictim() {
  // Prefetched-but-untouched frames are speculative: evicting one costs a
  // possible future fault, evicting a demand-proven resident page costs a
  // certain refault. Drain the prefetch pool (oldest first) before touching
  // the clock. The pool is purged eagerly on promotion/late/evict, so every
  // entry is a live prefetched-resident page; only pins defer one.
  size_t scan = pool_size_;
  while (scan-- > 0 && pool_head_ != kPoolEnd) {
    const uint64_t vpage = pool_head_;
    const PageInfo info = page_table_.Info(vpage);
    ADIOS_DCHECK(info.prefetched && info.resident());
    if (info.pins > 0) {
      // A waiter is about to touch it (mapped but not yet resumed); it will
      // promote shortly. Rotate it to the back in case it never does.
      PurgePrefetchPool(vpage);
      EnqueuePrefetchPool(vpage);
      continue;
    }
    return vpage;
  }
  return page_table_.SelectVictim(paging_.evict_scan_budget);
}

uint32_t MemoryManager::AllocWaiter(FetchWaiter fn, bool early) {
  uint32_t n = free_waiter_;
  if (n == kNoWaiter) {
    n = static_cast<uint32_t>(waiter_nodes_.size());
    waiter_nodes_.emplace_back();
  } else {
    free_waiter_ = waiter_nodes_[n].next;
  }
  waiter_nodes_[n].fn = std::move(fn);
  waiter_nodes_[n].early = early;
  return n;
}

void MemoryManager::AppendWaiter(WaiterChain& chain, uint32_t n) {
  waiter_nodes_[n].next = kNoWaiter;
  if (chain.head == kNoWaiter) {
    chain.head = n;
  } else {
    waiter_nodes_[chain.tail].next = n;
  }
  chain.tail = n;
}

uint32_t MemoryManager::DetachWaiters(uint64_t vpage) {
  return std::exchange(fetch_waiters_[vpage], WaiterChain{}).head;
}

void MemoryManager::RunChain(uint32_t head, bool ok) {
  // Each node is freed before its callback runs, so a callback may register
  // new waiters (and grow the pool) safely; the rest of the chain is
  // detached, so no registration can reach it.
  for (uint32_t n = head; n != kNoWaiter;) {
    WaiterNode& node = waiter_nodes_[n];
    FetchWaiter fn = std::move(node.fn);
    const uint32_t next = node.next;
    node.next = free_waiter_;
    free_waiter_ = n;
    fn(ok);
    n = next;
  }
}

void MemoryManager::AddFetchWaiter(uint64_t vpage, FetchWaiter resume, bool early) {
  // A waiter on a settled page would never be woken: its request is lost.
  ADIOS_CHECK(StateOf(vpage) == PageState::kFetching);
  AppendWaiter(fetch_waiters_[vpage], AllocWaiter(std::move(resume), early));
}

void MemoryManager::ChunkReady(uint64_t vpage) {
  // MarkPartial fails (no store) when the fetch already settled — a late or
  // duplicated partial completion — or when the bit is already set.
  if (!page_table_.MarkPartial(vpage)) {
    return;
  }
  // Pin until the tail settles the fetch: an early-resumed unithread is
  // reading the chunk while the rest of the page streams, and abort/failover
  // paths must see the page as in-use.
  page_table_.Pin(vpage);
  ++stats_.chunk_partials;
  // Split the chain in place, keeping order on both sides: early-flagged
  // waiters move to a wake chain and resume now; the rest (writers, policy-
  // blocked handlers) stay registered for CompleteFetch/AbortFetch.
  WaiterChain& chain = fetch_waiters_[vpage];
  WaiterChain keep;
  WaiterChain wake;
  uint64_t woken = 0;
  for (uint32_t n = chain.head; n != kNoWaiter;) {
    const uint32_t next = waiter_nodes_[n].next;
    const bool early = waiter_nodes_[n].early;
    AppendWaiter(early ? wake : keep, n);
    woken += early ? 1 : 0;
    n = next;
  }
  chain = keep;
  stats_.chunk_early_wakes += woken;
  RunChain(wake.head, /*ok=*/true);
}

void MemoryManager::CompleteFetch(uint64_t vpage) {
  const bool was_partial = page_table_.Info(vpage).partial;
  page_table_.MarkPresent(vpage);  // Clears the partial bit.
  if (was_partial) {
    page_table_.Unpin(vpage);  // The ChunkReady pin: the tail has landed.
  }
  if (page_table_.Info(vpage).prefetched) {
    // Joined the prefetch cache: first in line for eviction until touched.
    EnqueuePrefetchPool(vpage);
  }
  if (map_hook_) {
    map_hook_(vpage);  // Unpoison before any waiter can read the page.
  }
  RunChain(DetachWaiters(vpage), /*ok=*/true);
}

void MemoryManager::AbortFetch(uint64_t vpage) {
  ADIOS_CHECK(StateOf(vpage) == PageState::kFetching);
  const PageInfo info = page_table_.Info(vpage);
  if (info.partial) {
    // Abort mid-partial (failover rerouted the fetch): drop the ChunkReady
    // pin before rolling back so neither the pin nor the bit can leak.
    page_table_.Unpin(vpage);
  }
  if (info.prefetched) {
    // The speculation never landed; charge it as waste so the window shrinks.
    ++stats_.prefetch_wasted;
    NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/false);
  }
  page_table_.MarkFetchAborted(vpage);  // Also clears the partial bit.
  ++stats_.fetch_aborts;
  const uint32_t waiters = DetachWaiters(vpage);
  // The reserved frame returns to the pool (this also wakes frame waiters).
  ReleaseFrame();
  RunChain(waiters, /*ok=*/false);
}

bool MemoryManager::EvictPage(uint64_t vpage) {
  const PageInfo info = page_table_.Info(vpage);
  ADIOS_CHECK(info.resident());
  if (info.prefetched) {
    // Evicted before any touch: the prefetch was wasted bandwidth and a
    // wasted frame; the owner's window shrinks.
    ++stats_.prefetch_wasted;
    NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/false);
    PurgePrefetchPool(vpage);
  }
  const bool dirty = info.dirty;
  page_table_.MarkRemote(vpage);
  if (evict_hook_) {
    evict_hook_(vpage);
  }
  if (dirty) {
    ++stats_.evictions_dirty;
    return true;  // Frame stays reserved until the write-back completes.
  }
  ++stats_.evictions_clean;
  ReleaseFrame();
  return false;
}

}  // namespace adios
