// Unified page table (DiLOS-style single-lookup table, §1/§3.3), rebuilt on
// packed atomic page-state words (docs/DATAPATH.md).
//
// One dense word per virtual page of the remote working set. Residency
// state, dirty/referenced/prefetched bits, pins, and the prefetch owner all
// live in a single CAS-transitioned 64-bit word (src/mem/page_state.h), so a
// fault needs exactly one lookup and a hot hit touches no shared mutable
// state. The derived residency counters are plain totals (the invariant
// checker audits them against a full walk).
//
// The public residency view stays coarse: PageState{kRemote, kFetching,
// kPresent} is what workers and the prefetcher dispatch on. The fine
// lattice (kPresent/kMarked/kEvicting split) is visible through Read() for
// the clock, the checker, and the tests.

#ifndef ADIOS_SRC_MEM_PAGE_TABLE_H_
#define ADIOS_SRC_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/mem/page_state.h"
#include "src/mem/remote_heap.h"
#include "src/mem/resident_set.h"

namespace adios {

// Coarse residency states: the dispatch alphabet of the fault pipeline.
enum class PageState : uint8_t {
  kRemote = 0,    // Only the memory node has the page.
  kFetching = 1,  // A one-sided READ is in flight; a frame is reserved.
  kPresent = 2,   // Cached in local DRAM.
};

class PageTable {
 public:
  // clock_shards == 0 keeps the legacy dense clock hand (bit-identical to
  // the seed); > 0 builds a ResidentPageSet with that many clock shards.
  explicit PageTable(uint64_t num_pages, uint32_t clock_shards = 0)
      : words_(num_pages) {
    if (clock_shards > 0) {
      resident_set_ = std::make_unique<ResidentPageSet>(num_pages, clock_shards);
    }
  }

  uint64_t num_pages() const { return words_.size(); }
  const ResidentPageSet* resident_set() const { return resident_set_.get(); }

  // Fine-lattice snapshot of one page.
  PageInfo Info(uint64_t vpage) const {
    ADIOS_DCHECK(vpage < words_.size());
    return words_[vpage].Load();
  }

  // Coarse residency: the kPresent/kMarked/kEvicting split collapses to
  // kPresent (all three hold a frame and serve local reads).
  PageState StateOf(uint64_t vpage) const {
    ADIOS_DCHECK(vpage < words_.size());
    switch (words_[vpage].state()) {
      case PageWordState::kRemote:
        return PageState::kRemote;
      case PageWordState::kFetching:
        return PageState::kFetching;
      default:
        return PageState::kPresent;
    }
  }

  // Direct word access: the concurrency tests and adios-lint fixtures drive
  // the CAS lattice through this.
  PageStateWord& word(uint64_t vpage) {
    ADIOS_DCHECK(vpage < words_.size());
    return words_[vpage];
  }

  uint64_t resident_pages() const { return resident_; }
  uint64_t fetching_pages() const { return fetching_; }
  // Prefetch-cache population, split by state (audited against a full walk
  // by the invariant checker).
  uint64_t prefetched_fetching() const { return prefetched_fetching_; }
  uint64_t prefetched_resident() const { return prefetched_resident_; }

  void MarkFetching(uint64_t vpage, bool prefetched = false, uint16_t owner = 0) {
    const bool ok = words_[vpage].TryLockForFetch(prefetched, owner);
    ADIOS_DCHECK(ok);
    (void)ok;
    ++fetching_;
    if (prefetched) {
      ++prefetched_fetching_;
    }
  }

  void MarkPresent(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    // Prefetched pages map cold (kMarked): the reference bit is earned by
    // the first demand touch, which also promotes them out of the prefetch
    // cache. Demand pages map referenced (kPresent).
    const bool ok = words_[vpage].TryMapPresent();
    ADIOS_DCHECK(ok);
    (void)ok;
    --fetching_;
    ++resident_;
    if (before.prefetched) {
      --prefetched_fetching_;
      ++prefetched_resident_;
    }
    if (resident_set_ != nullptr) {
      resident_set_->Insert(vpage);
    }
  }

  void MarkRemote(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    ADIOS_DCHECK(before.resident());
    // Two-step unmap: claim the eviction (resident -> kEvicting), then
    // commit it (kEvicting -> kRemote). Both CASes run back-to-back inside
    // this non-suspending call, so simulator fibers never observe kEvicting;
    // real-thread users drive TryMarkEvict/FinishEvict directly and may
    // suspend-free work in between.
    if (before.state != PageWordState::kEvicting) {
      const bool claimed = words_[vpage].TryClaimEvict();
      ADIOS_DCHECK(claimed);
      (void)claimed;
    }
    const bool ok = words_[vpage].FinishEvict();
    ADIOS_DCHECK(ok);
    (void)ok;
    --resident_;
    if (before.prefetched) {
      --prefetched_resident_;
    }
    if (resident_set_ != nullptr) {
      resident_set_->Remove(vpage);
    }
  }

  // Fetch abandoned after retry exhaustion: the page never mapped, so it
  // rolls back kFetching -> kRemote (a later fault may refetch it).
  void MarkFetchAborted(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    const bool ok = words_[vpage].TryAbortFetch();
    ADIOS_DCHECK(ok);
    (void)ok;
    --fetching_;
    if (before.prefetched) {
      --prefetched_fetching_;
    }
  }

  // Critical-chunk-first (docs/QOS.md): records that the faulting chunk of
  // an in-flight fetch landed. Idempotent; false when the page is not
  // kFetching (the fetch already settled) or the bit was already set (a
  // duplicated chunk completion). No derived counters change — the page is
  // still fetching.
  bool MarkPartial(uint64_t vpage) { return words_[vpage].TrySetPartial(); }

  // Leaves the prefetch cache without leaving residency: the first touch
  // (promotion) or a demand fault coalescing onto the in-flight fetch
  // (late). The page keeps its residency state; only the bit and counters
  // change.
  void ClearPrefetched(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    ADIOS_DCHECK(before.prefetched);
    const bool ok = words_[vpage].TryClearPrefetched();
    ADIOS_DCHECK(ok);
    (void)ok;
    if (before.state == PageWordState::kFetching) {
      --prefetched_fetching_;
    } else {
      ADIOS_DCHECK(before.resident());
      --prefetched_resident_;
    }
  }

  // Arms the clock bit (kMarked -> kPresent); a no-op — zero stores — when
  // the page is already referenced, which is the hot hit path.
  void SetReferenced(uint64_t vpage) { words_[vpage].TryReference(); }

  // Sets the dirty bit; a no-op without stores when already dirty.
  void SetDirty(uint64_t vpage) { words_[vpage].TrySetDirty(); }

  void Pin(uint64_t vpage) { words_[vpage].Pin(); }
  void Unpin(uint64_t vpage) { words_[vpage].Unpin(); }

  // Clock-algorithm victim selection: advances the hand, demoting referenced
  // pages (kPresent -> kMarked, the second chance), until an unreferenced
  // unpinned resident page is found. Returns num_pages() when the scan
  // budget expires without a victim — the caller backs off and retries
  // rather than stalling on an O(num_pages) sweep. budget == 0 means the
  // legacy full sweep (2x the table / 2x the resident set).
  uint64_t SelectVictim(uint64_t budget = 0) {
    if (resident_set_ != nullptr) {
      return SelectVictimSharded(budget);
    }
    const uint64_t n = words_.size();
    const uint64_t limit = budget > 0 ? budget : 2 * n;
    for (uint64_t scanned = 0; scanned < limit; ++scanned) {
      const uint64_t v = hand_;
      hand_ = (hand_ + 1) % n;
      const PageInfo info = words_[v].Load();
      if (!info.resident() || info.state == PageWordState::kEvicting ||
          info.pins > 0) {
        continue;
      }
      if (info.state == PageWordState::kPresent) {
        words_[v].TryUnreference();
        continue;
      }
      return v;
    }
    return n;
  }

  // Test-only corruption hook: forces the word's state bits to the coarse
  // state, bypassing the lattice and the derived counters (the invariant
  // checker is expected to notice).
  void CorruptStateForTest(uint64_t vpage, PageState s) {
    PageWordState w = PageWordState::kRemote;
    if (s == PageState::kFetching) {
      w = PageWordState::kFetching;
    } else if (s == PageState::kPresent) {
      w = PageWordState::kPresent;
    }
    words_[vpage].CorruptStateForTest(w);
  }

 private:
  // Sharded clock: rotate the hand shard on every call so pressure spreads
  // across the resident set. One in-sim evictor scans all shards round-robin;
  // the structure supports one hand per worker under real threads.
  uint64_t SelectVictimSharded(uint64_t budget) {
    const uint64_t n = words_.size();
    const uint64_t limit = budget > 0 ? budget : 2 * resident_set_->capacity();
    const uint32_t shard_count = resident_set_->shards();
    uint64_t victim = n;
    uint64_t scanned = 0;
    while (scanned < limit) {
      const uint32_t shard = next_clock_shard_;
      next_clock_shard_ = (next_clock_shard_ + 1) % shard_count;
      uint64_t step = resident_set_->shard_slots();
      if (step > limit - scanned) {
        step = limit - scanned;
      }
      scanned += step;
      resident_set_->ScanShard(shard, step, [&](uint64_t vpage) {
        const PageInfo info = words_[vpage].Load();
        if (!info.resident() || info.state == PageWordState::kEvicting ||
            info.pins > 0) {
          return false;
        }
        if (info.state == PageWordState::kPresent) {
          words_[vpage].TryUnreference();
          return false;
        }
        victim = vpage;
        return true;
      });
      if (victim != n) {
        return victim;
      }
    }
    return n;
  }

  std::vector<PageStateWord> words_;
  // Derived counters. Plain (non-atomic): the simulator mutates them from
  // one OS thread.
  uint64_t resident_ = 0;
  uint64_t fetching_ = 0;
  uint64_t prefetched_fetching_ = 0;
  uint64_t prefetched_resident_ = 0;
  std::unique_ptr<ResidentPageSet> resident_set_;
  uint64_t hand_ = 0;            // Legacy dense clock (clock_shards == 0).
  uint32_t next_clock_shard_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_PAGE_TABLE_H_
