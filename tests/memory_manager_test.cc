#include "src/mem/memory_manager.h"

#include <gtest/gtest.h>

namespace adios {
namespace {

PagingConfig SmallOptions() {
  PagingConfig o;
  o.reclaim_low_watermark = 0.25;   // 4 of 16 frames.
  o.reclaim_high_watermark = 0.50;  // 8 of 16 frames.
  return o;
}

TEST(MemoryManager, FrameAccounting) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  EXPECT_EQ(mm.free_frames(), 16u);
  mm.BeginFetch(0);
  mm.BeginFetch(1);
  EXPECT_EQ(mm.free_frames(), 14u);
  EXPECT_EQ(mm.StateOf(0), PageState::kFetching);
  mm.CompleteFetch(0);
  EXPECT_EQ(mm.StateOf(0), PageState::kPresent);
  EXPECT_EQ(mm.free_frames(), 14u);  // Frames stay used while resident.
  EXPECT_FALSE(mm.EvictPage(0));     // Clean -> frame released immediately.
  EXPECT_EQ(mm.free_frames(), 15u);
}

TEST(MemoryManager, DirtyEvictionDefersFrameRelease) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(5);
  mm.CompleteFetch(5);
  mm.Touch(5, /*write=*/true);
  EXPECT_TRUE(mm.EvictPage(5));  // Dirty: caller owns write-back.
  EXPECT_EQ(mm.free_frames(), 15u);
  mm.ReleaseFrame();  // Write-back completed.
  EXPECT_EQ(mm.free_frames(), 16u);
  EXPECT_EQ(mm.stats().evictions_dirty, 1u);
}

TEST(MemoryManager, WaitersRunInOrderOnCompleteFetch) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  std::vector<int> ran;
  mm.BeginFetch(3);
  mm.AddFetchWaiter(3, [&](bool ok) {
    EXPECT_TRUE(ok);
    ran.push_back(1);
  });
  mm.AddFetchWaiter(3, [&](bool ok) {
    EXPECT_TRUE(ok);
    ran.push_back(2);
  });
  ++mm.stats().shared_faults;
  mm.CompleteFetch(3);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  // Waiters cleared: completing another fetch never re-runs them.
  mm.BeginFetch(4);
  mm.CompleteFetch(4);
  EXPECT_EQ(ran.size(), 2u);
}

TEST(MemoryManager, AbortFetchReleasesFrameAndFailsWaiters) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(7);
  EXPECT_EQ(mm.free_frames(), 15u);
  std::vector<bool> outcomes;
  mm.AddFetchWaiter(7, [&](bool ok) { outcomes.push_back(ok); });
  mm.AddFetchWaiter(7, [&](bool ok) { outcomes.push_back(ok); });
  mm.AbortFetch(7);
  EXPECT_EQ(mm.StateOf(7), PageState::kRemote);  // Back to square one.
  EXPECT_EQ(mm.free_frames(), 16u);              // Reserved frame returned.
  EXPECT_EQ(outcomes, (std::vector<bool>{false, false}));
  EXPECT_EQ(mm.stats().fetch_aborts, 1u);
  // The page can be fetched again afterwards.
  mm.BeginFetch(7);
  mm.CompleteFetch(7);
  EXPECT_EQ(mm.StateOf(7), PageState::kPresent);
}

TEST(MemoryManager, ReclaimKickFiresBelowLowWatermark) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  int kicks = 0;
  mm.set_reclaim_kick([&] { ++kicks; });
  // 16 frames, low watermark 25% = 4 frames free.
  for (uint64_t p = 0; p < 12; ++p) {
    mm.BeginFetch(p);
  }
  EXPECT_EQ(mm.free_frames(), 4u);
  EXPECT_EQ(kicks, 0);
  mm.BeginFetch(12);
  EXPECT_EQ(kicks, 1);  // Crossed below 4.
  mm.BeginFetch(13);
  EXPECT_EQ(kicks, 2);  // Kicks on every allocation below the mark.
}

TEST(MemoryManager, WatermarkPredicates) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  EXPECT_FALSE(mm.BelowLowWatermark());
  EXPECT_TRUE(mm.AboveHighWatermark());
  for (uint64_t p = 0; p < 13; ++p) {
    mm.BeginFetch(p);
  }
  EXPECT_TRUE(mm.BelowLowWatermark());
  EXPECT_FALSE(mm.AboveHighWatermark());
}

TEST(MemoryManager, FrameWaitersNotifiedOnRelease) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 8, 2);
  mm.BeginFetch(0);
  mm.BeginFetch(1);
  EXPECT_FALSE(mm.HasFreeFrame());
  bool resumed = false;
  e.SpawnFiber("waiter", [&] {
    UnithreadContext* self = e.current_context();
    mm.AddFrameWaiter([&e, self] { e.ResumeLater(self); });
    e.SuspendCurrent();
    resumed = true;
  });
  e.Schedule(10, [&] {
    mm.CompleteFetch(0);
    mm.EvictPage(0);  // Clean: releases a frame, wakes the waiter.
  });
  e.Run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(mm.HasFreeFrame());
}

TEST(MemoryManager, StatsCountFaultKinds) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(1, /*prefetch=*/false);
  mm.BeginFetch(2, /*prefetch=*/true);
  EXPECT_EQ(mm.stats().faults, 1u);
  EXPECT_EQ(mm.stats().prefetches, 1u);
}

// --- Prefetch cache (docs/PREFETCH.md) ---

TEST(MemoryManager, PrefetchedUntouchedIsFirstChoiceVictim) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  // A demand page touched recently and a prefetched page nobody touched.
  mm.BeginFetch(1);
  mm.CompleteFetch(1);
  mm.Touch(1, /*write=*/false);
  mm.BeginFetch(2, /*prefetch=*/true);
  mm.CompleteFetch(2);
  mm.BeginFetch(3, /*prefetch=*/true);
  mm.CompleteFetch(3);
  // Untouched prefetches go first, in FIFO order — before any clock scan
  // would reach the demand page.
  EXPECT_EQ(mm.SelectVictim(), 2u);
  mm.EvictPage(2);
  EXPECT_EQ(mm.SelectVictim(), 3u);
  mm.EvictPage(3);
  // Cache empty: falls back to the clock hand.
  EXPECT_EQ(mm.SelectVictim(), 1u);
  // Both evictions before a touch count as waste.
  EXPECT_EQ(mm.stats().prefetch_wasted, 2u);
}

TEST(MemoryManager, TouchPromotesOutOfPrefetchCache) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(2, /*prefetch=*/true);
  mm.CompleteFetch(2);
  EXPECT_TRUE(mm.IsPrefetchedResident(2));
  mm.Touch(2, /*write=*/false);
  EXPECT_FALSE(mm.IsPrefetchedResident(2));
  EXPECT_EQ(mm.stats().prefetch_hits, 1u);
  // Promoted: no longer in the first-choice pool. A younger untouched
  // prefetch is victimized ahead of it even though 2 entered the cache
  // first, and evicting the promoted page later is not waste.
  mm.BeginFetch(3, /*prefetch=*/true);
  mm.CompleteFetch(3);
  EXPECT_EQ(mm.SelectVictim(), 3u);
  mm.EvictPage(3);
  mm.EvictPage(2);
  EXPECT_EQ(mm.stats().prefetch_wasted, 1u);  // Only page 3.
}

TEST(MemoryManager, PinnedPrefetchedPageSkippedBySelectVictim) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(2, /*prefetch=*/true);
  mm.CompleteFetch(2);
  mm.BeginFetch(3, /*prefetch=*/true);
  mm.CompleteFetch(3);
  mm.Pin(2);
  EXPECT_EQ(mm.SelectVictim(), 3u);  // The pinned entry is passed over.
  mm.Unpin(2);
  mm.EvictPage(3);
  EXPECT_EQ(mm.SelectVictim(), 2u);  // Unpinned: eligible again.
}

TEST(MemoryManager, MarkPrefetchLateResolvesInFlightPrefetch) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(7, /*prefetch=*/true);
  EXPECT_TRUE(mm.IsPrefetchedInFlight(7));
  mm.MarkPrefetchLate(7);
  EXPECT_FALSE(mm.IsPrefetchedInFlight(7));
  EXPECT_EQ(mm.stats().prefetch_late, 1u);
  // Resolved late: completion maps it as a normal page, not a cache entry.
  mm.CompleteFetch(7);
  EXPECT_FALSE(mm.IsPrefetchedResident(7));
  EXPECT_EQ(mm.stats().prefetch_hits, 0u);
}

TEST(MemoryManager, AbortedPrefetchCountsWaste) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(4, /*prefetch=*/true);
  mm.AbortFetch(4);
  EXPECT_EQ(mm.stats().prefetch_wasted, 1u);
  EXPECT_EQ(mm.StateOf(4), PageState::kRemote);
  EXPECT_EQ(mm.page_table().prefetched_fetching(), 0u);
  EXPECT_EQ(mm.page_table().prefetched_resident(), 0u);
}

// --- Free-frame credit caches (docs/DATAPATH.md) ---

TEST(MemoryManager, FrameCacheRefillsInBatches) {
  Engine e;
  auto o = SmallOptions();
  o.frame_cache_size = 4;
  MemoryManager mm(&e, o, 64, 16);
  mm.BeginFetch(0, /*prefetch=*/false, /*owner=*/0);
  // First allocation pulls a whole batch: one credit consumed, three parked.
  EXPECT_EQ(mm.stats().frame_refills, 1u);
  EXPECT_EQ(mm.frame_cache_credits(0), 3u);
  EXPECT_EQ(mm.cached_frame_credits(), 3u);
  EXPECT_EQ(mm.shared_free_frames(), 12u);
  EXPECT_EQ(mm.free_frames(), 15u);  // Parked credits still count as free.
  for (uint64_t p = 1; p < 4; ++p) {
    mm.BeginFetch(p, /*prefetch=*/false, /*owner=*/0);
  }
  EXPECT_EQ(mm.stats().frame_refills, 1u);  // Served from the cache.
  EXPECT_EQ(mm.frame_cache_credits(0), 0u);
  mm.BeginFetch(4, /*prefetch=*/false, /*owner=*/0);
  EXPECT_EQ(mm.stats().frame_refills, 2u);  // Cache drained: next batch.
}

TEST(MemoryManager, FrameCachesArePerOwner) {
  Engine e;
  auto o = SmallOptions();
  o.frame_cache_size = 2;
  MemoryManager mm(&e, o, 64, 16);
  mm.BeginFetch(0, /*prefetch=*/false, /*owner=*/0);
  mm.BeginFetch(1, /*prefetch=*/false, /*owner=*/1);
  EXPECT_EQ(mm.stats().frame_refills, 2u);
  EXPECT_EQ(mm.frame_cache_credits(0), 1u);
  EXPECT_EQ(mm.frame_cache_credits(1), 1u);
  // Owner 0 spends its own parked credit, never owner 1's.
  mm.BeginFetch(2, /*prefetch=*/false, /*owner=*/0);
  EXPECT_EQ(mm.frame_cache_credits(0), 0u);
  EXPECT_EQ(mm.frame_cache_credits(1), 1u);
  EXPECT_EQ(mm.stats().frame_refills, 2u);
}

TEST(MemoryManager, FrameCreditConservation) {
  Engine e;
  auto o = SmallOptions();
  o.frame_cache_size = 4;
  MemoryManager mm(&e, o, 64, 16);
  auto conserved = [&] {
    return mm.used_frames() + mm.shared_free_frames() +
               mm.cached_frame_credits() ==
           mm.local_pages();
  };
  EXPECT_TRUE(conserved());
  for (uint64_t p = 0; p < 10; ++p) {
    mm.BeginFetch(p, /*prefetch=*/false,
                  /*owner=*/static_cast<uint16_t>(p % 3));
    EXPECT_TRUE(conserved());
    mm.CompleteFetch(p);
  }
  for (uint64_t p = 0; p < 10; ++p) {
    mm.EvictPage(p);  // Clean: frame returns to the shared pool.
    EXPECT_TRUE(conserved());
  }
  EXPECT_EQ(mm.free_frames(), 16u);  // Nothing leaked.
  EXPECT_GT(mm.cached_frame_credits(), 0u);  // Batches stay parked.
}

TEST(MemoryManager, BounceFrameSpillsIdleCredits) {
  Engine e;
  auto o = SmallOptions();
  o.frame_cache_size = 8;
  MemoryManager mm(&e, o, /*total_pages=*/64, /*local_pages=*/8);
  mm.BeginFetch(0, /*prefetch=*/false, /*owner=*/0);
  // The whole pool is now one parked batch: the shared side is dry even
  // though seven frames are free.
  EXPECT_EQ(mm.shared_free_frames(), 0u);
  EXPECT_EQ(mm.cached_frame_credits(), 7u);
  EXPECT_TRUE(mm.HasFreeFrame());
  // Bounce frames bypass the caches; a dry shared pool forces a recall.
  EXPECT_TRUE(mm.TryReserveBounceFrame());
  EXPECT_EQ(mm.stats().frame_spills, 1u);
  EXPECT_EQ(mm.cached_frame_credits(), 0u);
  EXPECT_EQ(mm.frame_cache_credits(0), 0u);
  EXPECT_EQ(mm.shared_free_frames(), 6u);
  mm.ReleaseBounceFrame();
  EXPECT_EQ(mm.shared_free_frames(), 7u);
}

TEST(MemoryManager, FrameRefillEmitsSystemTraceEvent) {
  Engine e;
  auto o = SmallOptions();
  o.frame_cache_size = 4;
  MemoryManager mm(&e, o, 64, 16);
  Tracer tracer;
  tracer.Enable(16);
  mm.set_tracer(&tracer);
  mm.BeginFetch(0, /*prefetch=*/false, /*owner=*/0);
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].event, TraceEvent::kFrameRefill);
  EXPECT_EQ(tracer.records()[0].request_id, 0u);  // System-level event.
  EXPECT_EQ(tracer.records()[0].arg, 4u);         // Batch size.
}

// --- Eager prefetch-pool purge ---

TEST(MemoryManager, EagerPurgeKeepsPoolInSyncWithPromotions) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  mm.BeginFetch(2, /*prefetch=*/true);
  mm.CompleteFetch(2);
  mm.BeginFetch(3, /*prefetch=*/true);
  mm.CompleteFetch(3);
  EXPECT_EQ(mm.prefetch_pool_size(), 2u);
  // Promotion removes the entry immediately — no stale tombstone lingers
  // for SelectVictim to skip over later.
  mm.Touch(2, /*write=*/false);
  EXPECT_EQ(mm.prefetch_pool_size(), 1u);
  mm.EvictPage(3);
  EXPECT_EQ(mm.prefetch_pool_size(), 0u);
  // The promoted page's eviction is a pool no-op, and a fresh prefetch of
  // the same vpage re-enters the pool exactly once.
  mm.EvictPage(2);
  EXPECT_EQ(mm.prefetch_pool_size(), 0u);
  mm.BeginFetch(2, /*prefetch=*/true);
  mm.CompleteFetch(2);
  EXPECT_EQ(mm.prefetch_pool_size(), 1u);
  EXPECT_EQ(mm.SelectVictim(), 2u);
}

TEST(MemoryManager, PrefetchPoolKeepsFifoOrderAcrossPinRotationAndPurge) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  for (uint64_t p = 1; p <= 5; ++p) {
    mm.BeginFetch(p, /*prefetch=*/true);
    mm.CompleteFetch(p);
  }
  mm.Pin(1);
  mm.Pin(2);
  mm.Touch(3, /*write=*/false);  // Promoted out of the middle: 1 2 4 5.
  EXPECT_EQ(mm.prefetch_pool_size(), 4u);
  // Pinned pages rotate to the back in order: 4 5 1 2.
  EXPECT_EQ(mm.SelectVictim(), 4u);
  mm.EvictPage(4);
  mm.Unpin(1);
  EXPECT_EQ(mm.SelectVictim(), 5u);
  mm.EvictPage(5);
  EXPECT_EQ(mm.SelectVictim(), 1u);
  mm.EvictPage(1);
  EXPECT_EQ(mm.prefetch_pool_size(), 1u);
  // Only pinned page 2 is left: the pool yields to the clock, which skips
  // it too, and the order survives the full rotation.
  EXPECT_NE(mm.SelectVictim(), 2u);
  EXPECT_EQ(mm.prefetch_pool_size(), 1u);
  mm.Unpin(2);
  EXPECT_EQ(mm.SelectVictim(), 2u);
}

TEST(MemoryManager, PrefetchFeedbackRoutesToOwner) {
  Engine e;
  MemoryManager mm(&e, SmallOptions(), 64, 16);
  int hits0 = 0, wastes0 = 0, hits1 = 0, wastes1 = 0;
  mm.set_prefetch_feedback(0, [&](bool hit) { hit ? ++hits0 : ++wastes0; });
  mm.set_prefetch_feedback(1, [&](bool hit) { hit ? ++hits1 : ++wastes1; });
  mm.BeginFetch(2, /*prefetch=*/true, /*owner=*/0);
  mm.CompleteFetch(2);
  mm.Touch(2, /*write=*/false);  // Hit -> owner 0.
  mm.BeginFetch(3, /*prefetch=*/true, /*owner=*/1);
  mm.CompleteFetch(3);
  mm.EvictPage(3);  // Waste -> owner 1.
  mm.BeginFetch(4, /*prefetch=*/true, /*owner=*/1);
  mm.MarkPrefetchLate(4);  // Late counts as stride-correct -> hit for owner 1.
  EXPECT_EQ(hits0, 1);
  EXPECT_EQ(wastes0, 0);
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(wastes1, 1);
}

}  // namespace
}  // namespace adios
