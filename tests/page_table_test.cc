#include "src/mem/page_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace adios {
namespace {

TEST(PageTable, InitialStateAllRemote) {
  PageTable pt(16);
  EXPECT_EQ(pt.num_pages(), 16u);
  EXPECT_EQ(pt.resident_pages(), 0u);
  for (uint64_t p = 0; p < 16; ++p) {
    EXPECT_EQ(pt.StateOf(p), PageState::kRemote);
  }
}

TEST(PageTable, FetchLifecycle) {
  PageTable pt(8);
  pt.MarkFetching(3);
  EXPECT_EQ(pt.StateOf(3), PageState::kFetching);
  EXPECT_EQ(pt.fetching_pages(), 1u);
  pt.MarkPresent(3);
  EXPECT_EQ(pt.StateOf(3), PageState::kPresent);
  EXPECT_TRUE(pt.Info(3).referenced());
  EXPECT_EQ(pt.resident_pages(), 1u);
  EXPECT_EQ(pt.fetching_pages(), 0u);
  pt.MarkRemote(3);
  EXPECT_EQ(pt.StateOf(3), PageState::kRemote);
  EXPECT_EQ(pt.resident_pages(), 0u);
}

TEST(PageTable, VictimSelectionSkipsNonResident) {
  PageTable pt(8);
  pt.MarkFetching(2);
  EXPECT_EQ(pt.SelectVictim(), pt.num_pages());  // Nothing evictable.
  pt.MarkPresent(2);
  // Freshly mapped pages are referenced: the first clock pass clears the
  // bit, the second evicts.
  EXPECT_EQ(pt.SelectVictim(), 2u);
}

TEST(PageTable, ClockGivesReferencedPagesASecondChance) {
  PageTable pt(4);
  for (uint64_t p = 0; p < 4; ++p) {
    pt.MarkFetching(p);
    pt.MarkPresent(p);
  }
  // All referenced. First victim: hand sweeps clearing bits, then returns 0.
  EXPECT_EQ(pt.SelectVictim(), 0u);
  pt.MarkRemote(0);
  // Re-reference page 1; next victim should be 2 (hand position), since 1
  // gets its second chance.
  pt.SetReferenced(1);
  EXPECT_EQ(pt.SelectVictim(), 2u);
  pt.MarkRemote(2);
  EXPECT_EQ(pt.SelectVictim(), 3u);
  pt.MarkRemote(3);
  // Page 1's bit was cleared during the sweep; it is eventually selected.
  EXPECT_EQ(pt.SelectVictim(), 1u);
  pt.MarkRemote(1);
  EXPECT_EQ(pt.SelectVictim(), pt.num_pages());
}

TEST(PageTable, DirtyBitPreservedUntilRemap) {
  PageTable pt(2);
  pt.MarkFetching(0);
  pt.MarkPresent(0);
  pt.SetDirty(0);
  EXPECT_TRUE(pt.Info(0).dirty);
  pt.MarkRemote(0);
  EXPECT_FALSE(pt.Info(0).dirty);  // Cleared on unmap.
  pt.MarkFetching(0);
  pt.MarkPresent(0);
  EXPECT_FALSE(pt.Info(0).dirty);  // Fresh mapping is clean.
}

TEST(PageTable, EvictScanBudgetReturnsRetrySignal) {
  PageTable pt(64);
  // One resident-but-referenced page far from the hand: a bounded scan must
  // give up with the retry signal instead of sweeping the whole table.
  pt.MarkFetching(60);
  pt.MarkPresent(60);
  pt.Pin(60);
  EXPECT_EQ(pt.SelectVictim(/*budget=*/8), pt.num_pages());
  // Unbounded scan still finds nothing (the only resident page is pinned).
  pt.Unpin(60);
  // With budget covering the page, two bounded calls resolve it: the first
  // demotes the reference bit, a later one takes the victim.
  EXPECT_EQ(pt.SelectVictim(/*budget=*/64), pt.num_pages());  // Second chance.
  EXPECT_EQ(pt.SelectVictim(/*budget=*/64), 60u);
}

TEST(PageTable, ShardedClockFindsVictims) {
  PageTable pt(256, /*clock_shards=*/4);
  EXPECT_NE(pt.resident_set(), nullptr);
  for (uint64_t p = 0; p < 32; ++p) {
    pt.MarkFetching(p);
    pt.MarkPresent(p);
  }
  EXPECT_EQ(pt.resident_pages(), 32u);
  // Every mapped page is evictable exactly once (order is hash-dependent).
  std::vector<bool> evicted(32, false);
  for (int i = 0; i < 32; ++i) {
    const uint64_t v = pt.SelectVictim();
    ASSERT_LT(v, 32u);
    EXPECT_FALSE(evicted[v]);
    evicted[v] = true;
    pt.MarkRemote(v);
  }
  EXPECT_EQ(pt.resident_pages(), 0u);
  EXPECT_EQ(pt.SelectVictim(), pt.num_pages());
}

TEST(PageTable, ShardedClockRespectsPinsAndBudget) {
  PageTable pt(128, /*clock_shards=*/2);
  pt.MarkFetching(5);
  pt.MarkPresent(5);
  pt.Pin(5);
  // Demote the reference bit so the pin is the only protection.
  EXPECT_EQ(pt.SelectVictim(), pt.num_pages());
  EXPECT_EQ(pt.SelectVictim(/*budget=*/4), pt.num_pages());
  pt.Unpin(5);
  EXPECT_EQ(pt.SelectVictim(), 5u);
}

}  // namespace
}  // namespace adios
