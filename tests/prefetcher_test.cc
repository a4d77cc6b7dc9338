#include "src/mem/prefetcher.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mem/memory_manager.h"
#include "src/sim/engine.h"

namespace adios {
namespace {

TEST(Prefetcher, DisabledWindowDoesNothing) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 128);
  SequentialPrefetcher pf(0);
  std::vector<uint64_t> out;
  pf.OnFault(10, &mm, &out);
  pf.OnFault(11, &mm, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, RandomFaultsDoNotPrefetch) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 128);
  SequentialPrefetcher pf(8);
  std::vector<uint64_t> out;
  pf.OnFault(10, &mm, &out);
  pf.OnFault(50, &mm, &out);
  pf.OnFault(7, &mm, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, SequentialStreakRampsWindow) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 128);
  SequentialPrefetcher pf(8);
  std::vector<uint64_t> out;
  pf.OnFault(10, &mm, &out);
  EXPECT_TRUE(out.empty());  // First fault: no streak yet.
  pf.OnFault(11, &mm, &out);
  ASSERT_EQ(out.size(), 2u);  // Streak 1 -> window 2.
  EXPECT_EQ(out[0], 12u);
  EXPECT_EQ(out[1], 13u);
  // Prefetched pages were marked fetching and consumed frames.
  EXPECT_EQ(mm.StateOf(12), PageState::kFetching);
  EXPECT_EQ(mm.stats().prefetches, 2u);
}

TEST(Prefetcher, SkipsAlreadyFetchingPages) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 128);
  SequentialPrefetcher pf(8);
  mm.BeginFetch(12);  // Someone else is fetching 12.
  std::vector<uint64_t> out;
  pf.OnFault(10, &mm, &out);
  pf.OnFault(11, &mm, &out);
  // Window covers 12..13; 12 is busy, but 13 is still worth fetching — the
  // in-flight page is skipped, not treated as a wall.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 13u);
}

TEST(Prefetcher, StopsAtFrameExhaustion) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 3);
  SequentialPrefetcher pf(8);
  mm.BeginFetch(0);
  mm.BeginFetch(1);  // 1 frame left.
  std::vector<uint64_t> out;
  pf.OnFault(10, &mm, &out);
  pf.OnFault(11, &mm, &out);
  EXPECT_EQ(out.size(), 1u);  // Only one frame available for prefetch.
}

TEST(Prefetcher, StopsAtAddressSpaceEnd) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 16, 16);
  SequentialPrefetcher pf(8);
  std::vector<uint64_t> out;
  pf.OnFault(14, &mm, &out);
  pf.OnFault(15, &mm, &out);
  EXPECT_TRUE(out.empty());  // Page 16 does not exist.
}

TEST(Prefetcher, WindowCappedAtMax) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
  SequentialPrefetcher pf(4);
  std::vector<uint64_t> out;
  uint64_t p = 100;
  pf.OnFault(p, &mm, &out);
  for (int streak = 0; streak < 10; ++streak) {
    out.clear();
    ++p;
    pf.OnFault(p, &mm, &out);
    EXPECT_LE(out.size(), 4u);
    // The pages it reported were actually transitioned.
    for (uint64_t q : out) {
      EXPECT_EQ(mm.StateOf(q), PageState::kFetching);
    }
    // Mark prefetched pages present so later faults see fresh territory...
    for (uint64_t q : out) {
      mm.CompleteFetch(q);
    }
  }
}

// --- AdaptivePrefetcher (Leap-style majority vote, docs/PREFETCH.md) ---

// Drives the detector with a fault sequence; returns the candidates of the
// final fault only.
std::vector<uint64_t> DriveFaults(AdaptivePrefetcher& pf, MemoryManager& mm,
                                  const std::vector<uint64_t>& faults) {
  std::vector<uint64_t> out;
  for (uint64_t f : faults) {
    out.clear();
    pf.OnFault(f, &mm, &out);
  }
  return out;
}

TEST(AdaptivePrefetcher, DisabledWindowDoesNothing) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 256, 128);
  AdaptivePrefetcher pf(0);
  auto out = DriveFaults(pf, mm, {10, 11, 12, 13});
  EXPECT_TRUE(out.empty());
}

TEST(AdaptivePrefetcher, ConvergesOnUnitStride) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
  AdaptivePrefetcher pf(8);
  auto out = DriveFaults(pf, mm, {10, 11, 12});
  // Two deltas of +1: majority over the smallest sub-window -> stride +1.
  // Initial window is 1, so exactly one candidate.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 13u);
  EXPECT_EQ(mm.StateOf(13), PageState::kFetching);
}

TEST(AdaptivePrefetcher, DetectsNonUnitStride) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
  AdaptivePrefetcher pf(8);
  auto out = DriveFaults(pf, mm, {100, 104, 108});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 112u);
}

TEST(AdaptivePrefetcher, DetectsNegativeStride) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
  AdaptivePrefetcher pf(8);
  auto out = DriveFaults(pf, mm, {200, 199, 198});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 197u);
}

TEST(AdaptivePrefetcher, MajorityVoteTolersatesOutliers) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 65536, 65536);
  AdaptivePrefetcher pf(8);
  // A mostly-unit-stride stream with one wild jump: deltas over the full
  // history are {1,1,1, big, 1,1,1} — the majority is still +1.
  auto out = DriveFaults(pf, mm, {10, 11, 12, 13, 5000, 5001, 5002, 5003});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 5004u);
}

TEST(AdaptivePrefetcher, RandomFaultsFindNoMajority) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 65536, 65536);
  AdaptivePrefetcher pf(8);
  auto out = DriveFaults(pf, mm, {17, 920, 3, 4411, 209, 8191, 55, 1040});
  EXPECT_TRUE(out.empty());
}

TEST(AdaptivePrefetcher, WindowGrowsOnHitsAndShrinksOnWaste) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 65536, 65536);
  AdaptivePrefetcher pf(8);
  EXPECT_EQ(pf.window(), 1u);
  pf.OnPrefetchHit();
  pf.OnPrefetchHit();
  pf.OnPrefetchHit();
  EXPECT_EQ(pf.window(), 4u);
  // Growth is capped at max_window.
  for (int i = 0; i < 10; ++i) {
    pf.OnPrefetchHit();
  }
  EXPECT_EQ(pf.window(), 8u);
  // Waste shrinks the window by one (additive decrease)...
  pf.OnPrefetchWaste();
  EXPECT_EQ(pf.window(), 7u);
  for (int i = 0; i < 6; ++i) {
    pf.OnPrefetchWaste();
  }
  EXPECT_EQ(pf.window(), 1u);
  // ...and never below 1.
  pf.OnPrefetchWaste();
  EXPECT_EQ(pf.window(), 1u);
}

TEST(AdaptivePrefetcher, DepthFollowsWindow) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 65536, 65536);
  AdaptivePrefetcher pf(8);
  pf.OnPrefetchHit();
  pf.OnPrefetchHit();
  pf.OnPrefetchHit();  // window = 4.
  auto out = DriveFaults(pf, mm, {100, 104, 108});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 112u);
  EXPECT_EQ(out[1], 116u);
  EXPECT_EQ(out[2], 120u);
  EXPECT_EQ(out[3], 124u);
}

TEST(AdaptivePrefetcher, StopsAtAddressSpaceEdges) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 64, 64);
  AdaptivePrefetcher pf(8);
  // Negative stride marching toward page 0: candidates below 0 are dropped.
  auto out = DriveFaults(pf, mm, {2, 1, 0});
  EXPECT_TRUE(out.empty());
}

TEST(AdaptivePrefetcher, DeterministicAcrossIdenticalRuns) {
  const std::vector<uint64_t> faults = {10, 14, 18, 22, 300, 304, 308, 50, 54, 58};
  std::vector<std::vector<uint64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    Engine e;
    MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
    AdaptivePrefetcher pf(8);
    std::vector<uint64_t> all;
    std::vector<uint64_t> out;
    for (uint64_t f : faults) {
      out.clear();
      pf.OnFault(f, &mm, &out);
      all.insert(all.end(), out.begin(), out.end());
    }
    runs.push_back(std::move(all));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(MakePrefetcher, FactorySelectsPolicy) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 4096, 4096);
  auto seq = MakePrefetcher(PrefetchPolicy::kSequential, 8, 0);
  auto ada = MakePrefetcher(PrefetchPolicy::kAdaptive, 8, 0);
  ASSERT_NE(seq, nullptr);
  ASSERT_NE(ada, nullptr);
  // Sequential ignores non-unit strides where adaptive locks on.
  std::vector<uint64_t> out;
  seq->OnFault(100, &mm, &out);
  seq->OnFault(104, &mm, &out);
  seq->OnFault(108, &mm, &out);
  EXPECT_TRUE(out.empty());
  ada->OnFault(200, &mm, &out);
  ada->OnFault(204, &mm, &out);
  ada->OnFault(208, &mm, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 212u);
}

}  // namespace
}  // namespace adios
