#include "src/mem/remote_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace adios {
namespace {

TEST(RemoteRegion, ReadWriteRoundTrip) {
  RemoteRegion region(16 * kPageSize);
  region.WriteObject<uint64_t>(100, 0xdeadbeefull);
  EXPECT_EQ(region.ReadObject<uint64_t>(100), 0xdeadbeefull);
  struct Pair {
    uint32_t a;
    uint32_t b;
  };
  region.WriteObject(200, Pair{7, 9});
  const Pair p = region.ReadObject<Pair>(200);
  EXPECT_EQ(p.a, 7u);
  EXPECT_EQ(p.b, 9u);
}

TEST(RemoteRegion, FreshRegionReadsAsZero) {
  // Apps rely on untouched remote memory reading as zero (the backing
  // mapping starts as kernel zero pages).
  RemoteRegion region(64 * kPageSize);
  for (uint64_t page = 0; page < region.num_pages(); page += 7) {
    EXPECT_EQ(region.ReadObject<uint64_t>(PageStart(page) + 8), 0u);
  }
}

TEST(RemoteRegion, BytesInterface) {
  RemoteRegion region(4 * kPageSize);
  const char src[] = "adios to busy-waiting";
  region.WriteBytes(kPageSize - 4, src, sizeof(src));  // Page-spanning.
  char dst[sizeof(src)];
  region.ReadBytes(kPageSize - 4, dst, sizeof(src));
  EXPECT_STREQ(dst, src);
}

TEST(RemoteRegion, PageArithmetic) {
  EXPECT_EQ(PageOf(0), 0u);
  EXPECT_EQ(PageOf(4095), 0u);
  EXPECT_EQ(PageOf(4096), 1u);
  EXPECT_EQ(PageStart(3), 3u * 4096);
  RemoteRegion region(8 * kPageSize);
  EXPECT_EQ(region.num_pages(), 8u);
}

TEST(RemoteRegion, WriteStampsStartOnAttachAndCoverEveryWritePath) {
  RemoteRegion region(4 * kPageSize);
  region.WriteObject<uint32_t>(PageStart(1), 7);  // Unwatched: no stamp.
  EXPECT_EQ(region.WriteStampSum(0, region.size()), 0u);

  region.StartWriteStamps();
  region.WriteObject<uint32_t>(PageStart(1) + 8, 9);
  EXPECT_EQ(region.WriteStampSum(PageStart(1), kPageSize), 1u);
  EXPECT_EQ(region.WriteStampSum(PageStart(0), kPageSize), 0u);

  // A write straddling pages 2 and 3 stamps both.
  const char bytes[16] = "straddles pages";
  region.WriteBytes(PageStart(3) - 8, bytes, sizeof(bytes));
  EXPECT_EQ(region.WriteStampSum(PageStart(2), kPageSize), 1u);
  EXPECT_EQ(region.WriteStampSum(PageStart(3), kPageSize), 1u);

  region.MutablePage(0)[5] = std::byte{1};
  EXPECT_EQ(region.WriteStampSum(PageStart(0), kPageSize), 1u);
  EXPECT_EQ(region.WriteStampSum(0, region.size()), 4u);

  // A second start keeps the running counters.
  region.StartWriteStamps();
  EXPECT_EQ(region.WriteStampSum(0, region.size()), 4u);
}

// Records each first-write notice with the first byte of the page as it was
// when the notice came.
class RecordingWatcher : public FirstWriteWatcher {
 public:
  explicit RecordingWatcher(const RemoteRegion* region) : region_(region) {}
  void OnFirstWrite(uint64_t page) override {
    notices.emplace_back(page, region_->data()[PageStart(page)]);
  }
  std::vector<std::pair<uint64_t, std::byte>> notices;

 private:
  const RemoteRegion* region_;
};

TEST(RemoteRegion, FirstWriteHookFiresOncePerPageBeforeTheBytesChange) {
  RemoteRegion region(4 * kPageSize);
  for (uint64_t p = 0; p < 4; ++p) {
    region.WriteObject<uint8_t>(PageStart(p), static_cast<uint8_t>(p + 1));  // Set-up bytes.
  }
  RecordingWatcher watcher(&region);
  region.StartWriteStamps(&watcher);

  region.WriteObject<uint8_t>(PageStart(1), 0xaa);
  region.WriteObject<uint8_t>(PageStart(1), 0xbb);  // Second write: no notice.
  const uint8_t two[2] = {0xcc, 0xdd};
  region.WriteBytes(PageStart(3) - 1, two, sizeof(two));  // Straddles pages 2 and 3.
  region.MutablePage(0)[0] = std::byte{0xee};
  region.MutablePage(0)[0] = std::byte{0xef};

  const std::vector<std::pair<uint64_t, std::byte>> want = {
      {1, std::byte{2}}, {2, std::byte{3}}, {3, std::byte{4}}, {0, std::byte{1}}};
  EXPECT_EQ(watcher.notices, want);

  region.StopWatching(&watcher);
  region.StartWriteStamps();  // Stamps keep counting without a watcher.
  EXPECT_EQ(region.WriteStampSum(0, region.size()), 6u);
}

TEST(RemoteRegion, BackingIsHugePageAligned) {
  RemoteRegion region(600 * kPageSize);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(region.data()) % LazyMapping::kHugePageBytes, 0u);
  region.WriteObject<uint64_t>(region.size() - 8, 5);
  EXPECT_EQ(region.ReadObject<uint64_t>(region.size() - 8), 5u);
}

TEST(RemoteHeap, BumpAllocationAligned) {
  RemoteRegion region(16 * kPageSize);
  RemoteHeap heap(&region);
  const RemoteAddr a = heap.Alloc(10, 8);
  const RemoteAddr b = heap.Alloc(1, 64);
  const RemoteAddr c = heap.Alloc(100, 8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(c, b);
  EXPECT_GE(heap.used_bytes(), 111u);
}

TEST(RemoteHeap, PageAlignedAllocations) {
  RemoteRegion region(16 * kPageSize);
  RemoteHeap heap(&region);
  heap.Alloc(100);
  const RemoteAddr pages = heap.AllocPages(3);
  EXPECT_EQ(pages % kPageSize, 0u);
  EXPECT_EQ(PageOf(pages + 3 * kPageSize - 1) - PageOf(pages), 2u);
}

TEST(RemoteHeap, DistinctAllocationsDoNotOverlap) {
  RemoteRegion region(64 * kPageSize);
  RemoteHeap heap(&region);
  std::vector<std::pair<RemoteAddr, size_t>> allocs;
  for (size_t sz : {8u, 100u, 4096u, 17u, 4000u, 64u}) {
    allocs.push_back({heap.Alloc(sz, 16), sz});
  }
  for (size_t i = 1; i < allocs.size(); ++i) {
    EXPECT_GE(allocs[i].first, allocs[i - 1].first + allocs[i - 1].second);
  }
}

TEST(PlacementMap, SingleCopyNeverGoesOutOfSync) {
  PlacementMap one(8, 1, 1);
  one.MarkOutOfSync(3, 0);
  EXPECT_TRUE(one.InSync(3, 0));
  EXPECT_EQ(one.divergent_slots(), 0u);
  EXPECT_EQ(one.divergence_events(), 0u);

  PlacementMap two(8, 2, 2);  // A second copy: the same loss diverges.
  two.MarkOutOfSync(3, 0);
  EXPECT_FALSE(two.InSync(3, 0));
  EXPECT_EQ(two.divergence_events(), 1u);
}

}  // namespace
}  // namespace adios
