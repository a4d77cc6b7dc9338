// Universal-stack edge cases: minimum-size stacks, canary/overflow
// detection, double-finish detection, pool audits, the lazily committed
// arena, and the GuardedStack primitive (src/check/stack_guard.h).

#include "src/unithread/universal_stack.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/stack_guard.h"
#include "src/unithread/context.h"

namespace adios {
namespace {

// --- GuardedStack primitive ---

TEST(GuardedStack, AllocationIsAlignedAndGuarded) {
  GuardedStack stack(4096, /*paint=*/true);
  ASSERT_TRUE(stack.valid());
  EXPECT_EQ(stack.size(), 4096u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(stack.data()) % 16, 0u);
  EXPECT_TRUE(stack.CanaryIntact());
  EXPECT_EQ(stack.HighWaterMark(), 0u);  // Untouched since painting.
}

TEST(GuardedStack, HighWaterMarkTracksDeepestUse) {
  GuardedStack stack(4096, /*paint=*/true);
  // A descending stack uses the *top* of the region first.
  std::memset(stack.data() + 4096 - 512, 0xFF, 512);
  EXPECT_EQ(stack.HighWaterMark(), 512u);
  std::memset(stack.data() + 4096 - 1024, 0xFF, 1024);
  EXPECT_EQ(stack.HighWaterMark(), 1024u);
}

TEST(GuardedStack, OverflowBelowUsableRegionTripsCanary) {
  GuardedStack stack(4096);
  ASSERT_TRUE(stack.CanaryIntact());
  stack.data()[-1] = std::byte{0xCC};  // One byte past the overflow edge.
  EXPECT_FALSE(stack.CanaryIntact());
}

TEST(GuardedStack, MoveTransfersOwnership) {
  GuardedStack a(1024);
  std::byte* data = a.data();
  GuardedStack b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), data);
  EXPECT_TRUE(b.CanaryIntact());
}

TEST(StackGuardFreeFunctions, CanaryWriteAndVerify) {
  alignas(16) std::byte strip[kStackCanaryBytes];
  WriteStackCanary(strip);
  EXPECT_TRUE(StackCanaryIntact(strip));
  strip[kStackCanaryBytes / 2] = std::byte{0};
  EXPECT_FALSE(StackCanaryIntact(strip));
}

// --- Minimum-size universal stacks ---

// The smallest buffer the pool accepts: 16-aligned and strictly larger than
// mtu + context + canary + 512 bytes of stack.
UnithreadPool::Options MinimalOptions() {
  UnithreadPool::Options opts;
  opts.count = 2;
  opts.mtu = 64;
  const size_t floor = opts.mtu + sizeof(UnithreadContext) + kStackCanaryBytes + 512;
  opts.buffer_size = (floor + 16) & ~static_cast<size_t>(15);
  return opts;
}

TEST(UniversalStack, MinimumSizeBufferHasUsableStack) {
  UnithreadPool pool(MinimalOptions());
  UnithreadBuffer buf = pool.Acquire();
  ASSERT_TRUE(buf.valid());
  EXPECT_GE(buf.stack_size(), 512u);
  EXPECT_EQ(buf.stack_size() % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.stack_low()) % 16, 0u);
  EXPECT_TRUE(StackCanaryIntact(buf.canary()));
  pool.Release(buf);
}

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
// Redzones (ASan) and instrumented frames (TSan) inflate stack use, so only
// the plain build runs real code on the ~512-byte minimum stack.
void TinyEntry(void* arg) { *static_cast<int*>(arg) = 7; }

TEST(UniversalStack, EntryRunsOnMinimumSizeStack) {
  UnithreadPool pool(MinimalOptions());
  UnithreadBuffer buf = pool.Acquire();
  UnithreadContext parent;
  int result = 0;
  buf.ResetContext(&TinyEntry, &result, &parent);
  AdiosContextSwitch(&parent, buf.context());
  EXPECT_EQ(result, 7);
  EXPECT_TRUE(StackCanaryIntact(buf.canary()));
  pool.Release(buf);
}
#endif

// --- Overflow detection ---

struct OverflowRig {
  UnithreadBuffer* buf;
  UnithreadContext parent;
};

// Simulates a stack overflow from *inside* the affected unithread: code
// running on the universal stack writes below stack_low(), exactly where a
// descending stack grows when it exhausts its region.
void EntryOverflowsIntoCanary(void* arg) {
  auto* rig = static_cast<OverflowRig*>(arg);
  std::memset(rig->buf->canary(), 0xEE, 8);
}

TEST(UniversalStack, OverflowFromRunningCodeTripsCanary) {
  UnithreadPool::Options opts;
  opts.count = 2;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  UnithreadBuffer buf = pool.Acquire();
  OverflowRig rig{&buf, {}};
  buf.ResetContext(&EntryOverflowsIntoCanary, &rig, &rig.parent);
  AdiosContextSwitch(&rig.parent, buf.context());

  EXPECT_FALSE(StackCanaryIntact(buf.canary()));
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 1u);  // Only the one buffer handed out.
  EXPECT_EQ(audit.canary_violations, 1u);
  EXPECT_TRUE(audit.free_list_ok);

  // Repair so the pool can verify it on release.
  WriteStackCanary(buf.canary());
  pool.Release(buf);
  EXPECT_EQ(pool.Audit().canary_violations, 0u);
}

TEST(UniversalStackDeathTest, ReleaseAbortsOnTrampledCanary) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool::Options opts;
        opts.count = 1;
        opts.buffer_size = 8192;
        opts.mtu = 1536;
        UnithreadPool pool(opts);
        UnithreadBuffer buf = pool.Acquire();
        buf.canary()[0] = std::byte{0xCC};
        pool.Release(buf);
      },
      "ADIOS_CHECK failed");
}

// --- Double-finish detection ---

void EntryReturnsImmediately(void*) {}

TEST(UniversalStackDeathTest, ResumingFinishedContextAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool::Options opts;
        opts.count = 1;
        opts.buffer_size = 16384;
        opts.mtu = 1536;
        UnithreadPool pool(opts);
        UnithreadBuffer buf = pool.Acquire();
        UnithreadContext parent;
        buf.ResetContext(&EntryReturnsImmediately, nullptr, &parent);
        AdiosContextSwitch(&parent, buf.context());  // Runs to completion.
        // The unithread already finished; switching into it again must be
        // caught before the switch corrupts the dead stack.
        AdiosContextSwitch(&parent, buf.context());
      },
      "finished");
}

// --- Pool audit ---

void EntryBurnsStack(void* arg) {
  volatile char local[3000];
  local[0] = 1;
  local[2999] = 2;
  *static_cast<int*>(arg) = local[0] + local[2999];
}

TEST(UniversalStack, AuditRecoversHighWaterMarkFromPaintedStacks) {
  UnithreadPool::Options opts;
  opts.count = 4;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  opts.paint_stacks = true;
  UnithreadPool pool(opts);
  EXPECT_EQ(pool.Audit().max_high_water, 0u);  // Nothing has run yet.

  UnithreadBuffer buf = pool.Acquire();
  UnithreadContext parent;
  int result = 0;
  buf.ResetContext(&EntryBurnsStack, &result, &parent);
  AdiosContextSwitch(&parent, buf.context());
  EXPECT_EQ(result, 3);

  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_GE(audit.max_high_water, 3000u);
  EXPECT_LE(audit.max_high_water, buf.stack_size());
  EXPECT_EQ(audit.canary_violations, 0u);
  pool.Release(buf);
}

// --- Lazily committed arena ---

UnithreadPool::Options SmallPool(size_t count) {
  UnithreadPool::Options opts;
  opts.count = count;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  return opts;
}

TEST(LazyArena, BuffersArePreparedInIndexOrderAsAPrefix) {
  UnithreadPool pool(SmallPool(8));
  EXPECT_EQ(pool.Audit().buffers_checked, 0u);
  UnithreadBuffer a = pool.Acquire();
  UnithreadBuffer b = pool.Acquire();
  EXPECT_EQ(a.context()->id, 0u);
  EXPECT_EQ(b.context()->id, 1u);
  // LIFO reuse hands back the released buffer, not a fresh one.
  pool.Release(a);
  UnithreadBuffer c = pool.Acquire();
  EXPECT_EQ(c.context()->id, 0u);
  EXPECT_TRUE(StackCanaryIntact(c.canary()));
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 2u);
  EXPECT_TRUE(audit.free_list_ok);
  pool.Release(b);
  pool.Release(c);
}

TEST(LazyArena, OverflowOfTheNthAcquiredBufferTripsItsCanary) {
  UnithreadPool pool(SmallPool(16));
  std::vector<UnithreadBuffer> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(pool.Acquire());
  }
  UnithreadBuffer& last = held.back();
  OverflowRig rig{&last, {}};
  last.ResetContext(&EntryOverflowsIntoCanary, &rig, &rig.parent);
  AdiosContextSwitch(&rig.parent, last.context());

  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 5u);
  EXPECT_EQ(audit.canary_violations, 1u);
  EXPECT_TRUE(audit.free_list_ok);
  EXPECT_FALSE(StackCanaryIntact(last.canary()));

  WriteStackCanary(last.canary());
  for (UnithreadBuffer& buf : held) {
    pool.Release(buf);
  }
  EXPECT_EQ(pool.Audit().canary_violations, 0u);
}

TEST(LazyArena, PaintedBufferAcquiredButNotRunHasZeroHighWater) {
  UnithreadPool::Options opts = SmallPool(8);
  opts.paint_stacks = true;
  UnithreadPool pool(opts);
  UnithreadBuffer buf = pool.Acquire();
  EXPECT_EQ(StackHighWaterMark(buf.stack_low(), buf.stack_size()), 0u);
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 1u);
  EXPECT_EQ(audit.max_high_water, 0u);
  pool.Release(buf);
}

TEST(LazyArena, AuditFlagsADoubleRelease) {
  UnithreadPool pool(SmallPool(4));
  UnithreadBuffer a = pool.Acquire();
  UnithreadBuffer held = pool.Acquire();  // Keeps the free list below capacity.
  pool.Release(a);
  EXPECT_TRUE(pool.Audit().free_list_ok);
  // The second release puts index 0 on the free list twice: two future
  // Acquires would share one universal stack.
  pool.Release(a);
  EXPECT_FALSE(pool.Audit().free_list_ok);
  EXPECT_TRUE(held.valid());
}

TEST(LazyArenaDeathTest, ReleasingANeverAcquiredBufferAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool pool(SmallPool(4));
        UnithreadBuffer a = pool.Acquire();
        (void)a;
        pool.Release(pool.FromIndex(2));  // Above the watermark.
      },
      "ADIOS_CHECK failed");
}

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// Sanitizer runtimes keep their own shadow memory and allocator caches, so
// resident-set deltas are only meaningful in the plain build.
TEST(LazyArena, FreshFullSizePoolCommitsAlmostNothing) {
  UnithreadPool::Options opts;
  opts.count = 8192;
  opts.buffer_size = 32 * 1024;
  opts.mtu = 1536;
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  UnithreadPool pool(opts);
  const size_t after = ResidentBytes();
  EXPECT_EQ(pool.MemoryFootprint(), size_t{256} << 20);
  EXPECT_LT(after - before, size_t{8} << 20) << "a 256 MiB pool committed its arena";
}
#endif

}  // namespace
}  // namespace adios
