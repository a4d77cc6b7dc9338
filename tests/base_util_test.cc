#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/base/fifo.h"
#include "src/base/lazy_mapping.h"
#include "src/base/stats.h"
#include "src/base/time.h"

namespace adios {
namespace {

// Growth happens with the ring wrapped (head mid-buffer), so the copy must
// unwrap it; order survives every doubling.
TEST(Fifo, KeepsOrderAcrossWrapsAndGrowth) {
  Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3 + 5 * round; ++i) {
      q.push_back(next_in++);
    }
    for (int i = 0; i < 2 + 4 * round; ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(next_in - next_out));
  while (!q.empty()) {
    ASSERT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(LazyMapping, PageAlignedZeroFilledAndMoveOnly) {
  LazyMapping a(3 * 4096 + 100);
  ASSERT_NE(a.data(), nullptr);
  EXPECT_EQ(a.size(), 3u * 4096 + 100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 4096, 0u);
  EXPECT_EQ(a.data()[0], std::byte{0});
  EXPECT_EQ(a.data()[a.size() - 1], std::byte{0});
  a.data()[5] = std::byte{7};

  LazyMapping b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data()[5], std::byte{7});

  LazyMapping c(64);
  c = std::move(b);  // Unmaps c's old mapping, takes b's.
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data()[5], std::byte{7});

  LazyMapping empty(0);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(LazyMapping, HugeMappingIsHugePageAlignedAndZeroFilled) {
  // Not a multiple of 2 MiB: the tail past the last whole huge page stays
  // usable.
  const size_t bytes = 3 * LazyMapping::kHugePageBytes + 5 * 4096;
  LazyMapping huge(bytes, LazyMapping::Pages::kHuge);
  ASSERT_NE(huge.data(), nullptr);
  EXPECT_EQ(huge.size(), bytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(huge.data()) % LazyMapping::kHugePageBytes, 0u);
  EXPECT_EQ(huge.data()[0], std::byte{0});
  EXPECT_EQ(huge.data()[bytes - 1], std::byte{0});
  huge.data()[bytes - 1] = std::byte{9};

  LazyMapping moved(std::move(huge));
  EXPECT_EQ(huge.data(), nullptr);
  EXPECT_EQ(moved.data()[bytes - 1], std::byte{9});
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(ThroughputCounter, Utilization) {
  ThroughputCounter c;
  c.AddBytes(1250);  // 10000 bits.
  // 10000 bits over 1 us at 100 Gb/s => 10000 / 100000 = 10%.
  EXPECT_NEAR(c.Utilization(1000, 100e9), 0.1, 1e-9);
}

TEST(CycleClock, RoundTripAt2GHz) {
  constexpr CycleClock clock{2000};
  EXPECT_EQ(clock.ToNanos(2000), 1000u);
  EXPECT_EQ(clock.ToNanos(40), 20u);
  EXPECT_EQ(clock.ToCycles(1000), 2000u);
  // Nonzero cycles always advance time.
  EXPECT_GE(clock.ToNanos(1), 1u);
}

TEST(CycleClock, DurationsCompose) {
  EXPECT_EQ(Microseconds(5), 5000u);
  EXPECT_EQ(Milliseconds(2), 2000000u);
  EXPECT_EQ(Seconds(1), 1000000000u);
}

}  // namespace
}  // namespace adios
