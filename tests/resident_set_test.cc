#include "src/mem/resident_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <vector>

namespace adios {
namespace {

TEST(ResidentPageSet, InsertRemoveContains) {
  ResidentPageSet set(256, /*shards=*/1);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(42));
  set.Insert(42);
  EXPECT_TRUE(set.Contains(42));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Remove(42));
  EXPECT_FALSE(set.Contains(42));
  EXPECT_FALSE(set.Remove(42));
  EXPECT_EQ(set.size(), 0u);
}

TEST(ResidentPageSet, CapacityIsPowerOfTwoAtHalfLoad) {
  ResidentPageSet set(100, 1);
  EXPECT_GE(set.capacity(), 200u);
  EXPECT_EQ(set.capacity() & (set.capacity() - 1), 0u);
}

TEST(ResidentPageSet, ShardsDivideCapacity) {
  ResidentPageSet set(1000, /*shards=*/8);
  EXPECT_EQ(set.shards(), 8u);
  EXPECT_EQ(set.shard_slots() * set.shards(), set.capacity());
  // Shard count rounds down to a power of two.
  ResidentPageSet odd(1000, 6);
  EXPECT_EQ(odd.shards(), 4u);
}

TEST(ResidentPageSet, TombstonesAreReused) {
  ResidentPageSet set(64, 1);
  for (uint64_t round = 0; round < 10; ++round) {
    for (uint64_t v = 0; v < 32; ++v) {
      set.Insert(v);
    }
    for (uint64_t v = 0; v < 32; ++v) {
      EXPECT_TRUE(set.Remove(v));
    }
  }
  // 320 inserts through a 64-page set: only tombstone reuse makes this fit.
  EXPECT_EQ(set.size(), 0u);
  set.Insert(7);
  EXPECT_TRUE(set.Contains(7));
}

TEST(ResidentPageSet, ScanShardVisitsOccupiedSlots) {
  ResidentPageSet set(128, /*shards=*/2);
  std::set<uint64_t> inserted;
  for (uint64_t v = 0; v < 40; ++v) {
    set.Insert(v);
    inserted.insert(v);
  }
  // A full sweep over both shards sees every member exactly once.
  std::set<uint64_t> seen;
  for (uint32_t s = 0; s < set.shards(); ++s) {
    set.ScanShard(s, set.shard_slots(), [&](uint64_t v) {
      EXPECT_TRUE(inserted.count(v));
      EXPECT_TRUE(seen.insert(v).second);
      return false;
    });
  }
  EXPECT_EQ(seen, inserted);
}

TEST(ResidentPageSet, ScanShardStopsWhenCallbackTakes) {
  ResidentPageSet set(64, 1);
  set.Insert(1);
  set.Insert(2);
  int visits = 0;
  const bool stopped = set.ScanShard(0, set.shard_slots(), [&](uint64_t) {
    ++visits;
    return true;  // Take the first victim.
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(visits, 1);
}

TEST(ResidentPageSet, ScanShardRespectsBudget) {
  ResidentPageSet set(64, 1);
  for (uint64_t v = 0; v < 16; ++v) {
    set.Insert(v);
  }
  int visits = 0;
  const bool stopped = set.ScanShard(0, /*budget=*/3, [&](uint64_t) {
    ++visits;
    return false;
  });
  EXPECT_FALSE(stopped);
  EXPECT_LE(visits, 3);
}

// The one-slot-at-a-time clock walk that the bitmap scan must reproduce: a
// per-shard hand advanced once per slot, visiting live slots in order and
// stopping just past the slot whose key `take` accepts.
struct ReferenceClock {
  const ResidentPageSet* set;
  std::vector<uint64_t> hands;

  explicit ReferenceClock(const ResidentPageSet* s) : set(s), hands(s->shards(), 0) {}

  template <typename Take>
  bool Scan(uint32_t shard, uint64_t budget, std::vector<uint64_t>* visits, Take take) {
    const uint64_t base = shard * set->shard_slots();
    for (uint64_t i = 0; i < budget; ++i) {
      const uint64_t off = hands[shard]++ % set->shard_slots();
      const uint64_t v = set->slot(base + off);
      if (!ResidentPageSet::Live(v)) {
        continue;
      }
      visits->push_back(v);
      if (take(v)) {
        return true;
      }
    }
    return false;
  }
};

// Differential check of ScanShard against the reference walk over many
// calls: budgets that are and are not multiples of 64, hands that wrap at
// the shard's end, stops mid-span, tombstones, and shards of exactly one
// bitmap word (whose spans wrap within that word).
TEST(ResidentPageSet, ScanShardMatchesOneSlotAtATimeWalk) {
  const uint64_t budgets[] = {1, 3, 63, 64, 65, 100, 127, 128, 129, 200, 511, 700};
  for (const uint64_t max_resident : {32ull, 300ull}) {
    for (const uint32_t shards : {1u, 2u}) {
      ResidentPageSet set(max_resident, shards);
      // Fill to ~40% of capacity, then remove every third key: tombstones.
      const uint64_t keys = set.capacity() * 2 / 5;
      for (uint64_t v = 0; v < keys; ++v) {
        set.Insert(v * 7 + 1);
      }
      for (uint64_t v = 0; v < keys; v += 3) {
        ASSERT_TRUE(set.Remove(v * 7 + 1));
      }
      ReferenceClock ref(&set);
      for (uint64_t call = 0; call < 400; ++call) {
        const uint32_t shard = static_cast<uint32_t>(call % set.shards());
        const uint64_t budget = budgets[call % std::size(budgets)];
        // Takes about one key in five, varying with the call.
        auto take = [call](uint64_t v) { return (v * 2654435761ull + call) % 5 == 0; };
        std::vector<uint64_t> want;
        const bool want_stop = ref.Scan(shard, budget, &want, take);
        std::vector<uint64_t> got;
        const bool got_stop = set.ScanShard(shard, budget, [&](uint64_t v) {
          got.push_back(v);
          return take(v);
        });
        ASSERT_EQ(got, want) << "call " << call << ", budget " << budget;
        ASSERT_EQ(got_stop, want_stop) << "call " << call;
        ASSERT_EQ(set.hand(shard), ref.hands[shard] % set.shard_slots()) << "call " << call;
        // Churn between calls: swap one key for its twin, so tombstones
        // move and slots are reused under the hands.
        const uint64_t k = (call % keys) * 7 + 1;
        const uint64_t twin = k + 1'000'000;
        if (set.Remove(k)) {
          set.Insert(twin);
        } else if (set.Remove(twin)) {
          set.Insert(k);
        } else {
          set.Insert(k);  // One of the keys removed up front.
        }
        for (uint64_t i = 0; i < set.capacity(); ++i) {
          ASSERT_EQ(set.marked(i), ResidentPageSet::Live(set.slot(i))) << "slot " << i;
        }
      }
    }
  }
}

// Two scanners of one shard, together claiming one full lap (half the
// shard's slots each): span claims keep their visits disjoint, and between
// them they see every member of the shard.
TEST(ResidentPageSet, ConcurrentScannersOfOneShardVisitDisjointSlots) {
  ResidentPageSet set(2048, /*shards=*/2);
  std::set<uint64_t> live;
  for (uint64_t v = 0; v < 1500; ++v) {
    set.Insert(v);
  }
  for (uint64_t i = 0; i < set.shard_slots(); ++i) {
    const uint64_t v = set.slot(i);  // Shard 0 is the first shard_slots slots.
    if (ResidentPageSet::Live(v)) {
      live.insert(v);
    }
  }
  std::vector<uint64_t> seen[2];
  std::thread scanners[2];
  for (int t = 0; t < 2; ++t) {
    scanners[t] = std::thread([&set, &seen, t] {
      set.ScanShard(0, set.shard_slots() / 2, [&](uint64_t v) {
        seen[t].push_back(v);
        return false;
      });
    });
  }
  for (std::thread& th : scanners) {
    th.join();
  }
  std::map<uint64_t, int> visits;
  for (const std::vector<uint64_t>& s : seen) {
    for (uint64_t v : s) {
      ++visits[v];
    }
  }
  EXPECT_EQ(visits.size(), live.size());
  for (const auto& [v, count] : visits) {
    EXPECT_EQ(count, 1) << "key " << v << " visited by both scanners";
    EXPECT_TRUE(live.count(v)) << "key " << v << " is not in shard 0";
  }
  EXPECT_EQ(set.hand(0), 0u);  // Exactly one lap claimed.
}

// Real-thread hammer over insert/remove/clock-scan: each thread owns a
// disjoint key range (the map/evict protocol guarantees single-writer per
// page), while every thread also drives a clock scan on its own shard.
// Runs under the TSan leg for race coverage.
TEST(ResidentPageSet, ConcurrentInsertRemoveClockHammer) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 512;
  constexpr int kRounds = 20;
  ResidentPageSet set(kThreads * kKeysPerThread, /*shards=*/kThreads);
  std::atomic<uint64_t> scanned_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &scanned_total, t] {
      const uint64_t base = static_cast<uint64_t>(t) * kKeysPerThread;
      const uint32_t shard = static_cast<uint32_t>(t) % set.shards();
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t i = 0; i < kKeysPerThread; ++i) {
          set.Insert(base + i);
        }
        uint64_t seen = 0;
        set.ScanShard(shard, set.shard_slots(), [&](uint64_t) {
          ++seen;
          return false;
        });
        scanned_total.fetch_add(seen, std::memory_order_relaxed);
        // Leave the last round's keys resident so the final state is known.
        if (round + 1 == kRounds) {
          break;
        }
        for (uint64_t i = 0; i < kKeysPerThread; ++i) {
          ASSERT_TRUE(set.Remove(base + i));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(set.size(), kThreads * kKeysPerThread);
  for (uint64_t t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kKeysPerThread; ++i) {
      EXPECT_TRUE(set.Contains(t * kKeysPerThread + i));
    }
  }
  EXPECT_GT(scanned_total.load(), 0u);
  // The occupancy bitmap survived the races: a full sweep of every shard
  // sees each live key exactly once, and the bits mark exactly the live
  // slots.
  std::map<uint64_t, int> visits;
  for (uint32_t s = 0; s < set.shards(); ++s) {
    set.ScanShard(s, set.shard_slots(), [&](uint64_t v) {
      ++visits[v];
      return false;
    });
  }
  EXPECT_EQ(visits.size(), kThreads * kKeysPerThread);
  for (const auto& [v, count] : visits) {
    EXPECT_LT(v, kThreads * kKeysPerThread);
    EXPECT_EQ(count, 1) << "key " << v;
  }
  for (uint64_t i = 0; i < set.capacity(); ++i) {
    EXPECT_EQ(set.marked(i), ResidentPageSet::Live(set.slot(i))) << "slot " << i;
  }
}

}  // namespace
}  // namespace adios
