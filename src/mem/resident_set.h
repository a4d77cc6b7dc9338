// CAS-based open-addressing set of resident vpages with a sharded clock
// (docs/DATAPATH.md).
//
// The vmcache idiom: a power-of-two slot array at <=50% load factor, linear
// probing, atomic insert/remove, and clock hands that walk the slot array
// itself instead of the full vpage range — so an eviction scan's cost tracks
// the resident-set size, not the address-space size, and each shard can be
// scanned by a different worker without touching the others' cache lines.
//
// Protocol notes:
//  - Insert requires the key to be absent (pages are inserted exactly once
//    per map and removed on evict), so probing may claim the first free or
//    tombstoned slot without a duplicate scan.
//  - Remove tombstones the slot; tombstones are reclaimed by later inserts.
//  - ScanShard visits occupied slots only; a concurrent Remove of a visited
//    slot is benign (the callback revalidates against the page-state word).

#ifndef ADIOS_SRC_MEM_RESIDENT_SET_H_
#define ADIOS_SRC_MEM_RESIDENT_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/base/check.h"

namespace adios {

class ResidentPageSet {
 public:
  static constexpr uint64_t kEmpty = ~0ull;
  static constexpr uint64_t kTombstone = ~0ull - 1;

  // Capacity is the smallest power of two holding max_resident pages at
  // <=50% load; shards is rounded down to a power of two dividing capacity.
  ResidentPageSet(uint64_t max_resident, uint32_t shards) {
    uint64_t cap = 64;
    while (cap < max_resident * 2) {
      cap *= 2;
    }
    capacity_ = cap;
    mask_ = cap - 1;
    uint64_t s = 1;
    while (s * 2 <= shards && s * 2 <= cap / 64) {
      s *= 2;
    }
    shard_count_ = static_cast<uint32_t>(s);
    shard_slots_ = capacity_ / shard_count_;
    // Both powers of two, so shard_slots_ is too: ScanShard wraps each hand
    // with a mask, not a modulo.
    ADIOS_CHECK((capacity_ & mask_) == 0);
    ADIOS_CHECK((shard_count_ & (shard_count_ - 1)) == 0);
    slots_ = std::make_unique<std::atomic<uint64_t>[]>(capacity_);
    for (uint64_t i = 0; i < capacity_; ++i) {
      slots_[i].store(kEmpty, std::memory_order_relaxed);
    }
    hands_ = std::make_unique<Hand[]>(shard_count_);
  }

  uint64_t capacity() const { return capacity_; }
  uint32_t shards() const { return shard_count_; }
  uint64_t shard_slots() const { return shard_slots_; }
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  void Insert(uint64_t vpage) {
    ADIOS_DCHECK(vpage < kTombstone);
    uint64_t pos = Hash(vpage) & mask_;
    for (;;) {
      uint64_t cur = slots_[pos].load(std::memory_order_acquire);
      if (cur == kEmpty || cur == kTombstone) {
        if (slots_[pos].compare_exchange_strong(cur, vpage,
                                                std::memory_order_acq_rel)) {
          size_.fetch_add(1, std::memory_order_acq_rel);
          return;
        }
        continue;  // Lost the slot; re-examine it.
      }
      pos = (pos + 1) & mask_;
    }
  }

  bool Remove(uint64_t vpage) {
    uint64_t pos = Hash(vpage) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      uint64_t cur = slots_[pos].load(std::memory_order_acquire);
      if (cur == kEmpty) {
        return false;
      }
      if (cur == vpage) {
        if (slots_[pos].compare_exchange_strong(cur, kTombstone,
                                                std::memory_order_acq_rel)) {
          size_.fetch_sub(1, std::memory_order_acq_rel);
          return true;
        }
        continue;  // Raced; re-examine the same slot.
      }
      pos = (pos + 1) & mask_;
    }
    return false;
  }

  bool Contains(uint64_t vpage) const {
    uint64_t pos = Hash(vpage) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      uint64_t cur = slots_[pos].load(std::memory_order_acquire);
      if (cur == kEmpty) {
        return false;
      }
      if (cur == vpage) {
        return true;
      }
      pos = (pos + 1) & mask_;
    }
    return false;
  }

  // Advances shard's clock hand over up to `budget` slots, invoking
  // fn(vpage) for each occupied one. fn returns true to stop the scan (a
  // victim was taken). Returns true if fn stopped the scan.
  template <typename Fn>
  bool ScanShard(uint32_t shard, uint64_t budget, Fn&& fn) {
    ADIOS_DCHECK(shard < shard_count_);
    const uint64_t base = static_cast<uint64_t>(shard) * shard_slots_;
    Hand& hand = hands_[shard];
    const uint64_t shard_mask = shard_slots_ - 1;
    for (uint64_t i = 0; i < budget; ++i) {
      // The hand is a position counter and publishes no data: relaxed.
      const uint64_t off =
          hand.pos.fetch_add(1, std::memory_order_relaxed) & shard_mask;
      const uint64_t cur = slots_[base + off].load(std::memory_order_acquire);
      if (cur == kEmpty || cur == kTombstone) {
        continue;
      }
      if (fn(cur)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct alignas(64) Hand {
    std::atomic<uint64_t> pos{0};
  };

  // Stafford mix13: avalanches dense vpage ranges across the slot array.
  static uint64_t Hash(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  uint64_t capacity_ = 0;
  uint64_t mask_ = 0;
  uint32_t shard_count_ = 1;
  uint64_t shard_slots_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  std::unique_ptr<Hand[]> hands_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_RESIDENT_SET_H_
