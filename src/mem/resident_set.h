// CAS-based open-addressing set of resident vpages with a sharded clock
// (docs/DATAPATH.md).
//
// The vmcache idiom: a power-of-two slot array at <=50% load factor, linear
// probing, atomic insert/remove, and clock hands that walk the slot array
// itself instead of the full vpage range — so an eviction scan's cost tracks
// the resident-set size, not the address-space size, and each shard can be
// scanned by a different worker without touching the others' cache lines.
// An occupancy bitmap (one bit per slot) lets a scan skip empty and
// tombstoned slots 64 at a time.
//
// Protocol notes:
//  - Insert requires the key to be absent (pages are inserted exactly once
//    per map and removed on evict), so probing may claim the first free or
//    tombstoned slot without a duplicate scan.
//  - Remove tombstones the slot; tombstones are reclaimed by later inserts.
//  - A slot's bit is set after the CAS that fills it and cleared after the
//    CAS that empties it. Remove then re-reads the slot and sets the bit
//    again if a concurrent Insert already reused it, so a set bit may
//    briefly sit over a dead slot but a live key never lacks its bit.
//  - ScanShard visits occupied slots only; a concurrent Remove of a visited
//    slot is benign (the callback revalidates against the page-state word).

#ifndef ADIOS_SRC_MEM_RESIDENT_SET_H_
#define ADIOS_SRC_MEM_RESIDENT_SET_H_

#include <atomic>
#include <bit>
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
    // Value-initialized: every bit clear.
    bits_ = std::make_unique<std::atomic<uint64_t>[]>(capacity_ / 64);
    hands_ = std::make_unique<Hand[]>(shard_count_);
  }

  uint64_t capacity() const { return capacity_; }
  uint32_t shards() const { return shard_count_; }
  uint64_t shard_slots() const { return shard_slots_; }
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  // Whether a slot value holds a key rather than kEmpty or kTombstone.
  static bool Live(uint64_t slot_value) {
    return slot_value != kEmpty && slot_value != kTombstone;
  }
  // Observers for the invariant checker and tests: a slot's raw content,
  // whether its occupancy bit is set, and a shard hand's slot offset.
  uint64_t slot(uint64_t i) const { return slots_[i].load(std::memory_order_acquire); }
  bool marked(uint64_t i) const {
    return (bits_[i / 64].load(std::memory_order_acquire) >> (i % 64)) & 1;
  }
  uint64_t hand(uint32_t shard) const {
    return hands_[shard].pos.load(std::memory_order_relaxed) & (shard_slots_ - 1);
  }

  void Insert(uint64_t vpage) {
    ADIOS_DCHECK(vpage < kTombstone);
    uint64_t pos = Hash(vpage) & mask_;
    for (;;) {
      uint64_t cur = slots_[pos].load(std::memory_order_acquire);
      if (!Live(cur)) {
        if (slots_[pos].compare_exchange_strong(cur, vpage,
                                                std::memory_order_acq_rel)) {
          bits_[pos / 64].fetch_or(Bit(pos), std::memory_order_acq_rel);
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
          std::atomic<uint64_t>& word = bits_[pos / 64];
          word.fetch_and(~Bit(pos), std::memory_order_acq_rel);
          // An Insert that reused the slot between the CAS and the clear may
          // have set the bit first; its acq_rel fetch_or then happens-before
          // this load, which sees its key.
          if (Live(slots_[pos].load(std::memory_order_acquire))) {
            word.fetch_or(Bit(pos), std::memory_order_acq_rel);
          }
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
  // fn(vpage) for each occupied one in slot order. fn returns true to stop
  // the scan (a victim was taken); the hand then rests just past the
  // victim's slot. Returns true if fn stopped the scan.
  //
  // The hand is claimed one span of <=64 slots per fetch_add, so concurrent
  // scanners of one shard visit disjoint slots. A scanner that stops mid-span
  // hands the unvisited tail back with one CAS, which fails harmlessly if
  // another scanner has claimed past it since. A lone scanner therefore
  // leaves the hand exactly where a one-slot-at-a-time walk would.
  template <typename Fn>
  bool ScanShard(uint32_t shard, uint64_t budget, Fn&& fn) {
    ADIOS_DCHECK(shard < shard_count_);
    const uint64_t base = static_cast<uint64_t>(shard) * shard_slots_;
    Hand& hand = hands_[shard];
    const uint64_t shard_mask = shard_slots_ - 1;
    while (budget > 0) {
      const uint64_t len = budget < 64 ? budget : 64;
      budget -= len;
      // The hand is a position counter and publishes no data: relaxed.
      const uint64_t start = hand.pos.fetch_add(len, std::memory_order_relaxed);
      for (uint64_t live = SpanBits(base, start & shard_mask, len); live != 0;
           live &= live - 1) {
        const uint64_t j = static_cast<uint64_t>(std::countr_zero(live));
        const uint64_t cur =
            slots_[base + ((start + j) & shard_mask)].load(std::memory_order_acquire);
        if (!Live(cur)) {
          continue;  // Removed since the bitmap was read (real threads only).
        }
        if (fn(cur)) {
          uint64_t claimed_end = start + len;
          hand.pos.compare_exchange_strong(claimed_end, start + j + 1,
                                           std::memory_order_relaxed);
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct alignas(64) Hand {
    std::atomic<uint64_t> pos{0};
  };

  static uint64_t Bit(uint64_t slot) { return 1ull << (slot % 64); }

  // Occupancy bits of the len (1..64) slots at shard offsets off, off+1, ...
  // of the shard starting at slot `base`, as bit 0, 1, ...; wraps at the
  // shard's end. Shards are whole bitmap words (shard_slots_ is a multiple
  // of 64), so the span touches at most two words of this shard.
  uint64_t SpanBits(uint64_t base, uint64_t off, uint64_t len) const {
    const uint64_t shard_words = shard_slots_ / 64;
    const uint64_t w = off / 64;
    const uint64_t b = off % 64;
    uint64_t bits = bits_[base / 64 + w].load(std::memory_order_acquire) >> b;
    if (b != 0 && len > 64 - b) {
      const uint64_t next = base / 64 + ((w + 1) & (shard_words - 1));
      bits |= bits_[next].load(std::memory_order_acquire) << (64 - b);
    }
    return len < 64 ? bits & (Bit(len) - 1) : bits;
  }

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
  std::unique_ptr<std::atomic<uint64_t>[]> bits_;  // Occupancy, one bit per slot.
  std::unique_ptr<Hand[]> hands_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_RESIDENT_SET_H_
