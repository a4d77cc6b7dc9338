// Remote memory backing store and allocator.
//
// The memory node's DRAM is modeled as a host-resident byte array
// (RemoteRegion): application data structures genuinely live there and are
// genuinely read back during request handling, so access patterns are real.
// Whether a page is cached in the compute node's local DRAM is tracked
// separately by the PageTable — residency affects *timing*, never data.
// The array is a LazyMapping on huge pages (LazyMapping::Pages::kHuge): it
// starts as kernel zero pages, and host memory is committed only for the
// parts the application actually writes. Apps write their tables end to end
// during setup, so where transparent huge pages are enabled each first touch
// commits a 2 MiB block rather than 4 KiB, and setup takes 512x fewer page
// faults; a partly used 2 MiB block costs host memory for all of it.
//
// RemoteHeap is a bump allocator handing out RemoteAddr offsets; apps build
// their tables/indexes in it during setup (setup writes bypass fault timing).
//
// Write stamps: a watched region keeps one counter per 4 KiB page, and every
// mutating path — WriteObject, WriteBytes and MutablePage — bumps the
// counters of the pages it touches. There is no other way to write the
// bytes, so a page whose stamps have not moved holds the bytes it held when
// they were last read. The integrity layer's digest memo relies on this: it
// re-hashes a page only when a stamp covering it moved (docs/INTEGRITY.md).
// Stamping starts when a watcher calls StartWriteStamps (the integrity layer,
// in its constructor) and never stops; until then, and on regions nobody
// watches, a write costs one predictable branch and no store.
//
// First-write hook: the region tells its one FirstWriteWatcher when a 4 KiB
// page's stamp is about to go 0 -> 1, once per page, before the write changes
// any byte (WriteObject and WriteBytes stamp before their memcpy, MutablePage
// before it returns the pointer). A page whose stamp is still 0 therefore
// holds exactly the bytes it held when stamping started, i.e. what setup
// wrote; the integrity layer hashes a page only at that moment, or on demand,
// instead of hashing every page when it is built.

#ifndef ADIOS_SRC_MEM_REMOTE_HEAP_H_
#define ADIOS_SRC_MEM_REMOTE_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/lazy_mapping.h"

namespace adios {

// Byte offset into the remote region. 0 is a valid address.
using RemoteAddr = uint64_t;

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;

inline uint64_t PageOf(RemoteAddr addr) { return addr >> kPageShift; }
inline RemoteAddr PageStart(uint64_t vpage) { return vpage << kPageShift; }

// Receives a RemoteRegion's first-write notices (see the header comment).
class FirstWriteWatcher {
 public:
  // 4 KiB page `page` is about to be written for the first time since
  // stamping started; its bytes are still unchanged.
  virtual void OnFirstWrite(uint64_t page) = 0;

 protected:
  ~FirstWriteWatcher() = default;
};

class RemoteRegion {
 public:
  explicit RemoteRegion(size_t bytes) : data_(bytes, LazyMapping::Pages::kHuge) {
    ADIOS_CHECK(bytes % kPageSize == 0);
  }

  // Non-copyable: the region is the single ground-truth array.
  RemoteRegion(const RemoteRegion&) = delete;
  RemoteRegion& operator=(const RemoteRegion&) = delete;

  // Read-only view of the bytes. Writes go through WriteObject, WriteBytes
  // or MutablePage, so none can skip the write stamps.
  const std::byte* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  uint64_t num_pages() const { return data_.size() >> kPageShift; }

  // Writable view of 4 KiB page `page`, stamped as written. Write through
  // the pointer before the page's digest is next read: a later write would
  // reach the bytes unstamped.
  std::byte* MutablePage(uint64_t page) {
    ADIOS_CHECK_LT(page, num_pages());
    Stamp(PageStart(page), kPageSize);
    return data_.data() + PageStart(page);
  }

  // Starts the write stamps (all zero). Idempotent: stamps an earlier call
  // started keep counting. A non-null `watcher` becomes the region's one
  // first-write watcher; it must call StopWatching before it goes away.
  void StartWriteStamps(FirstWriteWatcher* watcher = nullptr) {
    if (stamps_ == nullptr) {
      stamps_ = std::make_unique<uint64_t[]>(num_pages());
    }
    if (watcher != nullptr) {
      ADIOS_CHECK(watcher_ == nullptr);  // One watcher per region.
      watcher_ = watcher;
    }
  }

  // Detaches `watcher`, the current watcher; the stamps keep counting.
  void StopWatching(const FirstWriteWatcher* watcher) {
    ADIOS_CHECK(watcher_ == watcher);
    watcher_ = nullptr;
  }

  // Sum of the write stamps of the 4 KiB pages overlapping [addr, addr +
  // len). Stamps only grow, so the sum moves iff one of those pages was
  // written. 0 before StartWriteStamps.
  uint64_t WriteStampSum(RemoteAddr addr, size_t len) const {
    if (stamps_ == nullptr || len == 0) {
      return 0;
    }
    uint64_t sum = 0;
    for (uint64_t p = PageOf(addr); p <= PageOf(addr + len - 1); ++p) {
      sum += stamps_[p];
    }
    return sum;
  }

  // Bounds are hard CHECKs (with operand printing), not DCHECKs: a bad
  // RemoteAddr in a release build must abort, not silently overrun the
  // backing array and corrupt unrelated app state.
  template <typename T>
  void WriteObject(RemoteAddr addr, const T& value) {
    ADIOS_CHECK_LE(addr + sizeof(T), size());
    Stamp(addr, sizeof(T));
    std::memcpy(data_.data() + addr, &value, sizeof(T));
  }

  template <typename T>
  T ReadObject(RemoteAddr addr) const {
    ADIOS_CHECK_LE(addr + sizeof(T), size());
    T value;
    std::memcpy(&value, data_.data() + addr, sizeof(T));
    return value;
  }

  void WriteBytes(RemoteAddr addr, const void* src, size_t len) {
    ADIOS_CHECK_LE(addr + len, size());
    Stamp(addr, len);
    std::memcpy(data_.data() + addr, src, len);
  }

  void ReadBytes(RemoteAddr addr, void* dst, size_t len) const {
    ADIOS_CHECK_LE(addr + len, size());
    std::memcpy(dst, data_.data() + addr, len);
  }

 private:
  void Stamp(RemoteAddr addr, size_t len) {
    if (stamps_ == nullptr || len == 0) {
      return;
    }
    for (uint64_t p = PageOf(addr); p <= PageOf(addr + len - 1); ++p) {
      if (stamps_[p] == 0 && watcher_ != nullptr) {
        watcher_->OnFirstWrite(p);
      }
      ++stamps_[p];
    }
  }

  LazyMapping data_;
  // Per-4-KiB-page write counters; null until StartWriteStamps.
  std::unique_ptr<uint64_t[]> stamps_;
  FirstWriteWatcher* watcher_ = nullptr;
};

class RemoteHeap {
 public:
  explicit RemoteHeap(RemoteRegion* region) : region_(region) {}

  RemoteRegion* region() { return region_; }

  // Allocates `bytes` with the given alignment; aborts when out of space
  // (workload sizing is static, so exhaustion is a configuration bug).
  RemoteAddr Alloc(size_t bytes, size_t align = 8) {
    ADIOS_CHECK(align > 0 && (align & (align - 1)) == 0);
    RemoteAddr addr = (next_ + align - 1) & ~(static_cast<RemoteAddr>(align) - 1);
    ADIOS_CHECK(addr + bytes <= region_->size());
    next_ = addr + bytes;
    return addr;
  }

  // Page-aligned allocation, common for app tables.
  RemoteAddr AllocPages(uint64_t pages) { return Alloc(pages * kPageSize, kPageSize); }

  uint64_t used_bytes() const { return next_; }

 private:
  RemoteRegion* region_;
  RemoteAddr next_ = 0;
};

// Deterministic page -> replica-set placement for a replicated fabric, plus
// per-replica sync state. Replica slot k of vpage lives on node
// (vpage + k) % num_nodes — slot 0 is the primary — so placement needs no
// stored table, survives restarts identically, and spreads primaries evenly.
//
// A single memory node is the one-replica case, PlacementMap(pages, 1, 1).
//
// Sync tracking: each placed replica is in-sync or out-of-sync (a bit per
// slot). A replica diverges when a dirty write-back to it is skipped (node
// dead) or exhausts its retries; it re-syncs when a later write-back or a
// re-silver copy lands. Readers must only fetch from in-sync replicas.
// Data is never forked: RemoteRegion stays the single ground-truth byte
// array (replication affects timing and availability, not contents), so
// "divergence" is purely the accounting the re-silver pass works off.
//
// One-copy rule: with one replica per page, nothing ever goes out of sync.
// No second copy exists to re-silver from, so divergence would be a state
// nothing can leave; the loss is counted where it happens instead, as a
// write-back abort or an unrepairable integrity detection.
class PlacementMap {
 public:
  PlacementMap(uint64_t num_pages, uint32_t num_nodes, uint32_t replicas)
      : num_nodes_(num_nodes), replicas_(replicas) {
    ADIOS_CHECK(num_nodes >= 1);
    ADIOS_CHECK_LE(1u, replicas);
    ADIOS_CHECK_LE(replicas, num_nodes);
    ADIOS_CHECK_LE(replicas, 8u);  // Sync state is a uint8_t bitmask.
    in_sync_.assign(num_pages, FullMask());
    divergence_by_node_.assign(num_nodes, 0);
  }

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t replicas() const { return replicas_; }
  uint64_t num_pages() const { return in_sync_.size(); }

  // Every fetch asks where to read, so each lookup costs at most one
  // division: slot k sits k nodes past the primary, wrapping once at most.
  uint32_t Primary(uint64_t vpage) const { return static_cast<uint32_t>(vpage % num_nodes_); }
  uint32_t ReplicaNode(uint64_t vpage, uint32_t slot) const {
    ADIOS_DCHECK(slot < replicas_);
    const uint32_t node = Primary(vpage) + slot;
    return node < num_nodes_ ? node : node - num_nodes_;
  }

  // Slot index of `node` in vpage's replica set, or -1 if it hosts no copy.
  int SlotOf(uint64_t vpage, uint32_t node) const {
    const uint32_t primary = Primary(vpage);
    const uint32_t slot = node >= primary ? node - primary : node + num_nodes_ - primary;
    return slot < replicas_ ? static_cast<int>(slot) : -1;
  }

  bool SlotInSync(uint64_t vpage, uint32_t slot) const { return (in_sync_[vpage] >> slot) & 1u; }
  bool InSync(uint64_t vpage, uint32_t node) const {
    const int slot = SlotOf(vpage, node);
    return slot >= 0 && SlotInSync(vpage, static_cast<uint32_t>(slot));
  }

  // No-op with one replica per page (the one-copy rule above).
  void MarkOutOfSync(uint64_t vpage, uint32_t node) {
    if (replicas_ == 1) {
      return;
    }
    const int slot = SlotOf(vpage, node);
    if (slot < 0 || (in_sync_[vpage] & (1u << slot)) == 0) {
      return;
    }
    in_sync_[vpage] = static_cast<uint8_t>(in_sync_[vpage] & ~(1u << slot));
    ++divergent_slots_;
    ++divergence_events_;
    ++divergence_by_node_[node];
  }

  void MarkInSync(uint64_t vpage, uint32_t node) {
    const int slot = SlotOf(vpage, node);
    if (slot < 0 || (in_sync_[vpage] & (1u << slot)) != 0) {
      return;
    }
    in_sync_[vpage] = static_cast<uint8_t>(in_sync_[vpage] | (1u << slot));
    ADIOS_DCHECK(divergent_slots_ > 0);
    --divergent_slots_;
  }

  // Appends every vpage whose replica on `node` is out of sync (re-silver
  // work list). O(num_pages) — called once per node recovery, off the fast
  // path.
  void CollectOutOfSync(uint32_t node, std::vector<uint64_t>* out) const {
    for (uint64_t vpage = 0; vpage < in_sync_.size(); ++vpage) {
      const int slot = SlotOf(vpage, node);
      if (slot >= 0 && (in_sync_[vpage] & (1u << slot)) == 0) {
        out->push_back(vpage);
      }
    }
  }

  // Currently out-of-sync replica slots across all pages.
  uint64_t divergent_slots() const { return divergent_slots_; }
  // Cumulative in-sync -> out-of-sync transitions.
  uint64_t divergence_events() const { return divergence_events_; }
  // Same, restricted to slots hosted on `node` — a node that keeps diverging
  // (dropped write-backs, corrupt payloads) stands out per-node in the
  // metric registry where the global counter would hide it.
  uint64_t divergence_events_for(uint32_t node) const {
    return node < divergence_by_node_.size() ? divergence_by_node_[node] : 0;
  }

 private:
  uint8_t FullMask() const { return static_cast<uint8_t>((1u << replicas_) - 1); }

  uint32_t num_nodes_;
  uint32_t replicas_;
  std::vector<uint8_t> in_sync_;
  uint64_t divergent_slots_ = 0;
  uint64_t divergence_events_ = 0;
  std::vector<uint64_t> divergence_by_node_;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_REMOTE_HEAP_H_
