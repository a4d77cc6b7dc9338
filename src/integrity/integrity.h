// End-to-end data-integrity layer (docs/INTEGRITY.md).
//
// The simulator keeps one ground-truth byte array (RemoteRegion): residency
// and replication affect timing and availability, never contents. Silent
// corruption is therefore modeled as a *ledger* over that array:
//
//   * ChecksumMap — the digest each replica slot of each vpage SHOULD carry,
//     primed from the region's set-up bytes just before the vpage is first
//     written, and refreshed whenever a write-back or re-silver/repair WRITE
//     lands on that slot.
//   * wire flags  — READ/WRITE WQEs the fault injector corrupted in flight
//     (keyed by wr_id, consumed by exactly one completion).
//   * stored poison — replica slots whose *stored* copy is bad because a
//     corrupted WRITE landed there; cleared when a clean WRITE lands.
//
// A fetched payload is corrupt iff its READ was wire-corrupted, or its source
// slot is store-poisoned, or the slot's recorded digest no longer matches the
// region (a lost update). The digest-vs-region comparison runs on every
// clean-path verify. Its simulated cost is the fixed `kVerifyCycles` charged
// to the worker core; the host hashes only bytes that changed. A per-vpage
// digest memo is keyed by the region's write stamps (RemoteRegion), so a page
// is re-hashed only after a write moved a stamp covering it, and a lost
// write-back is still caught: the app's write moves the stamp, and the next
// fetch re-hashes.
//
// Priming is lazy. Building the layer hashes nothing: every slot of a vpage
// starts out holding the region's set-up bytes, and while no write stamp
// covering the vpage has moved the region still holds them, so a clean-path
// verify of such an "unprimed" vpage passes without hashing. The region's
// first-write hook (RemoteRegion) hands the layer each 4 KiB page just before
// its first write; the layer then hashes the covering vpage — still the
// set-up bytes — into every slot and the memo, and marks it primed. A WRITE
// landing on an unprimed vpage primes it first.
//
// Detection bookkeeping keeps the conservation law the invariant checker
// audits:  detected == repaired + outstanding  (unrepairable entries stay
// outstanding forever — there is no second copy to repair from).

#ifndef ADIOS_SRC_INTEGRITY_INTEGRITY_H_
#define ADIOS_SRC_INTEGRITY_INTEGRITY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/check.h"
#include "src/integrity/integrity_config.h"
#include "src/integrity/page_checksum.h"
#include "src/mem/remote_heap.h"

namespace adios {

class MetricRegistry;

class IntegrityLayer : public FirstWriteWatcher {
 public:
  // Simulated CPU cycles one verify-on-fetch costs the worker core (hashing
  // a 4 KB page at ~8 bytes/cycle). A model constant: it does not depend on
  // the host codec (PageChecksum), whose speed only moves host run time.
  static constexpr uint32_t kVerifyCycles = 550;
  // Seed folded into every page checksum (codec-level, not an RNG seed).
  static constexpr uint64_t kChecksumSeed = 41;

  // `region` must outlive the layer; the constructor starts its write stamps
  // and becomes its first-write watcher, so the region's bytes at that
  // point are the set-up bytes every replica slot starts from. `replicas` >= 1;
  // slot k of vpage lives on node (vpage + k) % num_nodes, PlacementMap's
  // formula, so the layer stands alone in unit tests.
  IntegrityLayer(const IntegrityConfig& config, RemoteRegion* region,
                 uint64_t num_pages, uint64_t page_bytes, uint32_t num_nodes,
                 uint32_t replicas);

  ~IntegrityLayer();

  IntegrityLayer(const IntegrityLayer&) = delete;
  IntegrityLayer& operator=(const IntegrityLayer&) = delete;

  const IntegrityConfig& config() const { return config_; }

  // Called by the fabric (via MdSystem's hook) when the injector corrupts a
  // WQE's payload in flight. READ flags are consumed by the fetch/scrub/
  // re-silver completion that observes them; WRITE flags by OnReplicaWritten.
  void OnWireCorrupt(uint64_t wr_id, bool is_write);

  // Demand/prefetch path, called once per successful READ completion before
  // the frame is mapped. Returns true when the payload may be mapped. With
  // `verify` off this always returns true but still consumes the wire flag
  // and counts silently-served corruption (the poison oracle).
  bool VerifyFetch(uint64_t wr_id, uint64_t vpage, uint32_t node);

  // Always-on payload check (the scrubber and the re-silver source read ARE
  // verification, independent of the demand-path `verify` knob). Returns
  // true when the payload is clean. `recompute` gates the digest-vs-region
  // comparison: callers pass false when the page went resident while the
  // READ was in flight (the region may legitimately be newer than any stored
  // copy); wire/poison evidence is still consulted — and consumed — exactly.
  bool CheckPayload(uint64_t wr_id, uint64_t vpage, uint32_t node, bool recompute = true);

  // Captures the digest a WRITE posted right now will carry (the region's
  // current contents), keyed by wr_id. OnReplicaWritten prefers this
  // snapshot over a completion-time recompute, so a page re-fetched and
  // re-dirtied while its write-back is in flight cannot skew the ledger.
  void OnWritePosted(uint64_t wr_id, uint64_t vpage);

  // Records a detection on (vpage, node). Returns true when newly detected
  // (not already outstanding). Invokes the repair hook when one is set;
  // otherwise the slot is unrepairable and stays outstanding.
  bool OnCorruptionDetected(uint64_t vpage, uint32_t node, bool from_scrub);

  // A WRITE (write-back fan-out, re-silver, or repair) landed on (vpage,
  // node): consume its wire flag, refresh the slot's digest from the region,
  // and settle poison/outstanding state. Wire-corrupted WRITEs leave the
  // slot store-poisoned (latent re-corruption a later verify or scrub run
  // finds again).
  void OnReplicaWritten(uint64_t wr_id, uint64_t vpage, uint32_t node);

  // One scrub READ consumed (accounting only).
  void OnScrubPage() { ++scrub_pages_; }

  // Repair hook: (vpage, node) -> queue a repair copy. Set only when pages
  // have a second copy to repair from (replicas > 1).
  void set_repair_fn(std::function<void(uint64_t, uint32_t)> fn) {
    repair_fn_ = std::move(fn);
  }

  // Pages for which the digest-vs-region recompute must be skipped (wire and
  // stored-poison evidence still applies). MdSystem wires this to the
  // invariant checker's poison-on-evict set: those region bytes are
  // deliberately scrambled while the page is out, which is debugging aid,
  // not modeled corruption.
  void set_recompute_filter(std::function<bool(uint64_t)> skip) {
    recompute_skip_ = std::move(skip);
  }

  // Worker-core cycles one verify-on-fetch costs (0 when `verify` is off).
  uint64_t VerifyCost() const { return config_.verify ? kVerifyCycles : 0; }

  void RegisterMetrics(MetricRegistry* registry);

  // --- Counters (also published through RegisterMetrics) ---
  uint64_t detected() const { return detected_count_; }
  uint64_t repaired() const { return repaired_; }
  uint64_t unrepairable() const { return unrepairable_; }
  uint64_t scrub_finds() const { return scrub_finds_; }
  // Corrupted payloads delivered to the app with verification off.
  uint64_t served_corrupt() const { return served_corrupt_; }

  // --- Checker surface (src/check/invariant_checker.cc) ---
  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t replicas() const { return replicas_; }
  uint64_t num_pages() const { return num_pages_; }
  uint32_t NodeOfSlot(uint64_t vpage, uint32_t slot) const {
    return static_cast<uint32_t>((vpage + slot) % num_nodes_);
  }
  // The digest (vpage, slot) should verify against. An unprimed vpage's
  // slots all intend the set-up bytes, which the region still holds: the
  // answer is the memoized region digest, or a fresh hash that leaves the
  // memo alone.
  uint64_t ChecksumOf(uint64_t vpage, uint32_t slot) const;
  // True once vpage's slots hold recorded digests (first write or WRITE).
  bool Primed(uint64_t vpage) const { return primed_[vpage]; }
  // Sum of the region write stamps covering vpage (RemoteRegion); 0 until
  // a write lands on one of its 4 KiB pages.
  uint64_t StampOf(uint64_t vpage) const;
  // Digest of vpage's current region contents, from the memo unless a write
  // stamp covering the vpage moved since the memo was filled.
  uint64_t ComputeChecksum(uint64_t vpage) const;
  // The same digest hashed afresh, bypassing (and leaving alone) the memo.
  uint64_t FreshChecksum(uint64_t vpage) const;
  // True with the memoized digest in `*digest` when vpage's memo is filled
  // and no covering stamp has moved since, i.e. when ComputeChecksum would
  // return it without hashing.
  bool MemoValid(uint64_t vpage, uint64_t* digest) const;
  // Pages hashed to fill the memo (priming included; building hashes none).
  uint64_t digests_computed() const { return digests_computed_; }
  bool StoredPoisoned(uint64_t vpage, uint32_t slot) const {
    return stored_poison_.count(SlotKey(vpage, slot)) != 0;
  }
  bool Outstanding(uint64_t vpage, uint32_t slot) const {
    return outstanding_.count(SlotKey(vpage, slot)) != 0;
  }
  void ForEachOutstanding(const std::function<void(uint64_t, uint32_t)>& fn) const;

 private:
  // First-write hook: primes every vpage overlapping 4 KiB page `page`.
  void OnFirstWrite(uint64_t page) override;
  // Hashes vpage's current bytes into every slot and the memo and marks it
  // primed. No-op once primed.
  void Prime(uint64_t vpage);
  // Replica slot of `node` for vpage; -1 when the node hosts no copy.
  int SlotOf(uint64_t vpage, uint32_t node) const {
    const uint32_t slot =
        static_cast<uint32_t>((node + num_nodes_ - (vpage % num_nodes_)) % num_nodes_);
    return slot < replicas_ ? static_cast<int>(slot) : -1;
  }
  uint64_t SlotKey(uint64_t vpage, uint32_t slot) const {
    ADIOS_DCHECK(slot < replicas_);
    return vpage * replicas_ + slot;
  }
  // True when the payload of this completed READ is corrupt. Consumes the
  // read-wire flag for wr_id.
  bool PayloadCorrupt(uint64_t wr_id, uint64_t vpage, uint32_t node, bool recompute);
  // Region bytes vpage covers: 0 for pages past the region (page table
  // larger than the heap), which digest empty and are never written.
  uint64_t BytesOf(uint64_t vpage) const;

  IntegrityConfig config_;
  RemoteRegion* region_;
  uint64_t num_pages_;
  uint64_t page_bytes_;
  uint32_t num_nodes_;
  uint32_t replicas_;

  // Digest each (vpage, slot) should verify against, vpage * replicas + slot.
  // Meaningful only for primed vpages.
  std::vector<uint64_t> sums_;
  std::vector<bool> primed_;
  // Region digest of each vpage and the stamp sum it was hashed at. kNoStamp
  // marks an unfilled entry (stamp sums start at 0 and never reach it).
  static constexpr uint64_t kNoStamp = ~0ull;
  struct DigestMemo {
    uint64_t digest = 0;
    uint64_t stamp = kNoStamp;
  };
  mutable std::vector<DigestMemo> memo_;
  mutable uint64_t digests_computed_ = 0;
  // In-flight corrupted WQEs, keyed by wr_id. READ and WRITE live in
  // separate sets because a worker fetch wr_id (== vpage) can collide with a
  // write-back wr_id for the same page.
  std::unordered_set<uint64_t> wire_read_;
  std::unordered_set<uint64_t> wire_write_;
  // Slots whose stored copy is bad (a corrupted WRITE landed).
  std::unordered_set<uint64_t> stored_poison_;
  // Post-time digest snapshots of in-flight WRITEs, keyed by wr_id.
  std::unordered_map<uint64_t, uint64_t> posted_sums_;
  // Detected, not yet repaired.
  std::unordered_set<uint64_t> outstanding_;

  std::function<void(uint64_t, uint32_t)> repair_fn_;
  std::function<bool(uint64_t)> recompute_skip_;

  uint64_t detected_count_ = 0;
  uint64_t repaired_ = 0;
  uint64_t unrepairable_ = 0;
  uint64_t scrub_pages_ = 0;
  uint64_t scrub_finds_ = 0;
  uint64_t served_corrupt_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_INTEGRITY_INTEGRITY_H_
