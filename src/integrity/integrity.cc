#include "src/integrity/integrity.h"

#include <algorithm>

#include "src/obs/metric_registry.h"

namespace adios {

IntegrityLayer::IntegrityLayer(const IntegrityConfig& config, RemoteRegion* region,
                               uint64_t num_pages, uint64_t page_bytes,
                               uint32_t num_nodes, uint32_t replicas)
    : config_(config),
      region_(region),
      num_pages_(num_pages),
      page_bytes_(page_bytes),
      num_nodes_(num_nodes),
      replicas_(replicas) {
  ADIOS_CHECK(region != nullptr);
  ADIOS_CHECK(replicas >= 1 && replicas <= num_nodes);
  // Stamping starts here, so every later write invalidates the memo, and
  // the first write to each page primes its vpage from the set-up bytes.
  region->StartWriteStamps(this);
  memo_.resize(num_pages);
  sums_.resize(num_pages * replicas);
  primed_.resize(num_pages);
}

IntegrityLayer::~IntegrityLayer() { region_->StopWatching(this); }

void IntegrityLayer::OnFirstWrite(uint64_t page) {
  const uint64_t first = PageStart(page) / page_bytes_;
  const uint64_t last = std::min(num_pages_, (PageStart(page + 1) - 1) / page_bytes_ + 1);
  for (uint64_t vpage = first; vpage < last; ++vpage) {
    Prime(vpage);
  }
}

void IntegrityLayer::Prime(uint64_t vpage) {
  if (primed_[vpage]) {
    return;
  }
  // Every replica of the vpage is in sync with the set-up bytes, so the
  // digest is the same for every slot.
  const uint64_t sum = ComputeChecksum(vpage);
  for (uint32_t slot = 0; slot < replicas_; ++slot) {
    sums_[SlotKey(vpage, slot)] = sum;
  }
  primed_[vpage] = true;
}

uint64_t IntegrityLayer::ChecksumOf(uint64_t vpage, uint32_t slot) const {
  if (primed_[vpage]) {
    return sums_[SlotKey(vpage, slot)];
  }
  uint64_t digest = 0;
  return MemoValid(vpage, &digest) ? digest : FreshChecksum(vpage);
}

uint64_t IntegrityLayer::BytesOf(uint64_t vpage) const {
  const uint64_t begin = vpage * page_bytes_;
  return begin >= region_->size() ? 0 : std::min<uint64_t>(page_bytes_, region_->size() - begin);
}

uint64_t IntegrityLayer::StampOf(uint64_t vpage) const {
  return region_->WriteStampSum(vpage * page_bytes_, BytesOf(vpage));
}

uint64_t IntegrityLayer::ComputeChecksum(uint64_t vpage) const {
  ADIOS_DCHECK(vpage < num_pages_);
  DigestMemo& memo = memo_[vpage];
  const uint64_t stamp = StampOf(vpage);
  if (memo.stamp != stamp) {
    memo.digest = FreshChecksum(vpage);
    memo.stamp = stamp;
    ++digests_computed_;
  }
  return memo.digest;
}

bool IntegrityLayer::MemoValid(uint64_t vpage, uint64_t* digest) const {
  const DigestMemo& memo = memo_[vpage];
  if (memo.stamp != StampOf(vpage)) {
    return false;
  }
  *digest = memo.digest;
  return true;
}

uint64_t IntegrityLayer::FreshChecksum(uint64_t vpage) const {
  const uint64_t len = BytesOf(vpage);
  return PageChecksum(len == 0 ? nullptr : region_->data() + vpage * page_bytes_, len,
                      kChecksumSeed);
}

void IntegrityLayer::OnWireCorrupt(uint64_t wr_id, bool is_write) {
  (is_write ? wire_write_ : wire_read_).insert(wr_id);
}

bool IntegrityLayer::PayloadCorrupt(uint64_t wr_id, uint64_t vpage, uint32_t node,
                                    bool recompute) {
  // Wire corruption consumes regardless of the ledger outcome: one flag, one
  // completion.
  const bool wire = wire_read_.erase(wr_id) != 0;
  if (wire) {
    return true;
  }
  const int slot = SlotOf(vpage, node);
  if (slot < 0) {
    return false;  // Reading from a node that hosts no copy never happens,
                   // but the layer degrades to "clean" rather than aborting.
  }
  const uint64_t key = SlotKey(vpage, static_cast<uint32_t>(slot));
  if (stored_poison_.count(key) != 0) {
    return true;
  }
  // Digest-vs-region comparison on the clean path: catches a slot whose
  // recorded digest went stale against the region (a lost write-back). The
  // memo re-hashes the page only if a write moved its stamps. An unprimed
  // vpage was never written, so the region equals every slot's intended
  // copy and there is nothing to hash.
  if (recompute_skip_ && recompute_skip_(vpage)) {
    return false;
  }
  return recompute && primed_[vpage] && ComputeChecksum(vpage) != sums_[key];
}

bool IntegrityLayer::VerifyFetch(uint64_t wr_id, uint64_t vpage, uint32_t node) {
  // Demand/prefetch READs verify while the page is kFetching, when nothing
  // can mutate the region page, so the recompute is always meaningful.
  const bool corrupt = PayloadCorrupt(wr_id, vpage, node, /*recompute=*/true);
  if (!config_.verify) {
    // Poison oracle: the payload is mapped and served as-is; only the ledger
    // remembers the app just consumed corrupted bytes.
    if (corrupt) {
      ++served_corrupt_;
    }
    return true;
  }
  return !corrupt;
}

bool IntegrityLayer::CheckPayload(uint64_t wr_id, uint64_t vpage, uint32_t node,
                                  bool recompute) {
  return !PayloadCorrupt(wr_id, vpage, node, recompute);
}

void IntegrityLayer::OnWritePosted(uint64_t wr_id, uint64_t vpage) {
  posted_sums_[wr_id] = ComputeChecksum(vpage);
}

bool IntegrityLayer::OnCorruptionDetected(uint64_t vpage, uint32_t node, bool from_scrub) {
  const int slot = SlotOf(vpage, node);
  if (slot < 0) {
    return false;
  }
  const uint64_t key = SlotKey(vpage, static_cast<uint32_t>(slot));
  if (!outstanding_.insert(key).second) {
    return false;  // Already known (repair in flight or unrepairable).
  }
  ++detected_count_;
  if (from_scrub) {
    ++scrub_finds_;
  }
  if (repair_fn_) {
    repair_fn_(vpage, node);
  } else {
    // No second copy to repair from. The slot stays outstanding forever so
    // re-detections of the same page do not recount.
    ++unrepairable_;
  }
  return true;
}

void IntegrityLayer::OnReplicaWritten(uint64_t wr_id, uint64_t vpage, uint32_t node) {
  // The other slots keep the set-up digest; record it before this one moves.
  Prime(vpage);
  uint64_t sum;
  const auto sit = posted_sums_.find(wr_id);
  if (sit != posted_sums_.end()) {
    sum = sit->second;
    posted_sums_.erase(sit);
  } else {
    sum = ComputeChecksum(vpage);
  }
  const int slot = SlotOf(vpage, node);
  if (slot < 0) {
    wire_write_.erase(wr_id);
    return;
  }
  const uint64_t key = SlotKey(vpage, static_cast<uint32_t>(slot));
  // Either way the slot's digest is what the writer intended (the post-time
  // snapshot); a wire-corrupted WRITE means the stored copy no longer
  // matches that intent.
  sums_[key] = sum;
  if (wire_write_.erase(wr_id) != 0) {
    stored_poison_.insert(key);
  } else {
    stored_poison_.erase(key);
  }
  if (outstanding_.erase(key) != 0) {
    // The repair copy landed (possibly itself poisoned — a later verify or
    // scrub pass re-detects that case).
    ++repaired_;
  }
}

void IntegrityLayer::ForEachOutstanding(
    const std::function<void(uint64_t, uint32_t)>& fn) const {
  for (const uint64_t key : outstanding_) {
    fn(key / replicas_, static_cast<uint32_t>(key % replicas_));
  }
}

void IntegrityLayer::RegisterMetrics(MetricRegistry* registry) {
  registry->RegisterProbe("integrity.detected", {},
                          [this] { return static_cast<double>(detected_count_); });
  registry->RegisterProbe("integrity.repaired", {},
                          [this] { return static_cast<double>(repaired_); });
  registry->RegisterProbe("integrity.unrepairable", {},
                          [this] { return static_cast<double>(unrepairable_); });
  registry->RegisterProbe("integrity.scrub_pages", {},
                          [this] { return static_cast<double>(scrub_pages_); });
  registry->RegisterProbe("integrity.scrub_finds", {},
                          [this] { return static_cast<double>(scrub_finds_); });
  registry->RegisterProbe("integrity.served_corrupt", {},
                          [this] { return static_cast<double>(served_corrupt_); });
  registry->RegisterProbe("integrity.digests_computed", {},
                          [this] { return static_cast<double>(digests_computed_); });
}

}  // namespace adios
