#include "src/apps/memcached_app.h"

#include <vector>

#include "src/base/lazy_mapping.h"

namespace adios {

MemcachedApp::MemcachedApp(const Options& options) : options_(options) {
  ADIOS_CHECK(options_.num_keys > 0);
  // Power-of-two bucket count at ~1.0 load factor, like memcached's assoc.
  num_buckets_ = 1;
  while (num_buckets_ < options_.num_keys) {
    num_buckets_ <<= 1;
  }
  if (options_.key_skew > 0.0) {
    zipf_ = std::make_unique<ZipfGenerator>(options_.num_keys, options_.key_skew);
  }
}

uint64_t MemcachedApp::ItemBytes() const {
  // Header + key bytes + value, rounded for alignment.
  const uint64_t raw = sizeof(ItemHeader) + kKeyBytes + options_.value_bytes;
  return (raw + 15) & ~15ull;
}

uint64_t MemcachedApp::WorkingSetBytes() const {
  return num_buckets_ * sizeof(RemoteAddr) + options_.num_keys * ItemBytes() + 2 * kPageSize;
}

void MemcachedApp::Setup(RemoteHeap& heap) {
  RemoteRegion* region = heap.region();
  buckets_ = heap.AllocPages((num_buckets_ * sizeof(RemoteAddr) + kPageSize - 1) / kPageSize);
  slab_ = heap.AllocPages((options_.num_keys * ItemBytes() + kPageSize - 1) / kPageSize);

  // Key k lives at slab slot slot_of[k], a random permutation, so key
  // locality does not translate into page locality. Each bucket chains its
  // keys as inserting them in key order builds it: every key is pushed at
  // its bucket's head.
  const auto n = static_cast<uint32_t>(options_.num_keys);
  const std::vector<uint32_t> slot_of = RandomPermutation(n, /*seed=*/0x3e3c);

  // The image is built front to back rather than key by key, so the host
  // writes two sequential streams instead of missing DRAM (and faulting in
  // a fresh huge page) at a random slot per key. The chains are linked
  // first, in key order, in scratch: a bucket's head and a slot's successor
  // are stored as slot + 1 (0 ends a chain), beside the key the slot holds.
  // The scratch is a mapping of its own, unmapped on return, so it leaves no
  // freed block behind in the allocator's heap.
  struct SlotLinks {
    uint32_t next;
    uint32_t key;
  };
  const size_t scratch_bytes = num_buckets_ * sizeof(uint32_t) + n * sizeof(SlotLinks);
  LazyMapping scratch((scratch_bytes + kPageSize - 1) / kPageSize * kPageSize,
                      LazyMapping::Pages::kHuge);
  auto* head = reinterpret_cast<uint32_t*>(scratch.data());  // Zero: empty.
  auto* slots = reinterpret_cast<SlotLinks*>(head + num_buckets_);
  for (uint32_t key = 0; key < n; ++key) {
    const uint32_t slot = slot_of[key];
    const uint64_t bucket = HashKey(key) & (num_buckets_ - 1);
    slots[slot] = SlotLinks{head[bucket], key};
    head[bucket] = slot + 1;
  }
  const auto addr_of = [this](uint32_t link) -> RemoteAddr {
    return link == 0 ? 0 : slab_ + static_cast<uint64_t>(link - 1) * ItemBytes();
  };

  for (uint64_t b = 0; b < num_buckets_; ++b) {
    region->WriteObject<RemoteAddr>(BucketAddr(b), addr_of(head[b]));
  }
  for (uint32_t slot = 0; slot < n; ++slot) {
    const RemoteAddr item = slab_ + static_cast<uint64_t>(slot) * ItemBytes();
    const uint64_t key = slots[slot].key;
    ItemHeader hdr;
    hdr.next = addr_of(slots[slot].next);
    hdr.key_hash = HashKey(key);
    hdr.key_token = key;
    region->WriteObject(item, hdr);
    // The 50-byte key body stays zero (the token is compared), and so does
    // the value past its signature.
    region->WriteObject<uint64_t>(item + sizeof(ItemHeader) + kKeyBytes, ValueSignature(key));
  }
}

void MemcachedApp::FillRequest(Rng& rng, Request* req) {
  req->op = rng.NextBool(options_.set_fraction) ? kOpSet : kOpGet;
  req->key = zipf_ != nullptr ? zipf_->Next() : rng.NextBelow(options_.num_keys);
  req->reply_bytes = req->op == kOpSet ? 64 : 64 + options_.value_bytes;
  req->request_bytes = req->op == kOpSet ? 64 + options_.value_bytes : 64;
}

void MemcachedApp::Handle(Request* req, WorkerApi& api) {
  api.Compute(kParseCycles + kHashCycles);
  const uint64_t h = HashKey(req->key);
  const uint64_t bucket = h & (num_buckets_ - 1);

  RemoteAddr item = api.Read<RemoteAddr>(BucketAddr(bucket));
  while (item != 0) {
    api.MaybePreempt();
    const ItemHeader hdr = api.Read<ItemHeader>(item);
    api.Compute(kCompareCycles);
    if (hdr.key_hash == h && hdr.key_token == req->key) {
      const RemoteAddr value = item + sizeof(ItemHeader) + kKeyBytes;
      if (req->op == kOpSet) {
        // Overwrite the value in place (dirties the page for write-back);
        // the stored signature stays key-derived so GETs remain verifiable.
        api.Access(value, options_.value_bytes, /*write=*/true);
        api.region()->WriteObject<uint64_t>(value, ValueSignature(req->key));
        req->result = ValueSignature(req->key);
      } else {
        // Read the full value into the reply.
        api.Access(value, options_.value_bytes, /*write=*/false);
        req->result = api.region()->ReadObject<uint64_t>(value);
      }
      api.Compute(kCopyCyclesPer64B * (options_.value_bytes / 64 + 1));
      api.Compute(kFinalizeCycles);
      return;
    }
    item = hdr.next;
  }
  req->result = 0;  // Miss — must not happen (all keys loaded).
  api.Compute(kFinalizeCycles);
}

bool MemcachedApp::Verify(const Request& req) const {
  return req.result == ValueSignature(req.key);
}

}  // namespace adios
