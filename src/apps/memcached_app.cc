#include "src/apps/memcached_app.h"

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

  for (uint64_t b = 0; b < num_buckets_; ++b) {
    region->WriteObject<RemoteAddr>(BucketAddr(b), 0);
  }

  // Insert keys at randomly permuted slab slots so key locality does not
  // translate into page locality.
  std::vector<uint32_t> slot_of =
      RandomPermutation(static_cast<uint32_t>(options_.num_keys), /*seed=*/0x3e3c);
  for (uint64_t key = 0; key < options_.num_keys; ++key) {
    const RemoteAddr item = slab_ + static_cast<uint64_t>(slot_of[key]) * ItemBytes();
    const uint64_t h = HashKey(key);
    const uint64_t bucket = h & (num_buckets_ - 1);
    ItemHeader hdr;
    hdr.next = region->ReadObject<RemoteAddr>(BucketAddr(bucket));
    hdr.key_hash = h;
    hdr.key_token = key;
    region->WriteObject(item, hdr);
    // The 50-byte key body (content irrelevant; the token is compared).
    // Value: signature at the head, then a repeating pattern.
    region->WriteObject<uint64_t>(item + sizeof(ItemHeader) + kKeyBytes, ValueSignature(key));
    region->WriteObject<RemoteAddr>(BucketAddr(bucket), item);
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
