// Memcached-like key-value store (paper §5.2, Fig. 10).
//
// A chained hash table lives entirely in remote memory: a bucket array of
// head pointers plus a slab of items, each holding {next, key hash, 50-byte
// key, value}. GETs hash the key, read the bucket head, walk the chain
// comparing keys, then read the value — the same access structure as
// memcached's assoc table, with items placed in random slab order so
// neighboring keys do not share pages.

#ifndef ADIOS_SRC_APPS_MEMCACHED_APP_H_
#define ADIOS_SRC_APPS_MEMCACHED_APP_H_

#include <memory>

#include "src/apps/application.h"

namespace adios {

class MemcachedApp final : public Application {
 public:
  static constexpr uint32_t kOpGet = 0;
  static constexpr uint32_t kOpSet = 1;

  static constexpr uint32_t kKeyBytes = 50;  // Paper: 50-byte keys (§5.2).
  // Handler compute costs (cycles): request parse, key hash, one key compare
  // per chain item, reply finalize, and the value memcpy into the reply per
  // 64 B.
  static constexpr uint32_t kParseCycles = 350;
  static constexpr uint32_t kHashCycles = 120;
  static constexpr uint32_t kCompareCycles = 80;
  static constexpr uint32_t kFinalizeCycles = 400;
  static constexpr uint32_t kCopyCyclesPer64B = 4;

  struct Options {
    uint64_t num_keys = 1 << 20;
    uint32_t value_bytes = 128;  // Paper evaluates 128 B and 1024 B.
    double key_skew = 0.0;       // 0 = uniform keys; >0 = Zipf popularity.
    // Fraction of SETs (writes dirty remote pages). The paper's Memcached
    // experiments are pure GET; mixes exercise write-back.
    double set_fraction = 0.0;
  };

  explicit MemcachedApp(const Options& options);

  const char* name() const override { return "memcached"; }
  uint64_t WorkingSetBytes() const override;
  void Setup(RemoteHeap& heap) override;
  void FillRequest(Rng& rng, Request* req) override;
  void Handle(Request* req, WorkerApi& api) override;
  bool Verify(const Request& req) const override;
  uint32_t NumOpTypes() const override { return 2; }
  const char* OpName(uint32_t op) const override { return op == kOpSet ? "SET" : "GET"; }

  // Value signature stored at the head of key `k`'s value.
  static uint64_t ValueSignature(uint64_t key) { return key * 0xc2b2ae3d27d4eb4full + 99; }

 private:
  // Item layout inside the slab (fixed size, packed head-to-tail).
  struct ItemHeader {
    RemoteAddr next = 0;       // 0 = end of chain (slot 0 is never an item).
    uint64_t key_hash = 0;
    uint64_t key_token = 0;    // Stands in for the 50-byte key compare.
  };

  uint64_t ItemBytes() const;
  RemoteAddr BucketAddr(uint64_t bucket) const { return buckets_ + bucket * sizeof(RemoteAddr); }
  static uint64_t HashKey(uint64_t key) {
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    return h;
  }

  Options options_;
  uint64_t num_buckets_;
  RemoteAddr buckets_ = 0;
  RemoteAddr slab_ = 0;
  std::unique_ptr<ZipfGenerator> zipf_;
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_MEMCACHED_APP_H_
