// Array-indirection microbenchmark (paper §2, §5.1).
//
// Clients send a random index into a large array; the handler reads the
// element from (mostly remote) memory and replies with its value. With a 20%
// local-memory ratio, ~80% of requests fault exactly once — the bimodal
// service-time distribution driving Figs. 2 and 7.

#ifndef ADIOS_SRC_APPS_ARRAY_APP_H_
#define ADIOS_SRC_APPS_ARRAY_APP_H_

#include <memory>

#include "src/apps/application.h"

namespace adios {

class ArrayApp final : public Application {
 public:
  // Handler compute, calibrated so a local (cache-hit) request costs
  // ~1.7 Kcycles end to end (Fig. 2(c), P10).
  static constexpr uint32_t kParseCycles = 300;
  static constexpr uint32_t kPostCycles = 1000;

  struct Options {
    // Paper: 40 GB working set. Scaled default: 64 Mi entries -> 256 MiB...
    // benches size this per-figure; tests use small values.
    uint64_t entries = 1 << 22;
    uint32_t entry_bytes = 64;
    // Key popularity skew: 0 = uniform (the paper's microbenchmark);
    // 0.99 = YCSB-style Zipf (raises the local hit rate).
    double key_skew = 0.0;
  };

  explicit ArrayApp(const Options& options) : options_(options) {
    if (options_.key_skew > 0.0) {
      zipf_ = std::make_unique<ZipfGenerator>(options_.entries, options_.key_skew);
    }
  }
  ArrayApp() : ArrayApp(Options{}) {}

  const char* name() const override { return "array"; }

  uint64_t WorkingSetBytes() const override {
    return options_.entries * options_.entry_bytes + kPageSize;
  }

  void Setup(RemoteHeap& heap) override {
    base_ = heap.AllocPages((options_.entries * options_.entry_bytes + kPageSize - 1) / kPageSize);
    RemoteRegion* region = heap.region();
    for (uint64_t i = 0; i < options_.entries; ++i) {
      region->WriteObject<uint64_t>(base_ + i * options_.entry_bytes, ExpectedValue(i));
    }
  }

  void FillRequest(Rng& rng, Request* req) override {
    req->op = 0;
    req->key = zipf_ != nullptr ? zipf_->Next() : rng.NextBelow(options_.entries);
    req->reply_bytes = 64;
  }

  void Handle(Request* req, WorkerApi& api) override {
    api.Compute(kParseCycles);
    api.MaybePreempt();
    const RemoteAddr addr = base_ + req->key * options_.entry_bytes;
    req->result = api.Read<uint64_t>(addr);
    // Concord-style instrumentation places probes throughout the handler,
    // including after potential fault returns — where a busy-waited fetch
    // has often already exhausted the 5 us quantum (§2.3's observation that
    // preemption is oblivious to busy-waiting and only adds overhead here).
    api.MaybePreempt();
    api.Compute(kPostCycles);
  }

  bool Verify(const Request& req) const override {
    return req.result == ExpectedValue(req.key);
  }

  static uint64_t ExpectedValue(uint64_t index) { return index * 0x9e3779b97f4a7c15ull + 1; }

  RemoteAddr base() const { return base_; }

 private:
  Options options_;
  RemoteAddr base_ = 0;
  std::unique_ptr<ZipfGenerator> zipf_;
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_ARRAY_APP_H_
