// Access-pattern microbenchmark for the prefetcher (docs/PREFETCH.md).
//
// Each request touches `pages_per_op` pages of a large remote array in one
// of four patterns, starting from a random aligned origin:
//
//   kScan    — origin, origin+1, ... (unit stride: both policies help)
//   kStride  — origin, origin+S, origin+2S, ... (non-unit stride: only the
//              majority-vote detector locks on; SequentialPrefetcher is blind)
//   kReverse — origin, origin-1, ... (negative stride: ditto)
//   kRandom  — every touch at an independent hash-derived page (no stride
//              exists; a well-behaved prefetcher must stay quiet)
//
// With local_memory_ratio well below 1, nearly every touch faults, so the
// per-worker fault stream is the pattern itself plus inter-request jumps —
// exactly the noise Leap's majority vote is built to see through.

#ifndef ADIOS_SRC_APPS_PATTERN_APP_H_
#define ADIOS_SRC_APPS_PATTERN_APP_H_

#include "src/apps/application.h"

namespace adios {

class PatternApp final : public Application {
 public:
  enum class Pattern : uint8_t { kScan = 0, kStride = 1, kReverse = 2, kRandom = 3 };

  // Handler compute (cycles), on the scale of ArrayApp's: parse, compute
  // between touches, and reply.
  static constexpr uint32_t kParseCycles = 300;
  static constexpr uint32_t kTouchCycles = 150;
  static constexpr uint32_t kPostCycles = 600;

  struct Options {
    uint64_t pages = 1 << 15;    // Working set, in pages.
    uint32_t pages_per_op = 8;   // Page touches per request.
    uint32_t stride = 4;         // Step, in pages (kStride only).
    Pattern pattern = Pattern::kScan;
  };

  explicit PatternApp(const Options& options) : options_(options) {}
  PatternApp() : PatternApp(Options{}) {}

  const char* name() const override {
    switch (options_.pattern) {
      case Pattern::kScan:
        return "pattern-scan";
      case Pattern::kStride:
        return "pattern-stride";
      case Pattern::kReverse:
        return "pattern-reverse";
      case Pattern::kRandom:
        return "pattern-random";
    }
    return "pattern";
  }

  uint64_t WorkingSetBytes() const override { return options_.pages * kPageSize; }

  void Setup(RemoteHeap& heap) override {
    base_ = heap.AllocPages(options_.pages);
    RemoteRegion* region = heap.region();
    for (uint64_t p = 0; p < options_.pages; ++p) {
      region->WriteObject<uint64_t>(base_ + p * kPageSize, PageValue(p));
    }
  }

  void FillRequest(Rng& rng, Request* req) override {
    req->op = 0;
    req->key = rng.NextBelow(OriginSpan()) + OriginBase();
    req->reply_bytes = 64;
  }

  void Handle(Request* req, WorkerApi& api) override {
    api.Compute(kParseCycles);
    uint64_t acc = 0;
    for (uint32_t i = 0; i < options_.pages_per_op; ++i) {
      const uint64_t page = TouchedPage(req->key, i);
      acc ^= api.Read<uint64_t>(base_ + page * kPageSize);
      api.MaybePreempt();
      api.Compute(kTouchCycles);
    }
    req->result = acc;
    api.Compute(kPostCycles);
  }

  bool Verify(const Request& req) const override {
    uint64_t acc = 0;
    for (uint32_t i = 0; i < options_.pages_per_op; ++i) {
      acc ^= PageValue(TouchedPage(req.key, i));
    }
    return req.result == acc;
  }

  RemoteAddr base() const { return base_; }

  static uint64_t PageValue(uint64_t page) { return page * 0x9e3779b97f4a7c15ull + 1; }

 private:
  // The i-th page a request starting at `origin` touches.
  uint64_t TouchedPage(uint64_t origin, uint32_t i) const {
    switch (options_.pattern) {
      case Pattern::kScan:
        return origin + i;
      case Pattern::kStride:
        return origin + static_cast<uint64_t>(i) * options_.stride;
      case Pattern::kReverse:
        return origin - i;
      case Pattern::kRandom:
        return Mix64(origin ^ (0x9e3779b97f4a7c15ull * (i + 1))) % options_.pages;
    }
    return origin;
  }

  // Origins are constrained so every touch of the op stays in [0, pages).
  uint64_t OriginSpan() const {
    const uint64_t reach = Reach();
    return options_.pages > reach ? options_.pages - reach : 1;
  }
  uint64_t OriginBase() const {
    return options_.pattern == Pattern::kReverse ? Reach() : 0;
  }
  uint64_t Reach() const {
    const uint64_t steps = options_.pages_per_op > 0 ? options_.pages_per_op - 1 : 0;
    return options_.pattern == Pattern::kStride ? steps * options_.stride : steps;
  }

  static uint64_t Mix64(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }

  Options options_;
  RemoteAddr base_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_PATTERN_APP_H_
