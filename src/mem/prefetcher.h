// Prefetchers: readahead policies consulted on the demand-fault path.
//
// Baseline MD systems overlap prefetch computation with page-fetch I/O
// (§2.3); scan-heavy workloads benefit from fetching ahead of the fault
// stream. Two policies implement the common interface:
//
//   SequentialPrefetcher — Linux-readahead-style unit-stride streak detector
//     (the original policy, kept as a comparison baseline).
//   AdaptivePrefetcher — Leap-style (Al Maruf & Chowdhury, ATC'20) majority-
//     vote stride detector over a sliding fault-history window. Handles
//     non-unit and negative strides, suppresses prefetching on random
//     streams, and adapts its readahead window to prefetch-cache feedback:
//     hits grow the window, wasted (evicted-untouched) prefetches shrink it.
//
// OnFault() transitions the candidate pages to kFetching itself (via
// MemoryManager::BeginFetch with prefetch=true), so no concurrent handler
// can double-fetch them; the caller posts the READs. Prefetched pages enter
// the prefetch cache: they are the reclaimer's first-choice victims until a
// touch promotes them (docs/PREFETCH.md).

#ifndef ADIOS_SRC_MEM_PREFETCHER_H_
#define ADIOS_SRC_MEM_PREFETCHER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace adios {

class MemoryManager;

// Selected by SchedConfig::prefetch_policy (active when prefetch_window > 0).
enum class PrefetchPolicy : uint8_t {
  kSequential = 0,  // Unit-stride streaks only.
  kAdaptive = 1,    // Majority-vote stride detection + adaptive window.
};

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  // Called on a demand fault at `vpage`; appends prefetch candidates (pages
  // that were remote and had frames available, now already transitioned to
  // kFetching) to `out`. The caller posts one READ per candidate.
  virtual void OnFault(uint64_t vpage, MemoryManager* mm, std::vector<uint64_t>* out) = 0;

  // Called when an access lands on a prefetched page (resident or still in
  // flight). Extends the access history without issuing candidates: once
  // prefetching covers a stream, its *fault* trail degenerates to the jumps
  // between streams — successful prefetching would erase its own stride
  // signal if hits were invisible (Leap feeds the detector from the access
  // trail for the same reason). Accesses to never-prefetched resident pages
  // stay free (no instrumentation on the pure MMU-hit path).
  virtual void OnTouch(uint64_t vpage) {}

  // Prefetch-cache feedback: a prefetched page was touched before eviction
  // (hit — also reported when a demand fault coalesces onto a prefetch still
  // in flight: the stride was right, the window merely late) or evicted /
  // aborted untouched (waste).
  virtual void OnPrefetchHit() {}
  virtual void OnPrefetchWaste() {}
};

// Unit-stride readahead: ramps a window on consecutive (+1) faults and
// resets on anything else, like Linux readahead.
class SequentialPrefetcher final : public Prefetcher {
 public:
  // max_window = 0 disables prefetching entirely. `owner` tags the issued
  // fetches so prefetch-cache feedback routes back to this worker.
  explicit SequentialPrefetcher(uint32_t max_window, uint16_t owner = 0)
      : max_window_(max_window), owner_(owner) {}

  void OnFault(uint64_t vpage, MemoryManager* mm, std::vector<uint64_t>* out) override;

  uint32_t max_window() const { return max_window_; }

 private:
  uint32_t max_window_;
  uint16_t owner_;
  uint64_t last_fault_ = ~0ull;
  uint32_t streak_ = 0;
};

// Leap-style majority-vote stride detector. Keeps the last kHistory access
// deltas (demand faults + prefetched-page touches) in a ring; on each fault
// it looks for a strict-majority delta in the most recent w deltas, for
// w = 2, 4, ... up to the full history (Boyer-Moore vote + verification pass
// per sub-window). A detected stride yields candidates vpage + k*stride for
// k = 1..window(); no majority (a random stream) yields nothing. The window
// starts at 1 and adapts: +1 per prefetch hit (up to max_window), -1 per
// wasted prefetch.
class AdaptivePrefetcher final : public Prefetcher {
 public:
  static constexpr uint32_t kHistory = 8;  // Access deltas kept for stride voting.

  explicit AdaptivePrefetcher(uint32_t max_window, uint16_t owner = 0);

  void OnFault(uint64_t vpage, MemoryManager* mm, std::vector<uint64_t>* out) override;
  void OnTouch(uint64_t vpage) override;
  void OnPrefetchHit() override;
  void OnPrefetchWaste() override;

  uint32_t max_window() const { return max_window_; }
  // Current readahead depth (pages fetched ahead per detected-stride fault).
  uint32_t window() const { return window_; }
  // Majority stride over the current history; 0 = no trend detected.
  int64_t DetectStride() const;

 private:
  // Appends the delta from the previous recorded access to the ring.
  void RecordAccess(uint64_t vpage);

  uint32_t max_window_;
  uint16_t owner_;
  std::array<int64_t, kHistory> deltas_{};  // Ring buffer of access-to-access strides.
  size_t head_ = 0;              // Next slot to overwrite.
  size_t count_ = 0;             // Valid entries (saturates at capacity).
  uint64_t last_fault_ = ~0ull;
  bool has_last_ = false;
  uint32_t window_ = 1;
};

// max_window = 0 still returns a (never-consulted) prefetcher so callers
// need no null checks; the worker gates on prefetch_window > 0.
std::unique_ptr<Prefetcher> MakePrefetcher(PrefetchPolicy policy, uint32_t max_window,
                                           uint16_t owner);

}  // namespace adios

#endif  // ADIOS_SRC_MEM_PREFETCHER_H_
