#include "src/mem/prefetcher.h"

#include "src/mem/memory_manager.h"

namespace adios {

void SequentialPrefetcher::OnFault(uint64_t vpage, MemoryManager* mm,
                                   std::vector<uint64_t>* out) {
  if (max_window_ == 0) {
    return;
  }
  if (vpage == last_fault_ + 1) {
    streak_ = streak_ < 16 ? streak_ + 1 : streak_;
  } else {
    streak_ = 0;
  }
  last_fault_ = vpage;
  if (streak_ == 0) {
    return;
  }
  uint32_t window = 1u << (streak_ < 5 ? streak_ : 5);
  if (window > max_window_) {
    window = max_window_;
  }
  const uint64_t total = mm->page_table().num_pages();
  for (uint64_t p = vpage + 1; p <= vpage + window && p < total; ++p) {
    if (!mm->HasFreeFrame()) {
      break;  // Prefetching must never take the frames demand faults need.
    }
    if (mm->StateOf(p) != PageState::kRemote) {
      // Already resident or in flight mid-stream: skip it, keep filling the
      // rest of the window (a resident page must not truncate readahead).
      continue;
    }
    mm->BeginFetch(p, /*prefetch=*/true, owner_);
    out->push_back(p);
  }
}

AdaptivePrefetcher::AdaptivePrefetcher(uint32_t max_window, uint16_t owner)
    : max_window_(max_window), owner_(owner) {}

int64_t AdaptivePrefetcher::DetectStride() const {
  // Smallest sub-window first: after a pattern change the most recent deltas
  // re-lock onto the new stride long before the stale tail ages out.
  for (size_t w = 2; w <= count_; w *= 2) {
    // Boyer-Moore vote over the w most recent deltas...
    int64_t candidate = 0;
    size_t votes = 0;
    for (size_t i = 0; i < w; ++i) {
      const int64_t d = deltas_[(head_ + deltas_.size() - 1 - i) % deltas_.size()];
      if (votes == 0) {
        candidate = d;
        votes = 1;
      } else if (d == candidate) {
        ++votes;
      } else {
        --votes;
      }
    }
    // ...then a verification pass: the vote winner must be a strict majority.
    size_t occurrences = 0;
    for (size_t i = 0; i < w; ++i) {
      if (deltas_[(head_ + deltas_.size() - 1 - i) % deltas_.size()] == candidate) {
        ++occurrences;
      }
    }
    if (2 * occurrences > w && candidate != 0) {
      return candidate;
    }
  }
  return 0;
}

void AdaptivePrefetcher::RecordAccess(uint64_t vpage) {
  if (has_last_) {
    deltas_[head_] = static_cast<int64_t>(vpage) - static_cast<int64_t>(last_fault_);
    head_ = (head_ + 1) % deltas_.size();
    if (count_ < deltas_.size()) {
      ++count_;
    }
  }
  last_fault_ = vpage;
  has_last_ = true;
}

void AdaptivePrefetcher::OnTouch(uint64_t vpage) {
  if (max_window_ == 0) {
    return;
  }
  RecordAccess(vpage);
}

void AdaptivePrefetcher::OnFault(uint64_t vpage, MemoryManager* mm,
                                 std::vector<uint64_t>* out) {
  if (max_window_ == 0) {
    return;
  }
  RecordAccess(vpage);
  const int64_t stride = DetectStride();
  if (stride == 0) {
    return;
  }
  const int64_t total = static_cast<int64_t>(mm->page_table().num_pages());
  const uint32_t depth = window_ < max_window_ ? window_ : max_window_;
  for (uint32_t k = 1; k <= depth; ++k) {
    const int64_t p = static_cast<int64_t>(vpage) + stride * static_cast<int64_t>(k);
    if (p < 0 || p >= total) {
      break;  // Ran off the address space in the stride's direction.
    }
    if (!mm->HasFreeFrame()) {
      break;
    }
    if (mm->StateOf(static_cast<uint64_t>(p)) != PageState::kRemote) {
      continue;  // Resident or in flight: keep probing deeper.
    }
    mm->BeginFetch(static_cast<uint64_t>(p), /*prefetch=*/true, owner_);
    out->push_back(static_cast<uint64_t>(p));
  }
}

void AdaptivePrefetcher::OnPrefetchHit() {
  if (window_ < max_window_) {
    ++window_;
  }
}

void AdaptivePrefetcher::OnPrefetchWaste() {
  // Additive decrease: every strided burst inevitably wastes its trailing
  // overshoot, so a multiplicative shrink here would collapse the window at
  // the end of each burst and resurrect the full fault tail. Shrinking by
  // one lets hits and overshoot waste balance at a useful depth while a
  // genuinely patternless phase still walks the window down to 1.
  if (window_ > 1) {
    --window_;
  }
}

std::unique_ptr<Prefetcher> MakePrefetcher(PrefetchPolicy policy, uint32_t max_window,
                                           uint16_t owner) {
  if (policy == PrefetchPolicy::kSequential) {
    return std::make_unique<SequentialPrefetcher>(max_window, owner);
  }
  return std::make_unique<AdaptivePrefetcher>(max_window, owner);
}

}  // namespace adios
