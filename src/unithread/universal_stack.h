// Universal stack buffers and the unithread pool (paper §3.2).
//
// Each unithread occupies exactly one contiguous buffer laid out per Fig. 4,
// with a canary strip (src/check/stack_guard.h) carved out between the
// context and the stack — the strip sits where a descending stack overflows,
// so an overflow tramples the canary before it can corrupt the context or
// the packet payload:
//
//   | packet header + payload | CTX (80 B) | canary | context's stack ... |
//   0                       mtu       mtu+80    mtu+80+64          buf_size
//
// The networking stack writes the request payload at the head of the buffer;
// the context struct follows at the MTU boundary; the remaining space is the
// unithread's *universal stack*, shared by application and kernel code (no
// separate exception stack). The pool reserves address space for a fixed
// number of buffers, so request handling never allocates; it commits and
// canaries a buffer on its first Acquire(), so host memory scales with the
// buffers a run touches, not with the pool's capacity. Release() verifies
// the canary; Audit() sweeps every buffer handed out so far (invariant
// checker).

#ifndef ADIOS_SRC_UNITHREAD_UNIVERSAL_STACK_H_
#define ADIOS_SRC_UNITHREAD_UNIVERSAL_STACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/check.h"
#include "src/base/lazy_mapping.h"
#include "src/check/stack_guard.h"
#include "src/unithread/context.h"

namespace adios {

// A view over one unithread buffer. Non-owning; the pool owns the memory.
class UnithreadBuffer {
 public:
  UnithreadBuffer() = default;
  UnithreadBuffer(std::byte* base, size_t size, size_t mtu) : base_(base), size_(size), mtu_(mtu) {
    ADIOS_DCHECK(base != nullptr);
    ADIOS_DCHECK(mtu % alignof(UnithreadContext) == 0);
    ADIOS_DCHECK(size > mtu + sizeof(UnithreadContext) + kStackCanaryBytes + 512);
  }

  bool valid() const { return base_ != nullptr; }

  // Packet payload region at the head of the buffer.
  std::byte* payload() { return base_; }
  const std::byte* payload() const { return base_; }
  size_t payload_capacity() const { return mtu_; }

  // The unithread context embedded after the payload.
  UnithreadContext* context() {
    return reinterpret_cast<UnithreadContext*>(base_ + mtu_);
  }

  // The overflow canary strip between the context and the stack.
  std::byte* canary() { return base_ + mtu_ + sizeof(UnithreadContext); }
  const std::byte* canary() const { return base_ + mtu_ + sizeof(UnithreadContext); }

  // The universal stack region: everything after the context and canary.
  std::byte* stack_low() { return base_ + mtu_ + sizeof(UnithreadContext) + kStackCanaryBytes; }
  size_t stack_size() const {
    return size_ - mtu_ - sizeof(UnithreadContext) - kStackCanaryBytes;
  }

  size_t buffer_size() const { return size_; }

  // Prepares the embedded context to run entry(arg) on the universal stack.
  void ResetContext(ContextEntry entry, void* arg, UnithreadContext* parent) {
    context()->Reset(stack_low(), stack_size(), entry, arg, parent);
  }

 private:
  std::byte* base_ = nullptr;
  size_t size_ = 0;
  size_t mtu_ = 0;
};

// Fixed-capacity pool of unithread buffers (the paper configures 131,072).
// Acquire/Release are O(1); Acquire fails (returns invalid buffer) when the
// pool is exhausted, which the scheduler treats as back-pressure.
//
// The arena is a LazyMapping: untouched buffers cost address space only.
// The LIFO free list starts at index 0 and reuses the most recently
// released buffer first, so the buffers handed out so far always form the
// prefix [0, prepared). A buffer's canary (and paint) is written when the
// watermark first passes it.
class UnithreadPool {
 public:
  // Stacks are roomy because handlers execute real C++ on them. ASan
  // redzones inflate every frame, so the sanitized build doubles them to run
  // the same code without overflowing.
#if defined(__SANITIZE_ADDRESS__)
  static constexpr size_t kDefaultBufferSize = 64 * 1024;
#else
  static constexpr size_t kDefaultBufferSize = 32 * 1024;
#endif

  struct Options {
    // Pool capacity in unithreads. The paper pre-allocates 131,072; the
    // simulation's in-flight population is far smaller, so 8192 buffers
    // (still >10x any observed peak). The arena only reserves address
    // space, so host memory scales with the buffers a run touches (its peak
    // in-flight population), not with `count`.
    size_t count = 8192;
    // Total buffer bytes per unithread, 16-aligned (kDefaultBufferSize).
    size_t buffer_size = kDefaultBufferSize;
    size_t mtu = 1536;  // Payload area (network MTU), 16-aligned.
    // Paint each stack on its first Acquire for high-water-mark recovery in
    // Audit(). Off by default: painting commits the whole stack, and the HWM
    // scan touches every stack byte of each prepared buffer on each audit.
    bool paint_stacks = false;
  };

  explicit UnithreadPool(const Options& options);

  // Non-copyable: buffers reference the arena.
  UnithreadPool(const UnithreadPool&) = delete;
  UnithreadPool& operator=(const UnithreadPool&) = delete;

  // Returns an invalid buffer when the pool is exhausted.
  ADIOS_NO_SUSPEND UnithreadBuffer Acquire();
  ADIOS_NO_SUSPEND void Release(UnithreadBuffer buffer);

  // Reconstructs the buffer for a pool index (contexts carry their index in
  // `id`, so completion wr_ids can name buffers).
  UnithreadBuffer FromIndex(uint32_t idx) {
    ADIOS_CHECK(idx < options_.count);
    return UnithreadBuffer(arena_.data() + static_cast<size_t>(idx) * options_.buffer_size,
                           options_.buffer_size, options_.mtu);
  }

  size_t capacity() const { return options_.count; }
  size_t available() const { return free_.size(); }
  size_t in_use() const { return options_.count - free_.size(); }

  // Address space reserved for the pool in bytes (an upper bound on the
  // host memory it can commit).
  size_t MemoryFootprint() const { return options_.count * options_.buffer_size; }

  // Sweeps every prepared buffer's canary and (when painted) high-water
  // mark, and cross-checks the free list: no duplicates or out-of-range
  // indices, and every index at or above the watermark still free.
  struct AuditResult {
    size_t buffers_checked = 0;  // Prepared buffers whose canary was verified.
    size_t canary_violations = 0;
    bool free_list_ok = true;
    size_t max_high_water = 0;  // 0 unless Options::paint_stacks.
  };
  AuditResult Audit() const;

 private:
  Options options_;
  LazyMapping arena_;
  std::vector<uint32_t> free_;  // Stack of free buffer indices.
  size_t prepared_ = 0;         // Watermark: buffers [0, prepared_) are canaried.
};

}  // namespace adios

#endif  // ADIOS_SRC_UNITHREAD_UNIVERSAL_STACK_H_
