#include "src/unithread/universal_stack.h"

namespace adios {

UnithreadPool::UnithreadPool(const Options& options) : options_(options) {
  ADIOS_CHECK(options_.count > 0);
  ADIOS_CHECK_EQ(options_.mtu % alignof(UnithreadContext), 0u);
  // 16-aligned buffers keep every embedded stack 16-aligned at allocation
  // time (the SysV ABI requirement), not just after Reset's rounding.
  ADIOS_CHECK_EQ(options_.buffer_size % 16, 0u);
  ADIOS_CHECK_GT(options_.buffer_size,
                 options_.mtu + sizeof(UnithreadContext) + kStackCanaryBytes + 512);

  // Reserved, not committed: a buffer's pages are zero-filled by the kernel
  // when Acquire first writes its canary.
  arena_ = LazyMapping(options_.count * options_.buffer_size);
  free_.reserve(options_.count);
  // LIFO free list: most-recently-released buffer is reused first, which
  // keeps the hot set of stacks small and cache-friendly — and, starting
  // from index 0, keeps every buffer ever handed out below the watermark.
  for (size_t i = options_.count; i > 0; --i) {
    free_.push_back(static_cast<uint32_t>(i - 1));
  }
}

UnithreadBuffer UnithreadPool::Acquire() {
  if (free_.empty()) {
    return UnithreadBuffer();
  }
  const uint32_t idx = free_.back();
  free_.pop_back();
  UnithreadBuffer buf = FromIndex(idx);
  if (idx >= prepared_) {
    // First hand-out: only the next never-used index can surface here.
    ADIOS_CHECK_EQ(idx, prepared_);
    WriteStackCanary(buf.canary(), kStackCanaryBytes);
    if (options_.paint_stacks) {
      PaintStack(buf.stack_low(), buf.stack_size());
    }
    ++prepared_;
  }
  buf.context()->id = idx;
  return buf;
}

void UnithreadPool::Release(UnithreadBuffer buffer) {
  ADIOS_CHECK(buffer.valid());
  const std::byte* base = buffer.payload();
  const ptrdiff_t offset = base - arena_.data();
  ADIOS_CHECK(offset >= 0);
  ADIOS_CHECK_EQ(static_cast<size_t>(offset) % options_.buffer_size, 0u);
  const uint32_t idx = static_cast<uint32_t>(static_cast<size_t>(offset) / options_.buffer_size);
  ADIOS_CHECK_LT(idx, prepared_);  // Never handed out: not ours to release.
  ADIOS_DCHECK(free_.size() < options_.count);
  // A trampled canary means this unithread overflowed its universal stack at
  // some point during its life; catch it at retirement, with the buffer
  // index in hand, rather than letting the corruption spread on reuse.
  ADIOS_CHECK(StackCanaryIntact(buffer.canary(), kStackCanaryBytes));
  free_.push_back(idx);
}

UnithreadPool::AuditResult UnithreadPool::Audit() const {
  AuditResult result;
  // Free-list integrity: every index in range, no duplicates, and every
  // buffer at or above the watermark (never handed out) still free.
  std::vector<bool> seen(options_.count, false);
  size_t unprepared_free = 0;
  for (uint32_t idx : free_) {
    if (idx >= options_.count || seen[idx]) {
      result.free_list_ok = false;
      break;
    }
    seen[idx] = true;
    if (idx >= prepared_) {
      ++unprepared_free;
    }
  }
  if (unprepared_free != options_.count - prepared_) {
    result.free_list_ok = false;
  }
  auto* self = const_cast<UnithreadPool*>(this);
  for (size_t i = 0; i < prepared_; ++i) {
    UnithreadBuffer buf = self->FromIndex(static_cast<uint32_t>(i));
    ++result.buffers_checked;
    if (!StackCanaryIntact(buf.canary(), kStackCanaryBytes)) {
      ++result.canary_violations;
    }
    if (options_.paint_stacks) {
      const size_t hwm = StackHighWaterMark(buf.stack_low(), buf.stack_size());
      if (hwm > result.max_high_water) {
        result.max_high_water = hwm;
      }
    }
  }
  return result;
}

}  // namespace adios
