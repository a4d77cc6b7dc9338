#include "src/check/stack_guard.h"

#include <cstring>

#include "src/base/check.h"

namespace adios {

void WriteStackCanary(std::byte* low, size_t bytes) {
  ADIOS_CHECK(low != nullptr);
  ADIOS_CHECK_EQ(bytes % sizeof(kStackCanaryWord), 0u);
  for (size_t off = 0; off < bytes; off += sizeof(kStackCanaryWord)) {
    std::memcpy(low + off, &kStackCanaryWord, sizeof(kStackCanaryWord));
  }
}

bool StackCanaryIntact(const std::byte* low, size_t bytes) {
  for (size_t off = 0; off < bytes; off += sizeof(kStackCanaryWord)) {
    uint64_t word;
    std::memcpy(&word, low + off, sizeof(word));
    if (word != kStackCanaryWord) {
      return false;
    }
  }
  return true;
}

void PaintStack(std::byte* low, size_t bytes) {
  std::memset(low, static_cast<int>(kStackPaintByte), bytes);
}

size_t StackHighWaterMark(const std::byte* low, size_t bytes) {
  size_t untouched = 0;
  while (untouched < bytes && low[untouched] == kStackPaintByte) {
    ++untouched;
  }
  return bytes - untouched;
}

GuardedStack::GuardedStack(size_t usable_bytes, bool paint) {
  ADIOS_CHECK_GT(usable_bytes, 0u);
  ADIOS_CHECK_EQ(usable_bytes % 16, 0u);
  // The mapping is page-aligned, so the canary strip at its base — and the
  // usable region kStackCanaryBytes above it — is 16-aligned as is.
  storage_ = LazyMapping(kStackCanaryBytes + usable_bytes);
  std::byte* canary = storage_.data();
  WriteStackCanary(canary, kStackCanaryBytes);
  usable_ = canary + kStackCanaryBytes;
  size_ = usable_bytes;
  painted_ = paint;
  if (paint) {
    PaintStack(usable_, size_);
  }
}

bool GuardedStack::CanaryIntact() const {
  if (usable_ == nullptr) {
    return true;
  }
  return StackCanaryIntact(usable_ - kStackCanaryBytes, kStackCanaryBytes);
}

size_t GuardedStack::HighWaterMark() const {
  if (usable_ == nullptr || !painted_) {
    return 0;
  }
  return StackHighWaterMark(usable_, size_);
}

}  // namespace adios
