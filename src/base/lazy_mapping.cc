#include "src/base/lazy_mapping.h"

#include <sys/mman.h>

#include <cstdint>
#include <utility>

#include "src/base/check.h"

namespace adios {
namespace {

std::byte* MapAnonymous(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ADIOS_CHECK(p != MAP_FAILED);
  return static_cast<std::byte*>(p);
}

}  // namespace

LazyMapping::LazyMapping(size_t bytes, Pages pages) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  if (pages == Pages::kSmall) {
    data_ = MapAnonymous(bytes);
    return;
  }
  MapHugeAligned(bytes);
  AdviseHugePages();
}

void LazyMapping::MapHugeAligned(size_t bytes) {
  ADIOS_CHECK(bytes % 4096 == 0);  // The tail trim starts at base + bytes.
  std::byte* raw = MapAnonymous(bytes + kHugePageBytes);
  const uintptr_t addr = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = (addr + kHugePageBytes - 1) & ~(uintptr_t{kHugePageBytes} - 1);
  const size_t head = aligned - addr;
  if (head > 0) {
    munmap(raw, head);
  }
  munmap(reinterpret_cast<std::byte*>(aligned) + bytes, kHugePageBytes - head);
  data_ = reinterpret_cast<std::byte*>(aligned);
}

void LazyMapping::AdviseHugePages() {
#ifdef MADV_HUGEPAGE
  madvise(data_, size_, MADV_HUGEPAGE);
#endif
}

LazyMapping::~LazyMapping() { Unmap(); }

LazyMapping::LazyMapping(LazyMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

LazyMapping& LazyMapping::operator=(LazyMapping&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void LazyMapping::Unmap() {
  if (data_ != nullptr) {
    munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace adios
