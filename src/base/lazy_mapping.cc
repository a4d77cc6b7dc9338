#include "src/base/lazy_mapping.h"

#include <sys/mman.h>

#include <utility>

#include "src/base/check.h"

namespace adios {

LazyMapping::LazyMapping(size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ADIOS_CHECK(p != MAP_FAILED);
  data_ = static_cast<std::byte*>(p);
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
