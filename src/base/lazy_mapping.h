// Lazily committed host memory: an anonymous private mmap with
// MAP_NORESERVE, unmapped on destruction.
//
// Reserving a large region costs only address space; the kernel commits a
// page — zero-filled — the first time it is touched. Owners that size their
// memory for the worst case but touch a fraction of it (the unithread pool's
// universal stacks, the remote region, guarded fiber stacks) therefore pay
// host memory and setup time only for what a run actually uses. The base is
// page-aligned, so carved-out stacks need no realignment slack.

#ifndef ADIOS_SRC_BASE_LAZY_MAPPING_H_
#define ADIOS_SRC_BASE_LAZY_MAPPING_H_

#include <cstddef>

namespace adios {

class LazyMapping {
 public:
  LazyMapping() = default;
  // Reserves `bytes` of zero-on-first-touch memory; aborts if the mapping
  // fails. A zero-byte mapping owns nothing and has a null data().
  explicit LazyMapping(size_t bytes);
  ~LazyMapping();

  LazyMapping(const LazyMapping&) = delete;
  LazyMapping& operator=(const LazyMapping&) = delete;
  LazyMapping(LazyMapping&& other) noexcept;
  LazyMapping& operator=(LazyMapping&& other) noexcept;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void Unmap();

  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_LAZY_MAPPING_H_
