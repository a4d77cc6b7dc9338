// Lazily committed host memory: an anonymous private mmap with
// MAP_NORESERVE, unmapped on destruction.
//
// Reserving a large region costs only address space; the kernel commits a
// page — zero-filled — the first time it is touched. Owners that size their
// memory for the worst case but touch a fraction of it (the unithread pool's
// universal stacks, the remote region, guarded fiber stacks) therefore pay
// host memory and setup time only for what a run actually uses. The base is
// page-aligned, so carved-out stacks need no realignment slack.
//
// Commit granularity. A kSmall mapping commits 4 KiB per first touch: the
// right grain for stacks, whose runs touch a sliver of each. A kHuge mapping
// is for memory that is written end to end, like the remote region: its base
// is aligned to kHugePageBytes and the range is advised MADV_HUGEPAGE, so
// where transparent huge pages are enabled ("always" or "madvise" in
// /sys/kernel/mm/transparent_hugepage/enabled) one fault commits 2 MiB
// instead of 512 faults committing 4 KiB each. The advice is only advice: with
// THP set to "never", or on a kernel without THP, the mapping behaves exactly
// like kSmall. Only the whole 2 MiB blocks inside the range can be huge; a
// tail shorter than that stays 4 KiB.

#ifndef ADIOS_SRC_BASE_LAZY_MAPPING_H_
#define ADIOS_SRC_BASE_LAZY_MAPPING_H_

#include <cstddef>

namespace adios {

class LazyMapping {
 public:
  enum class Pages { kSmall, kHuge };
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  LazyMapping() = default;
  // Reserves `bytes` of zero-on-first-touch memory; aborts if the mapping
  // fails. A zero-byte mapping owns nothing and has a null data(). A kHuge
  // mapping's size must be a multiple of 4 KiB.
  explicit LazyMapping(size_t bytes, Pages pages = Pages::kSmall);
  ~LazyMapping();

  LazyMapping(const LazyMapping&) = delete;
  LazyMapping& operator=(const LazyMapping&) = delete;
  LazyMapping(LazyMapping&& other) noexcept;
  LazyMapping& operator=(LazyMapping&& other) noexcept;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  // Maps `bytes` at a kHugePageBytes-aligned base: over-reserves by one huge
  // page, then unmaps the slack on both sides. Kernels that align large
  // anonymous mappings themselves leave no head slack to trim.
  void MapHugeAligned(size_t bytes);
  // Advises the kernel to back the mapping with transparent huge pages. A
  // refusal (no THP in the kernel) is ignored: the pages stay 4 KiB.
  void AdviseHugePages();
  void Unmap();

  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_LAZY_MAPPING_H_
