// Stack guard canaries, paint, and high-water-mark accounting.
//
// Every real stack in the runtime — engine fibers and the pool's universal
// stacks — gets a canary strip immediately *below* its usable region (the
// direction a descending x86-64 stack overflows into) so an overflow trips a
// deterministic check instead of silently corrupting the neighbouring
// buffer. Optionally the usable region is painted with a recognizable byte
// pattern at allocation, which lets audits recover the deepest stack depth
// ever reached (the high-water mark) without any per-switch cost.
//
// This header has no dependencies beyond src/base so both the unithread and
// sim layers can link it (library adios_check_stack).

#ifndef ADIOS_SRC_CHECK_STACK_GUARD_H_
#define ADIOS_SRC_CHECK_STACK_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/base/lazy_mapping.h"

namespace adios {

// Canary strip size. A multiple of 16 so carving it out of a buffer keeps
// 16-byte stack alignment intact.
inline constexpr size_t kStackCanaryBytes = 64;

// The repeating canary word. Deliberately not a plausible pointer, length,
// or ASCII so accidental matches are vanishingly unlikely.
inline constexpr uint64_t kStackCanaryWord = 0xAD105AFE57ACCAFEull;

// Paint byte for unused stack bytes (high-water-mark recovery).
inline constexpr std::byte kStackPaintByte{0x5A};

// Fills [low, low+bytes) with the canary pattern. `bytes` is normally
// kStackCanaryBytes; any multiple of 8 works.
void WriteStackCanary(std::byte* low, size_t bytes = kStackCanaryBytes);

// True when a canary strip written by WriteStackCanary is untouched.
bool StackCanaryIntact(const std::byte* low, size_t bytes = kStackCanaryBytes);

// Fills a not-yet-executing stack region with the paint pattern.
void PaintStack(std::byte* low, size_t bytes);

// Bytes of [low, low+bytes) ever used by a descending stack that was painted
// before first use: the distance from the first non-paint byte (scanning up
// from `low`) to the top of the region.
size_t StackHighWaterMark(const std::byte* low, size_t bytes);

// An owning, page-aligned stack allocation with a canary strip below the
// usable region and (optionally) paint for high-water-mark accounting. The
// memory is a LazyMapping, so unpainted stack pages are committed only when
// the stack first grows into them.
class GuardedStack {
 public:
  GuardedStack() = default;
  explicit GuardedStack(size_t usable_bytes, bool paint = true);

  GuardedStack(const GuardedStack&) = delete;
  GuardedStack& operator=(const GuardedStack&) = delete;
  GuardedStack(GuardedStack&& other) noexcept { *this = std::move(other); }
  GuardedStack& operator=(GuardedStack&& other) noexcept {
    storage_ = std::move(other.storage_);
    usable_ = std::exchange(other.usable_, nullptr);
    size_ = std::exchange(other.size_, 0);
    painted_ = other.painted_;
    return *this;
  }

  bool valid() const { return usable_ != nullptr; }
  std::byte* data() { return usable_; }
  const std::byte* data() const { return usable_; }
  size_t size() const { return size_; }

  bool CanaryIntact() const;
  // Deepest usage ever observed, in bytes; 0 when the stack was not painted.
  size_t HighWaterMark() const;

 private:
  LazyMapping storage_;
  std::byte* usable_ = nullptr;
  size_t size_ = 0;
  bool painted_ = false;
};

}  // namespace adios

#endif  // ADIOS_SRC_CHECK_STACK_GUARD_H_
