// Growable FIFO queue on a power-of-two ring.
//
// std::deque allocates a block as its tail crosses into one and frees it as
// its head leaves, so even a queue that never holds more than two items
// touches the heap every few hundred bytes of traffic. This ring only grows
// (doubling) and never shrinks: once a queue has reached its high-water
// depth, pushes and pops are allocation-free. It backs the simulator's hot
// FIFOs (CQ entries, link items, wait-queue sleepers), which hold trivially
// copyable values, so a popped slot is simply left to be overwritten.

#ifndef ADIOS_SRC_BASE_FIFO_H_
#define ADIOS_SRC_BASE_FIFO_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/base/check.h"

namespace adios {

template <typename T>
class Fifo {
  static_assert(std::is_trivially_copyable_v<T>, "popped slots are left unreclaimed");

 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    ADIOS_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    ADIOS_DCHECK(size_ > 0);
    return slots_[head_];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }
  void pop_front() {
    ADIOS_DCHECK(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 4 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // Capacity is zero or a power of two.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_FIFO_H_
