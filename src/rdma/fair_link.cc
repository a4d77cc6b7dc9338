#include "src/rdma/fair_link.h"

#include <algorithm>

namespace adios {

void FairLink::EnableClasses(uint32_t num_classes,
                             const std::array<uint32_t, kNumTrafficClasses>& weights) {
  ADIOS_CHECK(total_queued_ == 0 && !busy_);
  ADIOS_CHECK(num_classes <= kNumTrafficClasses);
  num_classes_ = std::max<uint32_t>(1, num_classes);
  weights_ = weights;
  for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
    // Starvation floor: a zero weight would let the scan skip the class
    // forever; every class must accrue credit each round.
    weights_[c] = std::max<uint32_t>(1, weights_[c]);
  }
  class_flows_.assign(num_classes_, std::vector<Fifo<Item>>(num_flows_));
  class_active_.assign(num_classes_, {});
  deficit_.assign(num_classes_, 0);
  class_queued_.assign(num_classes_, 0);
  scan_class_ = 0;
}

void FairLink::EnqueueParked(uint32_t flow, uint64_t bytes, uint32_t done, TrafficClass cls) {
  ADIOS_CHECK(flow < num_flows_);
  const auto own = static_cast<uint32_t>(cls);
  // Fold overflow classes onto the lowest-priority queue.
  const uint32_t q = std::min(own, num_classes_ - 1);
  class_enq_bytes_[own] += bytes;
  ++class_enq_items_[own];
  if (!busy_ && total_queued_ == 0) {
    GrantIdle(Item{bytes, done, cls}, q);
    return;
  }
  auto& fq = class_flows_[q][flow];
  const bool was_empty = fq.empty();
  fq.push_back(Item{bytes, done, cls});
  ++total_queued_;
  ++class_queued_[q];
  if (discipline_ == Discipline::kFifo || was_empty) {
    // FIFO gives every item its own service-order slot (global arrival
    // order); round-robin lists each backlogged flow once.
    class_active_[q].push_back(flow);
  }
  if (!busy_) {
    StartNext();
  }
}

FairLink::Item FairLink::PopNext(uint32_t* queue_out) {
  // Weighted deficit round-robin over the class queues. The scan pointer and
  // deficits persist across grants while the link stays backlogged; an empty
  // class forfeits its deficit. StartNext resets the scan to class 0 when
  // the link idles, so a fresh burst always opens with the demand class.
  for (;;) {
    const uint32_t c = scan_class_;
    if (class_queued_[c] == 0) {
      deficit_[c] = 0;
      scan_class_ = (scan_class_ + 1) % num_classes_;
      continue;
    }
    const uint32_t flow = class_active_[c].front();
    ADIOS_DCHECK(!class_flows_[c][flow].empty());
    const uint64_t head_bytes = class_flows_[c][flow].front().bytes;
    if (deficit_[c] < head_bytes) {
      deficit_[c] += static_cast<uint64_t>(kQuantumBytes) * weights_[c];
      scan_class_ = (scan_class_ + 1) % num_classes_;
      continue;
    }
    deficit_[c] -= head_bytes;
    class_active_[c].pop_front();
    const Item item = class_flows_[c][flow].front();
    class_flows_[c][flow].pop_front();
    --class_queued_[c];
    if (discipline_ == Discipline::kRoundRobin && !class_flows_[c][flow].empty()) {
      class_active_[c].push_back(flow);  // Round-robin: back of the service order.
    }
    *queue_out = c;
    return item;
  }
}

void FairLink::GrantIdle(const Item& item, uint32_t q) {
  // Every class but q is empty, so the scan from scan_class_ zeroes the
  // classes before q; when q's deficit falls short, each refill moves the
  // scan once around the ring, zeroing every other class.
  const uint64_t quantum = kQuantumBytes * weights_[q];
  uint64_t& deficit = deficit_[q];
  if (deficit >= item.bytes) {
    for (uint32_t c = scan_class_; c != q; c = (c + 1) % num_classes_) {
      deficit_[c] = 0;
    }
  } else {
    const uint64_t refills = (item.bytes - deficit + quantum - 1) / quantum;
    const uint64_t own = deficit + refills * quantum;
    std::fill(deficit_.begin(), deficit_.end(), 0);
    deficit = own;
  }
  deficit -= item.bytes;
  scan_class_ = q;
  Grant(item, q);
}

void FairLink::StartNext() {
  ADIOS_DCHECK(!busy_);
  if (total_queued_ == 0) {
    // Idle link: restart the priority scan at demand and drop stale credit,
    // so the next burst's first grant is deterministic.
    scan_class_ = 0;
    std::fill(deficit_.begin(), deficit_.end(), 0);
    return;
  }
  uint32_t queue = 0;
  const Item item = PopNext(&queue);
  --total_queued_;
  Grant(item, queue);
}

void FairLink::Grant(const Item& item, uint32_t q) {
  const auto own = static_cast<uint32_t>(item.cls);
  class_del_bytes_[own] += item.bytes;
  ++class_del_items_[own];
  if (dequeue_hook_) {
    dequeue_hook_(q, item.bytes);
  }
  busy_ = true;
  SimDuration service = fixed_ns_;
  if (gbps_ > 0.0) {
    service += FabricParams::SerializationNs(item.bytes, gbps_);
  }
  total_bytes_ += item.bytes;
  ++total_items_;
  engine_->QueueParked(service, item.done, this);
}

void FairLink::RunSlot(uint32_t slot) {
  busy_ = false;
  // Deliver before starting the next item so completion order is stable.
  engine_->RunParked(slot);
  if (!busy_) {
    StartNext();
  }
}

double FairLink::WindowUtilization() const {
  const SimTime now = engine_->now();
  if (now <= window_start_ || gbps_ <= 0.0) {
    return 0.0;
  }
  const double bits = static_cast<double>(total_bytes_ - window_bytes_mark_) * 8.0;
  const double seconds = static_cast<double>(now - window_start_) * 1e-9;
  return bits / (gbps_ * 1e9 * seconds);
}

}  // namespace adios
