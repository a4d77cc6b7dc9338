// FairLink: a serializing resource with per-flow round-robin service inside
// prioritized traffic classes (docs/QOS.md).
//
// Models both wire serialization and NIC engine stages. Each enqueued item
// occupies the resource for `fixed_ns + bytes * 8 / gbps` of simulated time;
// flows (QPs) with queued items are served one item at a time in round-robin
// order, which is how RNICs arbitrate across QPs. Per-flow queue lengths are
// observable — they are the congestion signal PF-aware dispatching uses.
//
// The flows sit inside class queues served by weighted deficit round-robin:
// each class accumulates `quantum * weight` bytes of credit per scan round
// and serves queued items while its deficit covers them. Weights are clamped
// to >= 1 — the starvation floor that guarantees background classes always
// drain. When the link goes idle the scan resets to class 0, so at equal
// arrival on an idle link demand is always served first. A link starts with
// one class, where WDRR reduces to plain per-flow round-robin;
// EnableClasses() splits it into demand > prefetch > background queues.
//
// Completion path: an item's `done` waits parked in an engine slot while it
// queues. When it enters service, that same slot is queued as the service
// event (Engine::QueueParked, with the link as its SlotOwner), so a stage
// costs one event slot. An item that arrives at an idle, empty link is
// granted in closed form (GrantIdle), without touching the queues.

#ifndef ADIOS_SRC_RDMA_FAIR_LINK_H_
#define ADIOS_SRC_RDMA_FAIR_LINK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/fifo.h"
#include "src/rdma/params.h"
#include "src/sim/engine.h"

namespace adios {

class FairLink final : public SlotOwner {
 public:
  // Observes every class-scheduler grant: (class, bytes). Installed by the
  // fabric on multi-class links to emit kClassDequeue trace events.
  using DequeueHook = std::function<void(uint32_t cls, uint64_t bytes)>;

  // Service disciplines: per-flow round-robin (how RNICs arbitrate QPs) or a
  // single global FIFO (the ablation baseline — no per-flow isolation).
  enum class Discipline { kRoundRobin, kFifo };

  // gbps <= 0 disables the bandwidth term (pure fixed-cost stage).
  FairLink(Engine* engine, std::string name, double gbps, SimDuration fixed_ns = 0,
           Discipline discipline = Discipline::kRoundRobin)
      : engine_(engine),
        name_(std::move(name)),
        gbps_(gbps),
        fixed_ns_(fixed_ns),
        discipline_(discipline) {
    EnableClasses(1, weights_);
  }

  FairLink(const FairLink&) = delete;
  FairLink& operator=(const FairLink&) = delete;

  // Splits the link into `num_classes` prioritized WDRR queues (0 counts as
  // 1). Must be called while the link is idle. Weights are clamped to >= 1
  // (starvation floor).
  void EnableClasses(uint32_t num_classes,
                     const std::array<uint32_t, kNumTrafficClasses>& weights);

  // Registers a flow (QP); returns its id.
  uint32_t AddFlow() {
    for (auto& cq : class_flows_) {
      cq.emplace_back();
    }
    return num_flows_++;
  }

  // Queues an item for `flow`. `done`, any callable invocable as done(),
  // runs when the item finishes service; it waits parked in an engine slot
  // (Engine::Park), so a capture that fits the slot's inline storage costs
  // no allocation. `cls` selects the class queue; classes beyond
  // num_classes() fold onto the lowest-priority queue.
  template <typename F>
  void Enqueue(uint32_t flow, uint64_t bytes, F&& done,
               TrafficClass cls = TrafficClass::kDemand) {
    EnqueueParked(flow, bytes, engine_->Park(std::forward<F>(done)), cls);
  }

  size_t QueuedFor(uint32_t flow) const {
    ADIOS_DCHECK(flow < num_flows_);
    size_t queued = 0;
    for (const auto& cq : class_flows_) {
      queued += cq[flow].size();
    }
    return queued;
  }
  size_t TotalQueued() const { return total_queued_; }
  bool busy() const { return busy_; }
  uint32_t num_classes() const { return num_classes_; }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_items() const { return total_items_; }

  // Per-class accounting, keyed by each item's own TrafficClass (so it is
  // exact on a link with fewer queues than classes). "Delivered" counts
  // service grants; enqueued - delivered = still queued. The link never
  // drops, so posted == delivered + queued holds at all times.
  uint64_t class_enqueued_bytes(uint32_t cls) const { return class_enq_bytes_[cls]; }
  uint64_t class_delivered_bytes(uint32_t cls) const { return class_del_bytes_[cls]; }
  uint64_t class_enqueued_items(uint32_t cls) const { return class_enq_items_[cls]; }
  uint64_t class_delivered_items(uint32_t cls) const { return class_del_items_[cls]; }

  // WDRR scheduler state: class queue `q`'s byte credit and the class the
  // scan stands on.
  uint64_t deficit(uint32_t q) const { return deficit_[q]; }
  uint32_t scan_class() const { return scan_class_; }

  void set_dequeue_hook(DequeueHook hook) { dequeue_hook_ = std::move(hook); }

  // Measurement-window helpers for utilization reporting.
  void MarkWindow() {
    window_bytes_mark_ = total_bytes_;
    window_start_ = engine_->now();
  }
  // Payload-bit utilization of the link over the current window, in [0, 1].
  double WindowUtilization() const;

 private:
  // A queued item; its completion waits in engine slot `done`.
  struct Item {
    uint64_t bytes;
    uint32_t done;
    TrafficClass cls;
  };
  static_assert(sizeof(Item) == 16, "link items stay 16-byte PODs");

  void EnqueueParked(uint32_t flow, uint64_t bytes, uint32_t done, TrafficClass cls);
  void StartNext();
  // WDRR scan: picks the next (class queue, flow) to serve and pops its head
  // item. Returns the serving queue via `queue_out`.
  Item PopNext(uint32_t* queue_out);
  // What PopNext would do for `item`, the only item, on class queue `q`,
  // without the queue round trip: the scan zeroes every class it passes,
  // refills q's deficit ceil((bytes - deficit) / (quantum * weight)) times
  // (each refill after the first wraps the scan once around), and ends on q.
  void GrantIdle(const Item& item, uint32_t q);
  // Counts a grant of `item` from class queue `q` and starts serving it:
  // its parked completion slot becomes the service event.
  void Grant(const Item& item, uint32_t q);
  // The service event of the item in service: delivers its completion, then
  // starts the next item unless the completion already did.
  void RunSlot(uint32_t slot) override;

  Engine* engine_;
  std::string name_;
  double gbps_;
  SimDuration fixed_ns_;
  Discipline discipline_;
  uint32_t num_flows_ = 0;
  size_t total_queued_ = 0;
  bool busy_ = false;
  uint64_t total_bytes_ = 0;
  uint64_t total_items_ = 0;
  uint64_t window_bytes_mark_ = 0;
  SimTime window_start_ = 0;

  // --- Class scheduler state (docs/QOS.md) ---
  // One WDRR quantum: a full page per weight unit, so a weight-1 class earns
  // enough credit each round to move one maximum-size item and can never
  // stall permanently on an oversized head-of-line item.
  static constexpr uint64_t kQuantumBytes = 4096;
  uint32_t num_classes_ = 0;
  std::array<uint32_t, kNumTrafficClasses> weights_ = {1, 1, 1};
  // class_flows_[q][flow] holds one FIFO per (class queue, flow);
  // class_active_[q] is the queue's round-robin (or FIFO) flow order.
  std::vector<std::vector<Fifo<Item>>> class_flows_;
  std::vector<Fifo<uint32_t>> class_active_;
  std::vector<uint64_t> deficit_;
  std::vector<size_t> class_queued_;
  uint32_t scan_class_ = 0;
  std::array<uint64_t, kNumTrafficClasses> class_enq_bytes_ = {};
  std::array<uint64_t, kNumTrafficClasses> class_del_bytes_ = {};
  std::array<uint64_t, kNumTrafficClasses> class_enq_items_ = {};
  std::array<uint64_t, kNumTrafficClasses> class_del_items_ = {};
  DequeueHook dequeue_hook_;
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_FAIR_LINK_H_
