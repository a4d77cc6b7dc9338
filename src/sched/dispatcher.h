// Dispatcher: the single-queue FCFS request distributor (paper §3.4).
//
// One pinned core receives client packets, keeps the central queue, and
// assigns requests to idle workers. Implements:
//  - single queueing (centralized FCFS, no work stealing);
//  - PF-aware dispatching (Algorithm 1): among idle workers, those with the
//    fewest outstanding page fetches on their RDMA QP are served first;
//  - polling delegation: workers' transmit completions are raised in the
//    dispatcher's CQ, which recycles the unithread buffers while it polls
//    for incoming packets anyway.

#ifndef ADIOS_SRC_SCHED_DISPATCHER_H_
#define ADIOS_SRC_SCHED_DISPATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/fifo.h"
#include "src/rdma/completion.h"
#include "src/sched/config.h"
#include "src/sched/worker.h"
#include "src/sim/cpu_core.h"
#include "src/sim/trace.h"
#include "src/sim/wait_queue.h"
#include "src/unithread/universal_stack.h"

namespace adios {

class OverloadController;

class Dispatcher {
 public:
  using DropFn = std::function<void(Request*)>;

  struct Stats {
    uint64_t received = 0;
    uint64_t dropped = 0;       // RX ring overflow + overload-control drops.
    uint64_t dispatched = 0;    // Requests handed to workers.
    uint64_t buffers_recycled = 0;
    uint64_t max_queue_depth = 0;
  };

  // Overload control (docs/OVERLOAD.md): OnRx consults `ctrl`'s admission
  // and shed verdict before the RX ring, and DispatchSome assigns only to
  // workers its scaling loop marks active. A controller with every loop off
  // admits everything and keeps every worker active.
  Dispatcher(Engine* engine, CpuCore* core, UnithreadPool* pool, CompletionQueue* cq,
             std::vector<Worker*> workers, OverloadController* ctrl, const SchedConfig& config,
             DropFn on_drop);

  // Spawns the dispatcher fiber.
  void Start();

  // Packet arrival from the client link (called in event context).
  void OnRx(Request* req);

  // Wakes the dispatcher loop (worker mailbox freed, buffers returned, ...).
  void Poke() { events_.NotifyAll(); }

  CompletionQueue* cq() { return cq_; }
  const Stats& stats() const { return stats_; }
  size_t queue_depth() const { return queue_.size() + rx_ring_.size(); }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // Publishes the dispatcher's counters and queue depth as probes.
  void RegisterMetrics(MetricRegistry* registry);

 private:
  void Loop();
  size_t RecycleTxCompletions();
  size_t DrainRxRing();
  bool DispatchSome();

  Engine* engine_;
  CpuCore* core_;
  UnithreadPool* pool_;
  CompletionQueue* cq_;
  std::vector<Worker*> workers_;
  OverloadController* ctrl_;
  SchedConfig cfg_;
  DropFn on_drop_;

  Tracer* tracer_ = Tracer::Off();
  Fifo<Request*> rx_ring_;  // NIC RX ring: arrivals beyond kRxRingSize drop.
  Fifo<Request*> queue_;  // The single centralized FCFS queue.
  WaitQueue events_;
  uint32_t rr_cursor_ = 0;
  // DispatchSome's idle workers with their dispatch keys: outstanding
  // faults (kPfAware only) in the high half, round-robin rank in the low.
  struct IdleWorker {
    uint64_t key;
    Worker* worker;
    bool operator<(const IdleWorker& o) const { return key < o.key; }
  };
  std::vector<IdleWorker> idle_scratch_;
  // RecycleTxCompletions' poll buffer, reused by every poll: the dispatcher
  // fiber is this CQ's only poller, and it never polls re-entrantly.
  std::vector<Completion> cq_batch_;
  Stats stats_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_DISPATCHER_H_
