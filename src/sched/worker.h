// Worker: runs request-handling unithreads on one simulated core and owns
// the per-core fault-handling flow (paper §3.3, Fig. 5).
//
// The worker is the paper's per-core event loop: it polls its memory-node CQ
// once per iteration, resumes unithreads whose page fetches completed, and
// otherwise starts the unithread for the next dispatched request. The fault
// policies differ in BlockOnFetch():
//
//   kYield (Adios): register a waiter, context-switch back to the worker
//     loop; the worker keeps executing other unithreads, and resumes this one
//     when it polls the fetch completion.
//   kBusyWait (DiLOS): spin on the CQ until this fetch completes; the core
//     is busy (and the worker blocked) the whole time.
//   kKernelBusyWait (Hermit): kBusyWait plus kernel trap/return costs and
//     kernel network-stack costs per request.

#ifndef ADIOS_SRC_SCHED_WORKER_H_
#define ADIOS_SRC_SCHED_WORKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/fifo.h"
#include "src/base/rng.h"
#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/mem/prefetcher.h"
#include "src/mem/remote_heap.h"
#include "src/obs/metric_registry.h"
#include "src/rdma/fabric.h"
#include "src/rdma/op_tracker.h"
#include "src/sched/config.h"
#include "src/sched/request.h"
#include "src/sched/worker_api.h"
#include "src/sim/cpu_core.h"
#include "src/sim/trace.h"
#include "src/sim/wait_queue.h"
#include "src/unithread/universal_stack.h"

namespace adios {

class Dispatcher;
class Worker;

// One admitted request bound to a unithread buffer. Lives in the buffer's
// payload area (the paper stores the packet and context in the same buffer).
struct RunItem {
  Request* req = nullptr;
  UnithreadBuffer buffer;
  Worker* home = nullptr;      // Worker currently responsible for the unithread.
  SimTime quantum_start = 0;   // For cooperative preemption.
  bool started = false;

  UnithreadContext* ctx() { return buffer.context(); }
};

class Worker final : public WorkerApi {
 public:
  using ReplyFn = std::function<void(Request*)>;
  using HandlerFn = std::function<void(Request*, WorkerApi&)>;

  // Fetches read from `placement`'s replicas and fail over between them as
  // `health` allows; a single node is their one-replica case. `seed` (the
  // system's) seeds the worker's kernel-jitter draws.
  Worker(uint32_t index, Engine* engine, CpuCore* core, MemoryManager* mm, UnithreadPool* pool,
         QueuePair* mem_qp, QueuePair* client_qp, PlacementMap* placement,
         NodeHealthMonitor* health, const SchedConfig& config, uint64_t seed,
         HandlerFn handler, ReplyFn on_reply);

  void set_dispatcher(Dispatcher* d) { dispatcher_ = d; }

  // Spawns the worker fiber.
  void Start();

  uint32_t index() const { return index_; }
  CpuCore* core() { return core_; }
  QueuePair* mem_qp() { return mem_qp_; }
  QueuePair* client_qp() { return client_qp_; }

  // --- Dispatcher-facing ---

  // Centralized policies: a worker accepts one pending request at a time
  // (mailbox of one). Work stealing: a bounded per-worker queue.
  bool CanAccept() const {
    if (cfg_.dispatch_policy == DispatchPolicy::kWorkStealing) {
      return assigned_q_.size() < kStealQueueCap;
    }
    return assigned_q_.empty();
  }
  // The PF-aware congestion signal: in-flight page fetches on this QP.
  uint32_t OutstandingFaults() const { return mem_qp_->outstanding(); }
  void Assign(RunItem* item);
  // Peer workers, for work stealing.
  void set_peers(std::vector<Worker*> peers) { peers_ = std::move(peers); }
  void Wake() { events_.NotifyAll(); }
  size_t QueuedRequests() const { return assigned_q_.size(); }
  size_t ready_size() const { return ready_.size(); }
  size_t preempted_size() const { return preempted_.size(); }
  bool has_running() const { return running_ != nullptr; }

  // Makes a fault-yielded unithread runnable again (may be called by another
  // worker that polled the completion of a shared fetch).
  void EnqueueReady(RunItem* item);

  // --- Stats (the rest are published through RegisterMetrics) ---
  uint64_t completed() const { return completed_; }
  uint64_t steals() const { return steals_; }
  // Reads that proceeded off a partially-landed page (docs/QOS.md).
  uint64_t chunk_resumes() const { return chunk_resumes_; }

  // --- WorkerApi (called by application handlers on unithreads) ---
  void Access(RemoteAddr addr, uint64_t len, bool write) override;
  void Compute(uint64_t cycles) override { core_->Consume(cycles); }
  void MaybePreempt() override;
  RemoteRegion* region() override { return region_; }
  Request* request() override { return running_ != nullptr ? running_->req : nullptr; }
  Rng& rng() override { return rng_; }

  void set_region(RemoteRegion* region) { region_ = region; }
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    tracker_.set_tracer(tracer);
  }
  // Fetch deadline/retry/failover (docs/FAULT_MODEL.md §4); off by default.
  void set_retry(const RetryPolicy& retry) {
    tracker_.set_rules(OpKind::kFetch, OpRules{retry, /*failover=*/true, /*traced=*/true});
  }
  // Publishes the worker's counters as probes labeled {worker=index}.
  void RegisterMetrics(MetricRegistry* registry);
  // Verify-on-fetch (docs/INTEGRITY.md): consulted once per successful READ
  // completion in DrainMemCq. Null = no integrity layer (the default), zero
  // cost on the fetch path.
  void set_integrity(IntegrityLayer* integrity) { integrity_ = integrity; }
  // Link-compression cost model (docs/QOS.md): nanoseconds this core spends
  // decompressing each fetched page, charged per final READ completion in
  // DrainMemCq. 0 (the default) charges nothing.
  void set_decompress_ns(uint64_t ns) { decompress_ns_ = ns; }

  // Unithread entry point (contexts are prepared by the dispatcher).
  static void UnithreadMain(void* arg);

 private:
  static constexpr uint32_t kStealQueueCap = 64;  // Per-worker queue bound (work stealing).

  void Loop();
  void RunItemNow(RunItem* item);
  void FinishRequest(RunItem* item);
  ADIOS_MAY_SUSPEND void AccessPage(uint64_t vpage, bool write);
  // `write` decides early-resume eligibility: a read may resume off the
  // critical chunk (docs/QOS.md); a write must wait for the whole page.
  ADIOS_MAY_SUSPEND void BlockOnFetch(uint64_t vpage, bool write);
  // Returns true when the handler slept on a frame wakeup (yield policies).
  ADIOS_MAY_SUSPEND bool WaitForFreeFrame(uint64_t vpage);
  // Rings one doorbell for the longest prefix of `ops[0, n)` the send queue
  // takes, first waiting out a full queue; tracks what it posted. Returns
  // the prefix length (>= 1).
  size_t PostDoorbell(const ReadOp* ops, size_t n);
  // Charges one post and rings a doorbell for a single READ of `vpage`.
  void PostReadWithBackpressure(uint64_t vpage, TrafficClass cls);
  // Posts the demand READ for `vpage` plus the prefetcher's candidates as
  // one doorbell batch (a batch of one without candidates).
  void PostFaultReads(uint64_t vpage);
  // Polls the memory CQ, maps fetched pages, runs waiters. Returns #polled.
  size_t DrainMemCq();

  uint32_t index_;
  Engine* engine_;
  CpuCore* core_;
  MemoryManager* mm_;
  UnithreadPool* pool_;
  QueuePair* mem_qp_;
  QueuePair* client_qp_;
  SchedConfig cfg_;
  PolicyCosts costs_;  // CostsOf(cfg_.fault_policy).
  HandlerFn handler_;
  ReplyFn on_reply_;
  Dispatcher* dispatcher_ = nullptr;
  RemoteRegion* region_ = nullptr;
  Tracer* tracer_ = Tracer::Off();
  IntegrityLayer* integrity_ = nullptr;

  // Pops a not-yet-started request from the busiest peer's queue (work
  // stealing); nullptr when no peer has queued work.
  RunItem* TrySteal();

  UnithreadContext* fiber_ctx_ = nullptr;
  RunItem* running_ = nullptr;
  std::deque<RunItem*> assigned_q_;  // Dispatcher mailbox (1 deep unless stealing).
  Fifo<RunItem*> ready_;             // Fault-resumed unithreads (highest priority).
  Fifo<RunItem*> preempted_;         // Quantum-expired unithreads.
  bool prefer_preempted_ = false;   // Alternation flag: fresh vs preempted.
  std::vector<Worker*> peers_;
  WaitQueue events_;        // Worker-loop sleep: assigns, ready items, CQ pushes.
  WaitQueue mem_cq_wait_;   // Busy-wait handlers sleeping on CQ activity.
  WaitQueue client_cq_wait_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::vector<uint64_t> prefetch_scratch_;
  std::vector<ReadOp> batch_ops_;  // Scratch for doorbell-batched posts.
  // The poll buffer of DrainMemCq and of FinishRequest's synchronous-TX
  // wait. Each of this worker's CQs has exactly one poller, this worker, and
  // its polls never nest: they run on the worker fiber or on one of its
  // unithreads, and while one of them is suspended inside a poll (a cycle
  // charge or a CQ wait) the core runs nothing else of this worker, since
  // only the worker fiber starts or resumes its unithreads, and no waiter
  // callback polls.
  std::vector<Completion> cq_batch_;
  Rng rng_;
  OpTracker tracker_;  // This QP's fetches.

  uint64_t completed_ = 0;
  uint64_t yields_ = 0;
  uint64_t qp_full_stalls_ = 0;     // Send queue full: PostDoorbell + reposts.
  uint64_t repost_full_stalls_ = 0;  // The tracker-repost share of the above.
  uint64_t preempt_fires_ = 0;
  uint64_t steals_ = 0;
  uint64_t corruptions_detected_ = 0;
  uint64_t decompress_ns_ = 0;  // Per-page decompression charge (0 = off).
  uint64_t chunk_resumes_ = 0;  // Reads satisfied by a partial page.
};

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_WORKER_H_
