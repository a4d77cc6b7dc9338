#include "src/sched/dispatcher.h"

#include <algorithm>

#include "src/ctrl/overload_control.h"

namespace adios {

Dispatcher::Dispatcher(Engine* engine, CpuCore* core, UnithreadPool* pool, CompletionQueue* cq,
                       std::vector<Worker*> workers, OverloadController* ctrl,
                       const SchedConfig& config, DropFn on_drop)
    : engine_(engine),
      core_(core),
      pool_(pool),
      cq_(cq),
      workers_(std::move(workers)),
      ctrl_(ctrl),
      cfg_(config),
      on_drop_(std::move(on_drop)),
      events_(engine),
      cq_batch_(kCqPollBatch) {
  ADIOS_CHECK(!workers_.empty());
  cq_->set_on_push([this] { events_.NotifyAll(); });
}

void Dispatcher::Start() {
  engine_->SpawnFiber("dispatcher", [this] { Loop(); });
}

void Dispatcher::RegisterMetrics(MetricRegistry* registry) {
  registry->RegisterProbe("dispatcher.received", {},
                          [this] { return static_cast<double>(stats_.received); });
  registry->RegisterProbe("dispatcher.dropped", {},
                          [this] { return static_cast<double>(stats_.dropped); });
  registry->RegisterProbe("dispatcher.dispatched", {},
                          [this] { return static_cast<double>(stats_.dispatched); });
  registry->RegisterProbe("dispatcher.buffers_recycled", {},
                          [this] { return static_cast<double>(stats_.buffers_recycled); });
  registry->RegisterProbe("dispatcher.max_queue_depth", {},
                          [this] { return static_cast<double>(stats_.max_queue_depth); });
  registry->RegisterProbe("dispatcher.queue_depth", {},
                          [this] { return static_cast<double>(queue_depth()); });
}

void Dispatcher::OnRx(Request* req) {
  req->arrive_time = engine_->now();
  ++stats_.received;
  tracer_->Record(engine_->now(), req->id, TraceEvent::kArrive);
  // Overload control (docs/OVERLOAD.md): admission/shed verdict at the front
  // door, before the request can occupy ring or queue space. Drops count in
  // stats_.dropped like RX-ring overflow (kRxRingSize entries), so the trace
  // termination audit (arrived == done + dropped) keeps balancing.
  if (ctrl_->Admit(*req, engine_->now()) != OverloadController::Verdict::kAdmit ||
      rx_ring_.size() >= kRxRingSize) {
    ++stats_.dropped;
    on_drop_(req);
    return;
  }
  rx_ring_.push_back(req);
  events_.NotifyAll();
}

void Dispatcher::Loop() {
  for (;;) {
    bool progress = false;
    progress |= RecycleTxCompletions() > 0;
    progress |= DrainRxRing() > 0;
    progress |= DispatchSome();
    if (!progress) {
      events_.Wait();
    }
  }
}

size_t Dispatcher::RecycleTxCompletions() {
  size_t total = 0;
  std::vector<Completion>& batch = cq_batch_;
  for (;;) {
    const size_t n = cq_->Poll(batch.size(), batch.begin());
    if (n == 0) {
      break;
    }
    core_->Consume(kTxRecycleCycles * n);
    for (size_t i = 0; i < n; ++i) {
      ADIOS_DCHECK(batch[i].type == WorkType::kSend);
      pool_->Release(pool_->FromIndex(static_cast<uint32_t>(batch[i].wr_id)));
      ++stats_.buffers_recycled;
    }
    total += n;
  }
  return total;
}

size_t Dispatcher::DrainRxRing() {
  size_t moved = 0;
  // Bounded batch so dispatching interleaves with draining under load; the
  // central queue is bounded so overload backs up into the RX ring (drops).
  while (!rx_ring_.empty() && moved < 2 * kCqPollBatch &&
         queue_.size() < kCentralQueueLimit) {
    queue_.push_back(rx_ring_.front());
    rx_ring_.pop_front();
    ++moved;
  }
  if (moved > 0) {
    core_->Consume(kRxPollCycles * moved);
  }
  if (queue_.size() > stats_.max_queue_depth) {
    stats_.max_queue_depth = queue_.size();
  }
  return moved;
}

bool Dispatcher::DispatchSome() {
  if (queue_.empty()) {
    return false;
  }
  const uint32_t n = static_cast<uint32_t>(workers_.size());
  const bool pf_aware = cfg_.dispatch_policy == DispatchPolicy::kPfAware;
  // Each idle worker's dispatch key, read once: Consume() below suspends,
  // and Algorithm 1 orders the workers as they stood when the pass began.
  // Round-robin ranks (distance from the cursor) are unique, so taking the
  // minimum key per request reproduces SortByOutstandingPFCount's order with
  // ties rotating round-robin; the baselines order by rank alone.
  idle_scratch_.clear();
  for (Worker* w : workers_) {
    // Elastic scaling: workers outside the active set finish what they have
    // but receive no new assignments until the controller grows the set.
    if (!ctrl_->WorkerActive(w->index()) || !w->CanAccept()) {
      continue;
    }
    const uint64_t rank = (w->index() + n - rr_cursor_) % n;
    const uint64_t faults = pf_aware ? w->OutstandingFaults() : 0;
    idle_scratch_.push_back({(faults << 32) | rank, w});
  }

  bool any = false;
  while (!idle_scratch_.empty() && !queue_.empty()) {
    UnithreadBuffer buffer = pool_->Acquire();
    if (!buffer.valid()) {
      break;  // Unithread pool exhausted: back-pressure the queue.
    }
    auto pick = std::min_element(idle_scratch_.begin(), idle_scratch_.end());
    Worker* w = pick->worker;
    *pick = idle_scratch_.back();
    idle_scratch_.pop_back();
    static_assert(sizeof(RunItem) <= 256, "RunItem must fit in the payload area");
    auto* item = new (buffer.payload()) RunItem();
    item->req = queue_.front();
    item->buffer = buffer;
    buffer.ResetContext(&Worker::UnithreadMain, item, /*parent=*/nullptr);
    queue_.pop_front();
    ++stats_.dispatched;
    core_->Consume(kDispatchCycles);
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kDispatch, w->index());
    w->Assign(item);
    rr_cursor_ = (w->index() + 1) % n;
    any = true;
  }
  if (any && cfg_.dispatch_policy == DispatchPolicy::kWorkStealing) {
    // Idle peers may steal from the queues just filled.
    for (Worker* w : workers_) {
      w->Wake();
    }
  }
  return any;
}

}  // namespace adios
