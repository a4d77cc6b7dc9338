#include "src/sched/worker.h"

#include <algorithm>

#include "src/sched/dispatcher.h"

namespace adios {

Worker::Worker(uint32_t index, Engine* engine, CpuCore* core, MemoryManager* mm,
               UnithreadPool* pool, QueuePair* mem_qp, QueuePair* client_qp,
               PlacementMap* placement, NodeHealthMonitor* health, const SchedConfig& config,
               uint64_t seed, HandlerFn handler, ReplyFn on_reply)
    : index_(index),
      engine_(engine),
      core_(core),
      mm_(mm),
      pool_(pool),
      mem_qp_(mem_qp),
      client_qp_(client_qp),
      cfg_(config),
      costs_(CostsOf(config.fault_policy)),
      handler_(std::move(handler)),
      on_reply_(std::move(on_reply)),
      events_(engine),
      mem_cq_wait_(engine),
      client_cq_wait_(engine),
      prefetcher_(MakePrefetcher(config.prefetch_policy, config.prefetch_window,
                                 static_cast<uint16_t>(index))),
      cq_batch_(kCqPollBatch),
      rng_(seed * 7919 + index),
      tracker_(engine, placement, health) {
  mem_qp_->cq()->set_on_push([this] {
    mem_cq_wait_.NotifyAll();
    events_.NotifyAll();
  });
  if (!cfg_.polling_delegation) {
    client_qp_->cq()->set_on_push([this] { client_cq_wait_.NotifyAll(); });
  }
  tracker_.set_hooks(
      OpKind::kFetch,
      [this](const OpId& id, const TrackedOp& op) {
        ADIOS_DCHECK(mm_->StateOf(id.vpage) == PageState::kFetching);
        if (mem_qp_->PostRead(mm_->page_bytes(), id.wr_id(), op.node, op.cls)) {
          return true;
        }
        ++qp_full_stalls_;
        ++repost_full_stalls_;
        return false;
      },
      // Budget and replicas exhausted: waiters fail their requests.
      [this](const OpId& id, TrackedOp&) { mm_->AbortFetch(id.vpage); });
  // Prefetch-cache outcomes for fetches this worker issued route back to its
  // detector's window adaptation — even when another worker (or the
  // reclaimer) resolves the page.
  mm_->set_prefetch_feedback(static_cast<uint16_t>(index), [this](bool hit) {
    if (hit) {
      prefetcher_->OnPrefetchHit();
    } else {
      prefetcher_->OnPrefetchWaste();
    }
  });
}

void Worker::Start() {
  Fiber* fiber = engine_->SpawnFiber("worker-" + std::to_string(index_), [this] { Loop(); });
  fiber_ctx_ = fiber->ctx();
}

void Worker::Assign(RunItem* item) {
  ADIOS_DCHECK(CanAccept());
  assigned_q_.push_back(item);
  events_.NotifyAll();
}

RunItem* Worker::TrySteal() {
  Worker* victim = nullptr;
  size_t most = 0;
  for (Worker* peer : peers_) {
    if (peer != this && peer->assigned_q_.size() > most) {
      most = peer->assigned_q_.size();
      victim = peer;
    }
  }
  if (victim == nullptr) {
    return nullptr;
  }
  ++steals_;
  // Steal the newest unstarted request: the victim keeps FIFO order for the
  // items it will serve itself.
  RunItem* item = victim->assigned_q_.back();
  victim->assigned_q_.pop_back();
  ADIOS_DCHECK(!item->started);
  return item;
}

void Worker::EnqueueReady(RunItem* item) {
  ready_.push_back(item);
  events_.NotifyAll();
}

void Worker::UnithreadMain(void* arg) {
  auto* item = static_cast<RunItem*>(arg);
  Worker* worker = item->home;
  ADIOS_CHECK(worker != nullptr);
  worker->handler_(item->req, *worker);
}

void Worker::Loop() {
  for (;;) {
    core_->Consume(kWorkerLoopCycles);
    // Poll the NIC's queue once before starting new unithreads (Fig. 5,
    // step 7's precondition).
    DrainMemCq();
    if (!ready_.empty()) {
      RunItem* item = ready_.front();
      ready_.pop_front();
      RunItemNow(item);
      continue;
    }
    // Fresh requests and preempted unithreads alternate (Shinjuku-style
    // FIFO approximation): a preempted task gives way to at most one newer
    // request per round, so it cannot starve under sustained load.
    const bool run_preempted =
        !preempted_.empty() && (assigned_q_.empty() || prefer_preempted_);
    if (run_preempted) {
      RunItem* item = preempted_.front();
      preempted_.pop_front();
      prefer_preempted_ = false;
      RunItemNow(item);
      continue;
    }
    if (!assigned_q_.empty()) {
      RunItem* item = assigned_q_.front();
      assigned_q_.pop_front();
      prefer_preempted_ = true;
      dispatcher_->Poke();  // Mailbox capacity freed.
      RunItemNow(item);
      continue;
    }
    if (cfg_.dispatch_policy == DispatchPolicy::kWorkStealing) {
      core_->Consume(kStealCycles);  // Peer-queue scan (§3.4's objection).
      RunItem* stolen = TrySteal();
      if (stolen != nullptr) {
        RunItemNow(stolen);
        continue;
      }
    }
    events_.Wait();
  }
}

void Worker::RunItemNow(RunItem* item) {
  ADIOS_DCHECK(running_ == nullptr);
  running_ = item;
  item->home = this;
  UnithreadContext* ctx = item->ctx();
  ctx->parent = fiber_ctx_;
  core_->Consume(cfg_.fault_policy == FaultPolicy::kKernelYield ? costs_.kernel_ctx_switch_cycles
                                                                : kCtxSwitchCycles);
  if (!item->started) {
    item->started = true;
    item->req->start_time = engine_->now();
    // kStart carries the same timestamp as req->start_time (the span
    // builder's queue segment must equal RequestSample::queue_ns), so it is
    // recorded before the kernel RX-path charge below.
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kStart, index_);
    if (costs_.kernel_request_extra_cycles > 0) {
      // Kernel-based system: socket/syscall RX path before the handler runs.
      core_->Consume(costs_.kernel_request_extra_cycles);
    }
  } else {
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kResume, index_);
  }
  item->quantum_start = engine_->now();
  ctx->state = ContextState::kRunning;
  ++ctx->switch_count;
  engine_->RawSwitch(fiber_ctx_, ctx);
  running_ = nullptr;
  if (ctx->finished()) {
    FinishRequest(item);
  } else {
    ++yields_;
  }
}

void Worker::FinishRequest(RunItem* item) {
  Request* req = item->req;
  if (costs_.kernel_jitter_prob > 0.0 && rng_.NextBool(costs_.kernel_jitter_prob)) {
    // Background kernel interference (timer ticks, softirqs, kswapd):
    // occasionally a request is held up for tens of microseconds.
    core_->Consume(rng_.NextInRange(costs_.kernel_jitter_min_cycles,
                                    costs_.kernel_jitter_max_cycles));
  }
  if (costs_.kernel_request_extra_cycles > 0) {
    core_->Consume(costs_.kernel_request_extra_cycles);  // Kernel TX path.
  }
  core_->Consume(kTxPostCycles);

  const uint32_t buffer_index = item->ctx()->id;
  while (!client_qp_->PostSend(req->reply_bytes, buffer_index,
                               [this, req] { on_reply_(req); })) {
    // Client QP saturated; retry shortly (outstanding drains by itself).
    engine_->Wait(200);
  }
  ++completed_;

  if (!cfg_.polling_delegation) {
    // Synchronous transmission: busy-wait for our send CQE, then recycle the
    // buffer ourselves. This is the HOL-blocking path Fig. 9 quantifies.
    const SimTime t0 = engine_->now();
    // [kTxWait, kDone] brackets exactly the interval accumulated into
    // req->tx_wait_ns, so the span's tx segment equals RequestSample::tx_ns.
    tracer_->Record(t0, req->id, TraceEvent::kTxWait);
    const uint64_t busy0 = core_->busy_ns();
    CompletionQueue* cq = client_qp_->cq();
    bool seen = false;
    std::vector<Completion>& batch = cq_batch_;
    while (!seen) {
      const size_t n = cq->Poll(batch.size(), batch.begin());
      if (n == 0) {
        client_cq_wait_.Wait();
        continue;
      }
      core_->Consume(kPollCqeCycles * n);
      for (size_t i = 0; i < n; ++i) {
        ADIOS_DCHECK(batch[i].type == WorkType::kSend);
        if (batch[i].wr_id == buffer_index) {
          seen = true;
        }
        pool_->Release(pool_->FromIndex(static_cast<uint32_t>(batch[i].wr_id)));
      }
    }
    const SimDuration waited = engine_->now() - t0;
    const uint64_t consumed = core_->busy_ns() - busy0;  // Poll cycles already counted.
    core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
    req->tx_wait_ns += waited;
    dispatcher_->Poke();  // Buffers returned; the dispatcher may proceed.
  }
  // With polling delegation, the dispatcher recycles the buffer when it
  // polls the delegated send completion.
  // The request occupies the worker until here (synchronous TX included).
  req->finish_time = engine_->now();
  tracer_->Record(engine_->now(), req->id, TraceEvent::kDone, index_);
}

void Worker::RegisterMetrics(MetricRegistry* registry) {
  const MetricLabels labels = MetricLabels::Worker(index_);
  // Probes over counters the worker already keeps: zero hot-path cost, no
  // double bookkeeping.
  registry->RegisterProbe("worker.completed", labels,
                          [this] { return static_cast<double>(completed_); });
  registry->RegisterProbe("worker.yields", labels,
                          [this] { return static_cast<double>(yields_); });
  registry->RegisterProbe("worker.steals", labels,
                          [this] { return static_cast<double>(steals_); });
  registry->RegisterProbe("worker.preempt_fires", labels,
                          [this] { return static_cast<double>(preempt_fires_); });
  registry->RegisterProbe("worker.qp_full_stalls", labels,
                          [this] { return static_cast<double>(qp_full_stalls_); });
  registry->RegisterProbe("worker.repost_full_stalls", labels,
                          [this] { return static_cast<double>(repost_full_stalls_); });
  registry->RegisterProbe("worker.doorbells_saved", labels,
                          [this] { return static_cast<double>(mem_qp_->doorbells_saved()); });
  const OpTracker::Stats* fetch = &tracker_.stats(OpKind::kFetch);
  registry->RegisterProbe("worker.fetch_timeouts", labels,
                          [fetch] { return static_cast<double>(fetch->timeouts); });
  registry->RegisterProbe("worker.fetch_retries", labels,
                          [fetch] { return static_cast<double>(fetch->retries); });
  registry->RegisterProbe("worker.failovers", labels,
                          [fetch] { return static_cast<double>(fetch->failovers); });
  registry->RegisterProbe("worker.corruptions", labels,
                          [this] { return static_cast<double>(corruptions_detected_); });
  registry->RegisterProbe("worker.outstanding_faults", labels,
                          [this] { return static_cast<double>(OutstandingFaults()); });
}

void Worker::Access(RemoteAddr addr, uint64_t len, bool write) {
  ADIOS_DCHECK(running_ != nullptr);
  ADIOS_DCHECK(len > 0);
  const uint64_t first = mm_->PageOfAddr(addr);
  const uint64_t last = mm_->PageOfAddr(addr + len - 1);
  for (uint64_t p = first; p <= last; ++p) {
    if (running_->req->failed) {
      return;  // Degraded mode: a fetch was abandoned; stop touching memory.
    }
    AccessPage(p, write);
  }
}

void Worker::AccessPage(uint64_t vpage, bool write) {
  // Every cycle charge is a suspension point during which other handlers can
  // change the page's state, so the state is re-examined after each one.
  //
  // Pinning discipline: the page is pinned only from fetch-waiter
  // registration until the post-resume re-check. A fetch waiter is made
  // ready at the very moment its page maps, so a pinned present page always
  // has a runnable pinner — which guarantees the reclaimer regains an
  // evictable page. (Pinning across the *frame* wait instead would let a
  // sleeping frame-waiter pin a page another handler fetched, wedging
  // eviction entirely under extreme pressure.)
  for (;;) {
    if (running_->req->failed) {
      return;  // A fetch this request waited on was abandoned (retry budget).
    }
    switch (mm_->StateOf(vpage)) {
      case PageState::kPresent: {
        // Synchronization-cost gate (docs/DATAPATH.md): free for lock-free
        // lookups under kShardedCas; under kGlobalLock even a
        // hit serializes through the one lock. The charge is a suspension
        // point, so the state is revalidated before acting on it.
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/false);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);
          if (mm_->StateOf(vpage) != PageState::kPresent) {
            continue;  // The page moved while the lock was held/awaited.
          }
        }
        // MMU hit: free. The first touch of a prefetched page promotes it
        // out of the prefetch cache (Touch counts the hit) and extends the
        // stride detector's access trail — without this, full prefetch
        // coverage would starve the detector of its own signal.
        if (mm_->IsPrefetchedResident(vpage)) {
          prefetcher_->OnTouch(vpage);
          tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kPrefetchHit,
                          static_cast<uint32_t>(vpage));
        }
        mm_->Touch(vpage, write);
        return;
      }
      case PageState::kFetching: {
        // Critical-chunk-first (docs/QOS.md): when the faulting chunk of the
        // in-flight fetch already landed, a read proceeds immediately — no
        // waiter, and never a second READ. The chunk-first model assumes the
        // landed chunk covers the touched cacheline (the fabric ships the
        // faulting chunk first). Writes always wait for the whole page so
        // they can't race the streaming tail.
        if (!write && mm_->page_table().Info(vpage).partial) {
          ++chunk_resumes_;
          return;
        }
        // Another handler's fetch is in flight; trap, then coalesce onto it
        // (unless it mapped while we were trapping).
        core_->Consume(kFaultEntryCycles);
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);  // Waiter registration pays the gate.
        }
        if (mm_->StateOf(vpage) == PageState::kFetching) {
          if (mm_->IsPrefetchedInFlight(vpage)) {
            // Demand beat the prefetched READ home: attach a waiter to the
            // in-flight fetch (never a duplicate post) and count it late —
            // right stride, window too shallow.
            prefetcher_->OnTouch(vpage);
            mm_->MarkPrefetchLate(vpage);
          }
          ++mm_->stats().shared_faults;
          ++running_->req->faults;
          mm_->Pin(vpage);
          BlockOnFetch(vpage, write);
          mm_->Unpin(vpage);
        }
        continue;
      }
      case PageState::kRemote: {
        core_->Consume(kFaultEntryCycles + costs_.kernel_fault_extra_cycles);
        if (mm_->StateOf(vpage) != PageState::kRemote) {
          continue;  // Raced with another fault during the trap.
        }
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);  // The page-table transition pays the gate.
          if (mm_->StateOf(vpage) != PageState::kRemote) {
            continue;
          }
        }
        const bool woken = WaitForFreeFrame(vpage);
        if (mm_->StateOf(vpage) == PageState::kRemote) {
          core_->Consume(kFrameAllocCycles);
        }
        if (mm_->StateOf(vpage) != PageState::kRemote) {
          // Another handler fetched the page meanwhile. A frame release
          // wakes exactly one waiter, so if that was this handler, it hands
          // the wakeup on rather than strand the free frame.
          if (woken) {
            mm_->WakeFrameWaiter();
          }
          continue;
        }
        if (!mm_->HasFreeFrame()) {
          continue;  // Another handler took the last frame during the charge.
        }
        // No suspension between the checks and here. The worker index tags
        // the fetch as the owner key for the free-frame credit cache.
        mm_->BeginFetch(vpage, /*prefetch=*/false, static_cast<uint16_t>(index_));
        tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFault,
                        static_cast<uint32_t>(vpage));
        mm_->Pin(vpage);
        PostFaultReads(vpage);
        // Posting can suspend: a full QP drains the CQ, and the READ may
        // land (or be abandoned) during that drain. A waiter registered on a
        // settled page is never woken, so block only while still in flight.
        // The request's fault count tracks its stalls (span reconciliation).
        if (mm_->StateOf(vpage) == PageState::kFetching) {
          ++running_->req->faults;
          BlockOnFetch(vpage, write);
        }
        mm_->Unpin(vpage);
        continue;  // Re-check: maps on completion, so this hits kPresent
                   // (or, after an early chunk resume, the partial branch).
      }
    }
  }
}

bool Worker::WaitForFreeFrame(uint64_t vpage) {
  if (mm_->HasFreeFrame()) {
    return false;
  }
  ++mm_->stats().frame_stalls;
  // The frame wait is its own span segment: it is memory pressure, not fetch
  // latency, so it must not blend into the exec or fetch-stall time.
  tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFrameStall,
                  static_cast<uint32_t>(vpage));
  const bool busy_policy = cfg_.fault_policy == FaultPolicy::kBusyWait ||
                           cfg_.fault_policy == FaultPolicy::kKernelBusyWait;
  if (!busy_policy) {
    // Yield policies: pause this unithread and return to the worker loop.
    // Holding the worker here would deadlock under extreme pressure: the
    // frames may all be pinned by *ready* unithreads that only this worker
    // can resume (and whose touches make their pages evictable again).
    RunItem* item = running_;
    bool woken = false;
    while (!mm_->HasFreeFrame()) {
      DrainMemCq();
      if (mm_->HasFreeFrame()) {
        break;
      }
      mm_->AddFrameWaiter([item] { item->home->EnqueueReady(item); });
      core_->Consume(kCtxSwitchCycles);
      UnithreadContext* ctx = item->ctx();
      ctx->state = ContextState::kBlocked;
      engine_->RawSwitch(ctx, item->home->fiber_ctx_);
      // Resumed on a frame release; re-check (it may be gone again).
      woken = true;
    }
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kFrameStallDone);
    return woken;
  }
  // Busy-waiting policies run one request per worker to completion, so the
  // handler legitimately spins; draining the CQ keeps fetched pages mapping
  // (and thus evictable) meanwhile.
  const SimTime t0 = engine_->now();
  const uint64_t busy0 = core_->busy_ns();
  while (!mm_->HasFreeFrame()) {
    DrainMemCq();
    if (mm_->HasFreeFrame()) {
      break;
    }
    engine_->Wait(500);
  }
  const SimDuration waited = engine_->now() - t0;
  const uint64_t consumed = core_->busy_ns() - busy0;
  core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
  running_->req->busy_wait_ns += waited;
  tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFrameStallDone);
  return false;
}

size_t Worker::PostDoorbell(const ReadOp* ops, size_t n) {
  size_t accepted = 0;
  while ((accepted = mem_qp_->PostReadBatch(mm_->page_bytes(), ops, n)) == 0) {
    // QP send queue is full (§5.2: "page fault handlers must pause, waiting
    // for available slots in the QPs").
    ++qp_full_stalls_;
    if (DrainMemCq() == 0) {
      mem_cq_wait_.Wait();
    }
  }
  if (tracker_.tracks(OpKind::kFetch)) {
    const uint64_t req_id = running_ != nullptr ? running_->req->id : 0;
    for (size_t i = 0; i < accepted; ++i) {
      tracker_.Track(OpId::FromWrId(ops[i].wr_id, OpKind::kFetch),
                     {.node = ops[i].node, .cls = ops[i].cls, .req_id = req_id});
    }
  }
  return accepted;
}

void Worker::PostReadWithBackpressure(uint64_t vpage, TrafficClass cls) {
  core_->Consume(kPostReadCycles);
  const ReadOp op{OpId::Fetch(vpage).wr_id(), tracker_.ReadNode(vpage), cls};
  PostDoorbell(&op, 1);
}

void Worker::PostFaultReads(uint64_t vpage) {
  // Candidates are gathered (and transitioned to kFetching) before any cycle
  // charge below: once marked, no concurrent handler can double-fetch them,
  // and demand faults landing on them coalesce.
  prefetch_scratch_.clear();
  if (cfg_.prefetch_window > 0) {
    prefetcher_->OnFault(vpage, mm_, &prefetch_scratch_);
    for (const uint64_t q : prefetch_scratch_) {
      tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kPrefetch,
                      static_cast<uint32_t>(q));
    }
  }
  // One doorbell: the demand READ plus up to kMaxReadBatch - 1 prefetch
  // candidates (a batch of one when there are none). Each page still picks
  // its own replica (placement / node health from the failover layer).
  const size_t cap = std::min(QueuePair::kMaxReadBatch - 1, prefetch_scratch_.size());
  core_->Consume(kPostReadCycles + kPostReadWqeCycles * static_cast<uint32_t>(cap));
  batch_ops_.clear();
  batch_ops_.push_back(
      ReadOp{OpId::Fetch(vpage).wr_id(), tracker_.ReadNode(vpage), TrafficClass::kDemand});
  for (size_t i = 0; i < cap; ++i) {
    // A mixed-class batch: the doorbell is shared, but each prefetch op
    // serves the prefetch class on every wire stage (docs/QOS.md).
    const uint64_t page = prefetch_scratch_[i];
    batch_ops_.push_back(
        ReadOp{OpId::Fetch(page).wr_id(), tracker_.ReadNode(page), TrafficClass::kPrefetch});
  }
  const size_t accepted = PostDoorbell(batch_ops_.data(), batch_ops_.size());
  // Everything the send queue rejected — and candidates beyond the batch
  // cap — is already kFetching (possibly with coalesced waiters), so it must
  // still be posted: one doorbell each, waiting out backpressure.
  for (size_t i = accepted; i < batch_ops_.size(); ++i) {
    PostReadWithBackpressure(OpId::FromWrId(batch_ops_[i].wr_id, OpKind::kFetch).vpage,
                             batch_ops_[i].cls);
  }
  for (size_t i = cap; i < prefetch_scratch_.size(); ++i) {
    PostReadWithBackpressure(prefetch_scratch_[i], TrafficClass::kPrefetch);
  }
}

size_t Worker::DrainMemCq() {
  CompletionQueue* cq = mem_qp_->cq();
  size_t total = 0;
  std::vector<Completion>& batch = cq_batch_;
  for (;;) {
    const size_t n = cq->Poll(batch.size(), batch.begin());
    if (n == 0) {
      break;
    }
    core_->Consume((kPollCqeCycles + kMapPageCycles) * n);
    for (size_t i = 0; i < n; ++i) {
      const Completion& c = batch[i];
      ADIOS_DCHECK(c.type == WorkType::kRead);
      const OpId id = OpId::FromWrId(c.wr_id, OpKind::kFetch);
      if (c.partial) {
        // Critical chunk landed (docs/QOS.md); the WQE is still outstanding
        // and the tail's final completion settles it. Early-resume readers.
        if (const TrackedOp* op = tracer_->enabled() ? tracker_.Find(id) : nullptr) {
          tracer_->Record(engine_->now(), op->req_id, TraceEvent::kChunkReady,
                          static_cast<uint32_t>(id.vpage));
        }
        mm_->ChunkReady(id.vpage);
        continue;
      }
      if (!tracker_.Admit(id, c)) {
        continue;  // Late, duplicate, or an error the tracker retries.
      }
      if (integrity_ != nullptr && tracker_.tracks(OpKind::kFetch)) {
        // Verify before mapping (docs/INTEGRITY.md); the hash cost is charged
        // to this core whether the page is clean or not.
        core_->Consume(integrity_->VerifyCost());
        const bool clean = integrity_->VerifyFetch(c.wr_id, id.vpage, c.node);
        const TrackedOp* op = tracker_.Find(id);
        if (op == nullptr) {
          continue;  // Given up while the verify was charged.
        }
        if (!clean) {
          // Silent corruption: the CQE said success, the payload lies.
          // Quarantine the replica, then fail over or abandon the fetch.
          ++corruptions_detected_;
          tracker_.Quarantine(id.vpage, c.node, op->req_id);
          integrity_->OnCorruptionDetected(id.vpage, c.node, /*from_scrub=*/false);
          tracker_.FailOver(id);
          continue;  // Never mapped, never reported healthy.
        }
      } else if (integrity_ != nullptr && c.ok()) {
        // Untracked (oracle-only runs): nothing to fail over to, but the
        // ledger still records silently-served corruption.
        integrity_->VerifyFetch(c.wr_id, id.vpage, c.node);
      }
      tracker_.Settle(id, c.node);
      if (decompress_ns_ > 0) {
        // Link compression (docs/QOS.md): this core decompresses the page.
        core_->ConsumeNs(decompress_ns_);
      }
      mm_->CompleteFetch(id.vpage);
    }
    total += n;
  }
  return total;
}

void Worker::BlockOnFetch(uint64_t vpage, bool write) {
  RunItem* item = running_;
  Request* req = item->req;
  // Reads qualify for critical-chunk-first early resume: ChunkReady runs
  // early-flagged waiters as soon as the faulting chunk lands. The flag is
  // inert unless the fabric actually chunks (chunk_bytes > 0), so waiter
  // ordering is bit-identical to the seed with QoS off.
  const bool early = !write;
  const SimTime t0 = engine_->now();
  // kStall/kStallDone bracket exactly the interval accumulated into
  // req->rdma_wait_ns below, so the span builder's fetch-stall segment
  // reconciles with RequestSample::rdma_ns to the nanosecond.
  tracer_->Record(t0, req->id, TraceEvent::kStall, static_cast<uint32_t>(vpage));

  if (cfg_.fault_policy == FaultPolicy::kYield ||
      cfg_.fault_policy == FaultPolicy::kKernelYield) {
    // Adios (Fig. 5 steps 4-5, 8-10): register the continuation and switch
    // back to the worker loop; the fetch completes in the background. The
    // waiter is registered *before* the switch-cost charge: if the page maps
    // during the charge, EnqueueReady simply queues us ahead of the switch,
    // and the worker resumes us right after we yield.
    //
    // Kernel-yield (Infiniswap-class): the same flow, but the switch is a
    // kernel-thread switch and the wake-up goes through the kernel
    // scheduler, adding kernel_sched_delay before the resume.
    if (cfg_.fault_policy == FaultPolicy::kKernelYield) {
      Engine* engine = engine_;
      const SimDuration delay = costs_.kernel_sched_delay_ns;
      mm_->AddFetchWaiter(vpage, [engine, delay, item](bool ok) {
        if (!ok) {
          item->req->failed = true;
        }
        engine->Schedule(delay, [item] { item->home->EnqueueReady(item); });
      }, early);
      core_->Consume(costs_.kernel_ctx_switch_cycles);
    } else {
      mm_->AddFetchWaiter(vpage, [this, item](bool ok) {
        if (!ok) {
          item->req->failed = true;
        } else {
          tracer_->Record(engine_->now(), item->req->id, TraceEvent::kFetchDone);
        }
        item->home->EnqueueReady(item);
      }, early);
      core_->Consume(kCtxSwitchCycles + costs_.yield_bookkeeping_cycles);
    }
    UnithreadContext* ctx = item->ctx();
    ctx->state = ContextState::kBlocked;
    engine_->RawSwitch(ctx, item->home->fiber_ctx_);
    // Resumed by RunItemNow once the page was mapped.
  } else {
    // DiLOS/Hermit: spin on the CQ until this fetch maps. The waiter flag
    // also covers the cross-worker case (our page fetched by another QP).
    const uint64_t busy0 = core_->busy_ns();
    bool done = false;
    mm_->AddFetchWaiter(vpage, [this, &done, req](bool ok) {
      if (!ok) {
        req->failed = true;
      }
      done = true;
      mem_cq_wait_.NotifyAll();
    }, early);
    while (!done) {
      DrainMemCq();
      if (!done) {
        mem_cq_wait_.Wait();
      }
    }
    const SimDuration waited = engine_->now() - t0;
    const uint64_t consumed = core_->busy_ns() - busy0;  // Poll/map cycles counted already.
    core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
    req->busy_wait_ns += waited;
  }
  tracer_->Record(engine_->now(), req->id, TraceEvent::kStallDone);
  req->rdma_wait_ns += engine_->now() - t0;
}

void Worker::MaybePreempt() {
  if (cfg_.preempt_interval_ns == 0 || running_ == nullptr) {
    return;
  }
  core_->Consume(kPreemptCheckCycles);
  RunItem* item = running_;
  if (engine_->now() - item->quantum_start < cfg_.preempt_interval_ns) {
    return;
  }
  // Quantum expired: requeue at the *lowest* priority on this worker (fresh
  // requests run first, approximating processor sharing) and return to the
  // worker loop. The unithread stays on its home worker: its handler holds a
  // reference to this worker's API, and its faults post on this worker's QP.
  ++item->req->preemptions;
  ++preempt_fires_;
  tracer_->Record(engine_->now(), item->req->id, TraceEvent::kPreempt, index_);
  core_->Consume(kPreemptSwitchCycles);
  UnithreadContext* ctx = item->ctx();
  ctx->state = ContextState::kRunnable;
  preempted_.push_back(item);
  engine_->RawSwitch(ctx, fiber_ctx_);
  // Resumed when the worker loop reaches the preempted queue again.
}

}  // namespace adios
