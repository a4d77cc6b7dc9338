#include "src/mem/reclaimer.h"

namespace adios {
namespace {

// Backoff when nothing is evictable and no write-back is in flight to wait on.
constexpr SimDuration kScanFailRetryNs = 2000;

}  // namespace

Reclaimer::Reclaimer(Engine* engine, CpuCore* core, MemoryManager* mm, QueuePair* qp,
                     PlacementMap* placement, NodeHealthMonitor* health, Options options,
                     const RetryPolicy& retry, Tracer* tracer)
    : engine_(engine),
      core_(core),
      mm_(mm),
      qp_(qp),
      placement_(placement),
      health_(health),
      options_(options),
      sleep_queue_(engine),
      cq_wait_(engine),
      wb_pages_(mm->page_table().num_pages()),
      tracker_(engine, placement, health),
      copier_(engine, mm, qp, &tracker_, placement, health, retry, tracer) {
  tracker_.set_tracer(tracer);
  tracker_.set_rules(OpKind::kWriteback, OpRules{retry});
  tracker_.set_hooks(
      OpKind::kWriteback, [this](const OpId& id, const TrackedOp&) { return PostWriteback(id); },
      [this](const OpId& id, TrackedOp&) {
        // Budget spent: drop this replica's WRITE. The replica diverges (the
        // re-silver pass repairs it later); the page's frame is released once
        // the other replicas settle. A single copy cannot diverge
        // (PlacementMap), so there the drop is the write-back abort.
        placement_->MarkOutOfSync(id.vpage, id.node);
        FinishWbReplica(id.vpage, /*success=*/false);
        // The drop happens off a timer, not a CQ push, so wake the loop: it
        // may be parked in cq_wait_ waiting for this write-back.
        cq_wait_.NotifyAll();
        sleep_queue_.NotifyAll();
      });
}

bool Reclaimer::PostWriteback(const OpId& id) {
  if (!qp_->PostWrite(mm_->page_bytes(), id.wr_id(), id.node, TrafficClass::kBackground)) {
    return false;
  }
  if (integrity_ != nullptr) {
    // Snapshot the digest this WRITE carries at post time — the page may be
    // re-fetched and re-dirtied before it completes.
    integrity_->OnWritePosted(id.wr_id(), id.vpage);
  }
  return true;
}

void Reclaimer::set_integrity(IntegrityLayer* integrity) {
  integrity_ = integrity;
  copier_.set_integrity(integrity);
}

void Reclaimer::Start() {
  mm_->set_reclaim_kick([this] {
    if (!kicked_) {
      kicked_ = true;
      // The pinned thread (delay 0) notices immediately; a wake-up-based
      // one is notified through the scheduler, paying its delay.
      sleep_queue_.NotifyOne(options_.wakeup_delay_ns);
    }
  });
  qp_->cq()->set_on_push([this] {
    cq_wait_.NotifyAll();
    // A write-back completion must also wake an idle reclaimer so the frame
    // is released promptly even when no allocation kick is pending.
    sleep_queue_.NotifyAll();
  });
  loop_ = Loop();
  engine_->Start(loop_);
}

void Reclaimer::WritebackTargets(uint64_t vpage, std::vector<uint32_t>* out) {
  for (uint32_t slot = 0; slot < placement_->replicas(); ++slot) {
    const uint32_t node = placement_->ReplicaNode(vpage, slot);
    if (health_->IsDead(node)) {
      // The dead replica misses this update; it must not serve reads until
      // the re-silver pass (or a later write-back) repairs it.
      placement_->MarkOutOfSync(vpage, node);
      continue;
    }
    out->push_back(node);
  }
}

void Reclaimer::FinishWbReplica(uint64_t vpage, bool success) {
  WbPage& page = wb_pages_[vpage];
  ADIOS_DCHECK(page.remaining > 0);
  if (page.remaining == 0) {
    return;
  }
  if (success) {
    ++page.succeeded;
  }
  if (--page.remaining > 0) {
    return;  // Other replicas of this page are still in flight.
  }
  const bool none_ok = page.succeeded == 0;
  page = WbPage{};
  --wb_pages_in_flight_;
  if (none_ok) {
    // No replica took the update: the write-back is lost outright (the
    // single-node abort of docs/FAULT_MODEL.md).
    ++writeback_aborts_;
  }
  ADIOS_DCHECK(writebacks_inflight_ > 0);
  --writebacks_inflight_;
  mm_->ReleaseFrame();
}

size_t Reclaimer::DrainCompletions() {
  std::vector<Completion>& batch = cq_batch_;
  const size_t n = qp_->cq()->Poll(batch.size(), batch.begin());
  for (size_t i = 0; i < n; ++i) {
    const Completion& c = batch[i];
    const OpId id = OpId::FromWrId(c.wr_id, OpKind::kWriteback);
    if (id.kind != OpKind::kWriteback) {
      copier_.OnCompletion(id, c);
      continue;
    }
    ADIOS_DCHECK(c.type == WorkType::kWrite);
    if (!tracker_.Admit(id, c)) {
      continue;  // Late, duplicate, or an error the tracker retries.
    }
    tracker_.Settle(id, c.node);
    // A successful write-back re-syncs a replica that had diverged.
    placement_->MarkInSync(id.vpage, id.node);
    if (integrity_ != nullptr) {
      // Refresh the slot's digest (and settle wire-poison state: a
      // corrupted WRITE leaves the stored copy poisoned).
      integrity_->OnReplicaWritten(c.wr_id, id.vpage, id.node);
    }
    FinishWbReplica(id.vpage, /*success=*/true);
  }
  return n;
}

bool Reclaimer::DrainAwaiter::Step() {
  while (const size_t n = reclaimer_->DrainCompletions()) {
    const Engine::SleepAwaiter charge = reclaimer_->core_->Charge(kCqeCycles * n);
    if (!charge.await_ready()) {
      reclaimer_->engine_->ScheduleAt(charge.when(), [this] {
        if (Step()) {
          task_.resume();
        }
      });
      return false;
    }
  }
  return true;
}

SimTask Reclaimer::Loop() {
  for (;;) {
    co_await Drain();
    if (!mm_->BelowLowWatermark()) {
      kicked_ = false;
      co_await sleep_queue_;
      continue;
    }
    // Evict until comfortably above the watermark (hysteresis band).
    while (!mm_->AboveHighWatermark()) {
      co_await Drain();
      const uint64_t victim = mm_->SelectVictim();
      if (victim == mm_->page_table().num_pages()) {
        // Nothing evictable: frames are tied up in in-flight fetches or
        // write-backs. Wait for progress rather than spinning.
        if (writebacks_inflight_ > 0) {
          co_await cq_wait_;
        } else {
          co_await engine_->Sleep(kScanFailRetryNs);
        }
        continue;
      }
      co_await core_->Charge(kEvictCycles);
      // Synchronization-cost gate (docs/DATAPATH.md): the unmap is a
      // mutating paging op, so it pays the modeled lock/CAS cost.
      const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
      if (sync_ns > 0) {
        co_await core_->ChargeNs(sync_ns);
      }
      // adios-lint: ignore(suspend-safety) -- the wait branches above always
      // `continue` and re-select; on this path `victim` is freshly selected,
      // and after EvictPage the single evictor keeps the frame reserved, so
      // it stays valid across the cq_wait_ suspensions below.
      const bool dirty = mm_->EvictPage(victim);
      ++pages_reclaimed_;
      if (!dirty) {
        continue;
      }
      // Counted before the post: the frame is already off the books
      // (EvictPage kept it reserved), so frame conservation — resident +
      // fetching + writebacks + bounce frames == used — must see it even
      // while this task waits in cq_wait_ for send-queue space.
      ++writebacks_inflight_;
      wb_waiting_ = true;
      while (wb_pages_[victim].remaining != 0) {
        // A previous fan-out of this page is still settling (re-fetch +
        // re-evict inside one retry window); its wr_ids would collide.
        co_await cq_wait_;
        co_await Drain();
      }
      wb_waiting_ = false;
      wb_targets_scratch_.clear();
      WritebackTargets(victim, &wb_targets_scratch_);
      if (wb_targets_scratch_.empty()) {
        // Every replica is dead: the update is lost now (each skipped
        // replica was marked divergent above).
        ++writeback_aborts_;
        ADIOS_DCHECK(writebacks_inflight_ > 0);
        --writebacks_inflight_;
        mm_->ReleaseFrame();
        continue;
      }
      wb_pages_[victim] = WbPage{static_cast<uint8_t>(wb_targets_scratch_.size()), 0};
      ++wb_pages_in_flight_;
      for (const uint32_t node : wb_targets_scratch_) {
        const OpId id = OpId::Writeback(victim, node);
        while (!PostWriteback(id)) {
          co_await cq_wait_;
          co_await Drain();
        }
        if (tracker_.tracks(OpKind::kWriteback)) {
          tracker_.Track(id, {.node = node, .cls = TrafficClass::kBackground});
        }
      }
    }
  }
}

}  // namespace adios
