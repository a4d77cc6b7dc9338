#include "src/rdma/op_tracker.h"

#include <utility>

#include "src/mem/remote_heap.h"

namespace adios {

void OpTracker::Track(const OpId& id, TrackedOp op) {
  op.backoff_ns = kinds_[Index(id.kind)].rules.retry.backoff_base_ns;
  TrackedOp& slot = ops_[id.wr_id()];
  slot = std::move(op);
  ArmDeadline(id, slot);
}

TrackedOp* OpTracker::Find(const OpId& id) {
  auto it = ops_.find(id.wr_id());
  return it == ops_.end() ? nullptr : &it->second;
}

bool OpTracker::Admit(const OpId& id, const Completion& c) {
  if (!tracks(id.kind)) {
    return true;
  }
  TrackedOp* op = Find(id);
  if (op == nullptr || c.ok()) {
    return op != nullptr;  // Late or duplicate CQEs are dropped.
  }
  health_->ReportError(c.node);
  op->deadline.Cancel();
  RetryOrGiveUp(id, *op);
  return false;
}

TrackedOp OpTracker::Settle(const OpId& id, uint32_t node) {
  TrackedOp op = tracks(id.kind) ? Untrack(id) : TrackedOp{};
  health_->ReportSuccess(node);
  return op;
}

TrackedOp OpTracker::Untrack(const OpId& id) {
  auto it = ops_.find(id.wr_id());
  TrackedOp op = std::move(it->second);
  op.deadline.Cancel();
  ops_.erase(it);
  return op;
}

void OpTracker::Quarantine(uint64_t vpage, uint32_t node, uint64_t req_id) {
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), req_id, TraceEvent::kCorrupt, node);
  }
  placement_->MarkOutOfSync(vpage, node);
  health_->ReportCorruption(node);
}

void OpTracker::FailOver(const OpId& id) {
  TrackedOp& op = *Find(id);
  op.deadline.Cancel();
  if (!TryFailover(id, op)) {
    GiveUp(id);
  }
}

void OpTracker::ArmDeadline(const OpId& id, TrackedOp& op) {
  const SimDuration timeout = kinds_[Index(id.kind)].rules.retry.timeout_ns;
  if (timeout > 0) {
    op.deadline = engine_->ScheduleCancellable(timeout, [this, id] { Expire(id); });
  }
}

void OpTracker::Expire(const OpId& id) {
  TrackedOp* op = Find(id);
  if (op == nullptr) {
    return;  // Settled just before the deadline event ran.
  }
  Kind& k = kinds_[Index(id.kind)];
  ++k.stats.timeouts;
  health_->ReportTimeout(op->node);
  Trace(k, TraceEvent::kFetchTimeout, op->req_id, static_cast<uint32_t>(id.vpage));
  RetryOrGiveUp(id, *op);
}

void OpTracker::RetryOrGiveUp(const OpId& id, TrackedOp& op) {
  if (op.repost_pending) {
    return;  // An error CQE raced the deadline; one repost suffices.
  }
  Kind& k = kinds_[Index(id.kind)];
  // Once the budget is spent, or the serving node is suspect or dead, moving
  // to another in-sync replica beats both giving up and backing off against
  // a black hole.
  const bool exhausted = op.attempts > k.rules.retry.MaxRetriesFor(op.cls);
  if (k.rules.failover && (exhausted || health_->SuspectOrWorse(op.node)) &&
      TryFailover(id, op)) {
    return;
  }
  if (exhausted) {
    GiveUp(id);
    return;
  }
  ++op.attempts;
  ++k.stats.retries;
  Trace(k, TraceEvent::kRetry, op.req_id, op.attempts);
  const SimDuration backoff = op.backoff_ns;
  op.backoff_ns = k.rules.retry.NextBackoff(backoff);
  op.repost_pending = true;
  // Reposts run off the engine clock: a doorbell is cheap, and a real
  // implementation issues it from whichever context notices the failure.
  engine_->Schedule(backoff, [this, id] { Repost(id); });
}

void OpTracker::Repost(const OpId& id) {
  TrackedOp* op = Find(id);
  if (op == nullptr) {
    return;  // A delayed CQE settled the op during the backoff.
  }
  if (!kinds_[Index(id.kind)].repost(id, *op)) {
    engine_->Schedule(1000, [this, id] { Repost(id); });  // Send queue full.
    return;
  }
  op->repost_pending = false;
  ArmDeadline(id, *op);
}

bool OpTracker::TryFailover(const OpId& id, TrackedOp& op) {
  if (op.failovers >= placement_->replicas()) {
    return false;  // Every replica had its chance.
  }
  const uint32_t best = PickReplica(id.vpage, op.node);
  if (best == kNoNode) {
    return false;
  }
  Kind& k = kinds_[Index(id.kind)];
  ++op.failovers;
  ++k.stats.failovers;
  op.node = best;
  op.attempts = 1;
  op.backoff_ns = k.rules.retry.backoff_base_ns;
  Trace(k, TraceEvent::kFailover, op.req_id, best);
  op.repost_pending = true;
  engine_->Schedule(0, [this, id] { Repost(id); });
  return true;
}

void OpTracker::GiveUp(const OpId& id) {
  TrackedOp op = Untrack(id);
  Kind& k = kinds_[Index(id.kind)];
  ++k.stats.give_ups;
  k.give_up(id, op);
}

uint32_t OpTracker::ReadNode(uint64_t vpage) const {
  // With every replica dead this still aims at the primary and lets the
  // retry path surface the failure.
  const uint32_t node = PickReplica(vpage, kNoNode);
  return node == kNoNode ? placement_->Primary(vpage) : node;
}

uint32_t OpTracker::PickReplica(uint64_t vpage, uint32_t skip) const {
  // Replica order, so unfailed systems always read the primary.
  uint32_t suspect = kNoNode;
  for (uint32_t slot = 0; slot < placement_->replicas(); ++slot) {
    const uint32_t node = placement_->ReplicaNode(vpage, slot);
    if (node == skip || !placement_->SlotInSync(vpage, slot)) {
      continue;
    }
    const NodeHealth h = health_->StateOf(node);
    if (h == NodeHealth::kHealthy || h == NodeHealth::kResilvering) {
      return node;
    }
    if (h == NodeHealth::kSuspect && suspect == kNoNode) {
      suspect = node;
    }
  }
  return suspect;
}

void OpTracker::Trace(const Kind& k, TraceEvent event, uint64_t req_id, uint32_t arg) const {
  if (k.rules.traced && tracer_ != nullptr) {
    tracer_->Record(engine_->now(), req_id, event, arg);
  }
}

}  // namespace adios
