#include "src/rdma/op_tracker.h"

#include <utility>

#include "src/mem/remote_heap.h"

namespace adios {

size_t OpTracker::Probe(uint64_t wr_id) const {
  const size_t mask = index_.size() - 1;
  size_t pos = Home(wr_id);
  while (index_[pos] != kNoEntry && entries_[index_[pos]].wr_id != wr_id) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

OpTracker::Entry& OpTracker::FindOrAdd(uint64_t wr_id) {
  if ((size_ + 1) * 2 > index_.size()) {
    GrowIndex();
  }
  const size_t pos = Probe(wr_id);
  if (index_[pos] != kNoEntry) {
    return entries_[index_[pos]];
  }
  uint32_t e = free_entry_;
  if (e != kNoEntry) {
    free_entry_ = entries_[e].next_free;
  } else {
    e = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[e];
  entry.wr_id = wr_id;
  entry.op = TrackedOp{};
  index_[pos] = e;
  ++size_;
  return entry;
}

void OpTracker::EraseAt(size_t pos) {
  const uint32_t e = index_[pos];
  entries_[e].next_free = free_entry_;
  free_entry_ = e;
  --size_;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home lies cyclically in (hole, its position].
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; index_[next] != kNoEntry; next = (next + 1) & mask) {
    const size_t home = Home(entries_[index_[next]].wr_id);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNoEntry;
}

void OpTracker::GrowIndex() {
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(old.empty() ? 64 : old.size() * 2, kNoEntry);
  index_shift_ = static_cast<uint32_t>(64 - __builtin_ctzll(index_.size()));
  for (const uint32_t e : old) {
    if (e != kNoEntry) {
      index_[Probe(entries_[e].wr_id)] = e;
    }
  }
}

void OpTracker::Track(const OpId& id, TrackedOp op) {
  op.backoff_ns = kinds_[Index(id.kind)].rules.retry.backoff_base_ns;
  TrackedOp& slot = FindOrAdd(id.wr_id()).op;
  slot = std::move(op);
  ArmDeadline(id, slot);
}

TrackedOp* OpTracker::Find(const OpId& id) {
  if (size_ == 0) {
    return nullptr;
  }
  const size_t pos = Probe(id.wr_id());
  return index_[pos] == kNoEntry ? nullptr : &entries_[index_[pos]].op;
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
  ADIOS_DCHECK(size_ > 0);
  const size_t pos = Probe(id.wr_id());
  ADIOS_DCHECK(index_[pos] != kNoEntry);
  TrackedOp op = entries_[index_[pos]].op;
  op.deadline.Cancel();
  EraseAt(pos);
  return op;
}

void OpTracker::Quarantine(uint64_t vpage, uint32_t node, uint64_t req_id) {
  tracer_->Record(engine_->now(), req_id, TraceEvent::kCorrupt, node);
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
  if (k.rules.traced) {
    tracer_->Record(engine_->now(), req_id, event, arg);
  }
}

}  // namespace adios
