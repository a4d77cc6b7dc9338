#include "src/mem/background_copier.h"

#include <vector>

namespace adios {

BackgroundCopier::BackgroundCopier(Engine* engine, MemoryManager* mm, QueuePair* qp,
                                   OpTracker* tracker, PlacementMap* placement,
                                   NodeHealthMonitor* health, const RetryPolicy& retry,
                                   Tracer* tracer)
    : engine_(engine),
      mm_(mm),
      qp_(qp),
      tracker_(tracker),
      placement_(placement),
      health_(health),
      tracer_(tracer),
      max_attempts_(health->config().resilver_max_attempts) {
  resilver_pace_.interval =
      FabricParams::SerializationNs(mm_->page_bytes(), health->config().resilver_bw_gbps);
  // Neither kind reposts: a failed copy goes back to the queue, a failed
  // scrub read waits for the next sweep. No scrub deadline: the fabric
  // delivers exactly one CQE per post, errors included.
  tracker_->set_rules(OpKind::kResilver,
                      OpRules{RetryPolicy{.enabled = true,
                                          .timeout_ns = retry.enabled ? retry.timeout_ns : 50'000,
                                          .max_retries = 0}});
  tracker_->set_rules(OpKind::kScrub,
                      OpRules{RetryPolicy{.enabled = true, .timeout_ns = 0, .max_retries = 0}});
  tracker_->set_hooks(OpKind::kResilver, nullptr,
                      [this](const OpId& id, TrackedOp& op) { GiveUpCopy(id, op); });
  tracker_->set_hooks(OpKind::kScrub, nullptr, [this](const OpId&, TrackedOp&) { PutFrame(); });
}

void BackgroundCopier::OnCompletion(const OpId& id, const Completion& c) {
  // A failed op is given up at once; the hooks release its frame or pin.
  if (!tracker_->Admit(id, c)) {
    return;
  }
  if (id.kind == OpKind::kResilver) {
    OnCopyCompletion(id, c);
    return;
  }
  // A scrub read landed. The digest comparison only means something while
  // the stored copy is still the authoritative version (page remote); wire
  // and poison evidence is exact regardless.
  tracker_->Settle(id, c.node);
  PutFrame();
  integrity_->OnScrubPage();
  if (!integrity_->CheckPayload(c.wr_id, id.vpage, id.node,
                                /*recompute=*/mm_->StateOf(id.vpage) == PageState::kRemote)) {
    ++scrub_finds_in_pass_;
    tracker_->Quarantine(id.vpage, id.node, 0);
    integrity_->OnCorruptionDetected(id.vpage, id.node, /*from_scrub=*/true);
  }
}

// --- The lane ---

void BackgroundCopier::Arm(Pace& pace, SimDuration delay) {
  if (pace.armed) {
    return;
  }
  pace.armed = true;
  engine_->Schedule(delay, [this, &pace] {
    pace.armed = false;
    (this->*pace.tick)();
  });
}

bool BackgroundCopier::Deferred(Pace& pace) {
  if (!mm_->BelowLowWatermark()) {
    return false;
  }
  Arm(pace, 4 * pace.interval);
  return true;
}

bool BackgroundCopier::TakeFrame() {
  const bool taken = mm_->TryReserveBounceFrame();
  frames_held_ += taken ? 1 : 0;
  return taken;
}

void BackgroundCopier::PutFrame() {
  ADIOS_DCHECK(frames_held_ > 0);
  --frames_held_;
  mm_->ReleaseBounceFrame();
}

// --- Re-silver and repair ---

void BackgroundCopier::BeginResilver(uint32_t node) {
  std::vector<uint64_t> pages;
  placement_->CollectOutOfSync(node, &pages);
  if (pages.empty() && resilver_pending_[node] == 0) {
    // Nothing diverged (later demand write-backs healed every missed
    // update): the node is current the moment it is back.
    resilver_pending_.erase(node);
    health_->NotifyResilverDone(node);
    return;
  }
  resilver_pending_[node] += pages.size();
  for (const uint64_t vpage : pages) {
    resilver_q_.push_back(Job{vpage, node, 0});
  }
  Arm(resilver_pace_, resilver_pace_.interval);
}

void BackgroundCopier::RequestRepair(uint64_t vpage, uint32_t node) {
  resilver_pending_[node] += 1;
  resilver_q_.push_back(Job{vpage, node, 0});
  Arm(resilver_pace_, resilver_pace_.interval);
}

void BackgroundCopier::ResilverTick() {
  if (resilver_q_.empty() || Deferred(resilver_pace_)) {
    return;
  }
  const Job job = resilver_q_.front();
  resilver_q_.pop_front();
  StartJob(job);
  if (!resilver_q_.empty()) {
    Arm(resilver_pace_, resilver_pace_.interval);
  }
}

void BackgroundCopier::StartJob(const Job& job) {
  const auto postpone = [this, &job] {
    resilver_q_.push_back(job);
    Arm(resilver_pace_, resilver_pace_.interval);
  };
  if (placement_->InSync(job.vpage, job.target) || health_->IsDead(job.target)) {
    // Healed meanwhile by a demand write-back, or the node relapsed mid-pass
    // (a later recovery starts a fresh pass that re-collects this page).
    FinishResilverPage(job.target);
    return;
  }
  TrackedOp op{.cls = TrafficClass::kBackground, .target = job.target, .requeues = job.requeues};
  switch (mm_->StateOf(job.vpage)) {
    case PageState::kPresent:
      // The current bytes are resident: WRITE them straight to the target,
      // pinned so eviction cannot pull the frame out from under the DMA.
      mm_->Pin(job.vpage);
      op.pinned = true;
      PostCopyWrite(job.vpage, op);
      return;
    case PageState::kFetching:
      postpone();  // In demand flight; revisit once it settles.
      return;
    case PageState::kRemote: {
      constexpr uint32_t kNone = ~0u;
      uint32_t src = kNone;
      for (uint32_t slot = 0; slot < placement_->replicas() && src == kNone; ++slot) {
        const uint32_t node = placement_->ReplicaNode(job.vpage, slot);
        if (node != job.target && placement_->InSync(job.vpage, node) &&
            !health_->IsDead(node)) {
          src = node;
        }
      }
      if (src == kNone) {
        // No live in-sync source: the page cannot be repaired this pass.
        ++resilver_failures_;
        FinishResilverPage(job.target);
        return;
      }
      // Postponed while another copy of this page is mid-flight via `src`,
      // no frame is free, or the QP is full.
      const OpId id = OpId::Resilver(job.vpage, src);
      if (tracker_->Find(id) == nullptr && TakeFrame()) {
        if (qp_->PostRead(mm_->page_bytes(), id.wr_id(), src, TrafficClass::kBackground)) {
          op.node = src;
          tracker_->Track(id, op);
          return;
        }
        PutFrame();
      }
      postpone();
      return;
    }
  }
}

void BackgroundCopier::PostCopyWrite(uint64_t vpage, TrackedOp op) {
  const OpId id = OpId::Resilver(vpage, op.target);
  if (tracker_->Find(id) != nullptr ||
      !qp_->PostWrite(mm_->page_bytes(), id.wr_id(), op.target, TrafficClass::kBackground)) {
    // Id busy (a duplicate job) or QP full: retry shortly, still holding the
    // pin or bounce frame.
    engine_->Schedule(1000, [this, vpage, op] { PostCopyWrite(vpage, op); });
    return;
  }
  if (integrity_ != nullptr) {
    integrity_->OnWritePosted(id.wr_id(), vpage);
  }
  op.node = op.target;
  tracker_->Track(id, op);
}

void BackgroundCopier::OnCopyCompletion(const OpId& id, const Completion& c) {
  TrackedOp op = tracker_->Settle(id, c.node);
  if (op.node != op.target) {
    // The READ from a source landed in the bounce frame: verify it before it
    // overwrites the target. The digest comparison only means something while
    // the page is remote (a resident copy may be newer than any stored one).
    const uint32_t src = op.node;
    if (integrity_ != nullptr &&
        !integrity_->CheckPayload(c.wr_id, id.vpage, src,
                                  /*recompute=*/mm_->StateOf(id.vpage) == PageState::kRemote)) {
      tracker_->Quarantine(id.vpage, src, 0);
      integrity_->OnCorruptionDetected(id.vpage, src, /*from_scrub=*/false);
      GiveUpCopy(id, op);  // The next attempt picks another source, if any.
      return;
    }
    PostCopyWrite(id.vpage, op);
    return;
  }
  // The WRITE landed: the replica is current again.
  ReleaseCopy(id.vpage, op);
  placement_->MarkInSync(id.vpage, op.target);
  if (integrity_ != nullptr) {
    integrity_->OnReplicaWritten(c.wr_id, id.vpage, op.target);
  }
  ++pages_resilvered_;
  FinishResilverPage(op.target);
}

void BackgroundCopier::ReleaseCopy(uint64_t vpage, const TrackedOp& op) {
  if (op.pinned) {
    mm_->Unpin(vpage);
  } else {
    PutFrame();
  }
}

void BackgroundCopier::GiveUpCopy(const OpId& id, TrackedOp& op) {
  ReleaseCopy(id.vpage, op);
  if (op.requeues + 1 >= max_attempts_) {
    // Attempts spent; the replica stays divergent. A later recovery pass (or
    // a demand write-back) gets another chance.
    ++resilver_failures_;
    FinishResilverPage(op.target);
    return;
  }
  resilver_q_.push_back(Job{id.vpage, op.target, op.requeues + 1});
  Arm(resilver_pace_, resilver_pace_.interval);
}

void BackgroundCopier::FinishResilverPage(uint32_t target) {
  auto it = resilver_pending_.find(target);
  ADIOS_DCHECK(it != resilver_pending_.end() && it->second > 0);
  if (it == resilver_pending_.end() || it->second == 0 || --it->second > 0) {
    return;
  }
  resilver_pending_.erase(it);
  // Ignored unless the node is still kResilvering (it may have relapsed to
  // kDead mid-pass; the next recovery re-collects).
  health_->NotifyResilverDone(target);
}

// --- Scrubber ---

void BackgroundCopier::StartScrub(SimTime until) {
  ADIOS_CHECK(integrity_ != nullptr);
  scrub_until_ = until;
  scrub_pace_.interval =
      FabricParams::SerializationNs(mm_->page_bytes(), integrity_->config().scrub_bw_gbps);
  Arm(scrub_pace_, scrub_pace_.interval);
}

void BackgroundCopier::CloseScrubPass() {
  scrub_pass_open_ = false;
  tracer_->Record(engine_->now(), 0, TraceEvent::kScrubDone, scrub_finds_in_pass_);
}

void BackgroundCopier::ScrubTick() {
  if (engine_->now() >= scrub_until_) {
    // Horizon reached: stop the chain so the engine can drain. In-flight
    // scrub reads still settle through their completions.
    if (scrub_pass_open_) {
      CloseScrubPass();
    }
    return;
  }
  if (Deferred(scrub_pace_)) {
    return;
  }
  // Advance the (vpage, slot) cursor to the next scrubbable stored copy:
  // remote (no resident version supersedes it), in sync (divergent slots are
  // the re-silver queue's job), on a live node, and not already mid-scrub.
  const uint32_t slots_per_page = placement_->replicas();
  const uint64_t num_pages = mm_->page_table().num_pages();
  const uint64_t total_slots = num_pages * slots_per_page;
  OpId id;
  bool found = false;
  for (uint64_t probed = 0; probed < total_slots && !found; ++probed) {
    const uint64_t vpage = scrub_cursor_page_;
    const uint32_t slot = scrub_cursor_slot_;
    if (++scrub_cursor_slot_ >= slots_per_page) {
      scrub_cursor_slot_ = 0;
      if (++scrub_cursor_page_ >= num_pages) {
        scrub_cursor_page_ = 0;
      }
    }
    if (mm_->StateOf(vpage) != PageState::kRemote) {
      continue;
    }
    const uint32_t node = placement_->ReplicaNode(vpage, slot);
    id = OpId::Scrub(vpage, node);
    found = placement_->InSync(vpage, node) && !health_->IsDead(node) &&
            tracker_->Find(id) == nullptr;
  }
  const IntegrityConfig& cfg = integrity_->config();
  SimDuration next = scrub_pace_.interval;
  if (!found) {
    next = cfg.scrub_pass_gap_ns;  // Nothing cold to scrub: wait a pass gap.
  } else if (!TakeFrame()) {
    next = 4 * scrub_pace_.interval;
  } else if (!qp_->PostRead(mm_->page_bytes(), id.wr_id(), id.node, TrafficClass::kBackground)) {
    PutFrame();
  } else {
    if (!scrub_pass_open_) {
      scrub_pass_open_ = true;
      scrub_issued_in_pass_ = 0;
      scrub_finds_in_pass_ = 0;
      ++scrub_pass_;
      tracer_->Record(engine_->now(), 0, TraceEvent::kScrubStart,
                      static_cast<uint32_t>(scrub_pass_));
    }
    tracker_->Track(id, {.node = id.node, .cls = TrafficClass::kBackground});
    if (++scrub_issued_in_pass_ >= cfg.scrub_batch_pages) {
      CloseScrubPass();
      next = cfg.scrub_pass_gap_ns;
    }
  }
  Arm(scrub_pace_, next);
}

}  // namespace adios
