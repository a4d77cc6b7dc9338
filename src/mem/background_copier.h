// Background page copies on one paced bounce-frame lane: re-silver and
// repair (docs/FAILOVER.md §5) and the scrubber (docs/INTEGRITY.md).
//
// Each source keeps its own work selection. Re-silver and repair pop pages
// off a queue (a recovered node's out-of-sync pages, or one slot a verify or
// scrub found corrupt) and copy each from a live in-sync replica through a
// bounce frame (READ, then WRITE), or straight from its pinned frame when
// resident. The scrubber walks a cursor over (vpage, replica slot) and READs
// cold in-sync copies into a bounce frame to check them.
//
// The lane gives both the same rules: a tick chain per source, one tick per
// SerializationNs(page, its bandwidth) and ×4 apart below the low watermark;
// a bounce frame only when one is free, so demand fetches win the last
// frame; and one count of frames held for the frame-conservation audit. The
// WQEs run through the reclaimer's OpTracker: a failed copy goes back to the
// queue up to resilver_max_attempts; a failed scrub read waits for the next
// sweep.

#ifndef ADIOS_SRC_MEM_BACKGROUND_COPIER_H_
#define ADIOS_SRC_MEM_BACKGROUND_COPIER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/rdma/fabric.h"
#include "src/rdma/op_tracker.h"

namespace adios {

class BackgroundCopier {
 public:
  // Re-silver pacing: the copy lane's bandwidth cap, a tenth of the paper's
  // 100 GbE so that a repair leaves the link to demand traffic.
  static constexpr double kResilverBwGbps = 10.0;

  // `qp` is the reclaimer's QP and `tracker` tracks its ops. Re-silver
  // attempts come from `health`'s ReplicationConfig. A copy's
  // deadline is the retry timeout when `retry` is on, else 50 us. `tracer`
  // records scrub passes.
  BackgroundCopier(Engine* engine, MemoryManager* mm, QueuePair* qp, OpTracker* tracker,
                   PlacementMap* placement, NodeHealthMonitor* health, const RetryPolicy& retry,
                   Tracer* tracer);

  BackgroundCopier(const BackgroundCopier&) = delete;
  BackgroundCopier& operator=(const BackgroundCopier&) = delete;

  void set_integrity(IntegrityLayer* integrity) { integrity_ = integrity; }

  // Queues the out-of-sync pages of a node that just left kDead; calls
  // NotifyResilverDone once they all settled.
  void BeginResilver(uint32_t node);
  // Queues one divergent replica slot. MdSystem routes integrity detections
  // here only when a page has a second copy to repair from.
  void RequestRepair(uint64_t vpage, uint32_t node);
  // Scrubs until `until`, so the engine can drain. Requires set_integrity.
  void StartScrub(SimTime until);
  // A re-silver or scrub completion polled from the reclaimer's CQ.
  ADIOS_NO_SUSPEND void OnCompletion(const OpId& id, const Completion& c);

  uint64_t pages_resilvered() const { return pages_resilvered_; }
  uint64_t resilver_failures() const { return resilver_failures_; }
  // Bounce frames held by in-flight copies and scrub reads.
  uint64_t frames_held() const { return frames_held_; }

 private:
  struct Pace {  // One work source's tick chain on the lane.
    void (BackgroundCopier::*tick)() = nullptr;
    SimDuration interval = 0;
    bool armed = false;
  };
  struct Job {  // Restore `vpage`'s replica on `target`.
    uint64_t vpage = 0;
    uint32_t target = 0;
    uint32_t requeues = 0;
  };

  void Arm(Pace& pace, SimDuration delay);  // No-op while a tick is armed.
  bool Deferred(Pace& pace);  // Below the low watermark: re-arm ×4 apart.
  bool TakeFrame();
  ADIOS_NO_SUSPEND void PutFrame();

  void ResilverTick();
  void StartJob(const Job& job);
  void PostCopyWrite(uint64_t vpage, TrackedOp op);
  void OnCopyCompletion(const OpId& id, const Completion& c);
  void ReleaseCopy(uint64_t vpage, const TrackedOp& op);  // Its pin or bounce frame.
  // Back to the queue, or a failure once the attempts are spent.
  ADIOS_NO_SUSPEND void GiveUpCopy(const OpId& id, TrackedOp& op);
  void FinishResilverPage(uint32_t target);  // At zero left, notifies health.

  void ScrubTick();
  void CloseScrubPass();

  Engine* engine_;
  MemoryManager* mm_;
  QueuePair* qp_;
  OpTracker* tracker_;
  PlacementMap* placement_;
  NodeHealthMonitor* health_;
  IntegrityLayer* integrity_ = nullptr;
  Tracer* tracer_;
  uint64_t frames_held_ = 0;

  Pace resilver_pace_{&BackgroundCopier::ResilverTick};
  uint32_t max_attempts_;
  std::deque<Job> resilver_q_;
  std::unordered_map<uint32_t, uint64_t> resilver_pending_;  // Node -> pages left.
  uint64_t pages_resilvered_ = 0;
  uint64_t resilver_failures_ = 0;

  Pace scrub_pace_{&BackgroundCopier::ScrubTick};
  SimTime scrub_until_ = 0;
  bool scrub_pass_open_ = false;
  uint64_t scrub_cursor_page_ = 0;
  uint32_t scrub_cursor_slot_ = 0;
  uint32_t scrub_issued_in_pass_ = 0;
  uint32_t scrub_finds_in_pass_ = 0;
  uint64_t scrub_pass_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_BACKGROUND_COPIER_H_
