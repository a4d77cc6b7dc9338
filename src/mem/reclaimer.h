// Page reclaimer (paper §3.3, "Reclaimer").
//
// Adios pins a dedicated reclaimer thread that *proactively* evicts pages
// when free frames fall below a watermark, so fault handlers (almost) never
// stall on allocation. The conventional alternative — a reclaimer that is
// woken up on memory pressure and pays a scheduling delay — is also
// implemented (`wakeup_delay_ns > 0`) for the reclaimer ablation benchmark.
//
// Dirty pages are written back with one-sided WRITEs on the reclaimer's own
// QP, one OpId::Writeback(vpage, node) per live replica; the frame is
// released when the *last* replica settles, so write-back pressure shows as
// allocation pressure. Every WQE on the QP runs through one OpTracker
// (docs/FAULT_MODEL.md §4): a write-back that spends its retry budget drops
// its replica, which goes out of sync. The BackgroundCopier on the same QP
// re-silvers recovered nodes, repairs corrupt replicas and scrubs.

#ifndef ADIOS_SRC_MEM_RECLAIMER_H_
#define ADIOS_SRC_MEM_RECLAIMER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/mem/background_copier.h"
#include "src/sim/cpu_core.h"
#include "src/sim/wait_queue.h"

namespace adios {

class Reclaimer {
 public:
  struct Options {
    // Scheduling delay of a wake-up-based reclaimer; 0 is the pinned,
    // proactive thread, which responds immediately.
    SimDuration wakeup_delay_ns = 0;
    uint32_t evict_cycles = 250;  // CPU cost per evicted page.
  };

  // Write-backs fan out to `placement`'s replicas of a page, skipping nodes
  // `health` reports dead; a single node is the one-replica case. `retry`
  // steers write-backs (untracked while not enabled) and copies; `tracer`
  // records integrity detections and scrub passes.
  Reclaimer(Engine* engine, CpuCore* core, MemoryManager* mm, QueuePair* qp,
            PlacementMap* placement, NodeHealthMonitor* health, Options options,
            const RetryPolicy& retry = {}, Tracer* tracer = Tracer::Off());

  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  // Spawns the reclaimer fiber and installs the memory manager's kick hook.
  void Start();

  // Integrity wiring (docs/INTEGRITY.md): write-backs refresh the checksum
  // map, and the copier verifies what it reads.
  void set_integrity(IntegrityLayer* integrity);

  // Re-silver, repair and scrub (docs/FAILOVER.md, docs/INTEGRITY.md).
  BackgroundCopier& copier() { return copier_; }

  uint64_t pages_reclaimed() const { return pages_reclaimed_; }
  uint64_t writebacks_inflight() const { return writebacks_inflight_; }
  uint64_t writeback_timeouts() const { return tracker_.stats(OpKind::kWriteback).timeouts; }
  uint64_t writeback_retries() const { return tracker_.stats(OpKind::kWriteback).retries; }
  uint64_t writeback_aborts() const { return writeback_aborts_; }
  // Bounce frames the copier holds; a frame-conservation term.
  uint64_t bounce_frames_held() const { return copier_.frames_held(); }
  // Pages with a write-back fan-out in flight, plus one counted write-back
  // waiting for its page's previous fan-out to settle. Each holds exactly
  // one frame, so this must equal writebacks_inflight() (audited).
  uint64_t writeback_pages_tracked() const { return wb_pages_.size() + (wb_waiting_ ? 1 : 0); }
  // True while `vpage` has a write-back fan-out in flight. The checksum-map
  // auditor skips such pages: their recorded digests lag the region until the
  // WRITEs land, by design.
  bool WritebackInFlight(uint64_t vpage) const { return wb_pages_.count(vpage) != 0; }

 private:
  ADIOS_MAY_SUSPEND void Loop();
  void DrainCompletions();

  // Live replica targets for a dirty write-back of `vpage`. Dead nodes are
  // skipped and their replicas marked out of sync — the missed update is
  // what re-silvering repairs.
  void WritebackTargets(uint64_t vpage, std::vector<uint32_t>* out);
  // One replica WQE settled (success or final drop); at zero remaining the
  // page's frame is released.
  ADIOS_NO_SUSPEND void FinishWbReplica(uint64_t vpage, bool success);
  // Posts one replica's WRITE; false when the send queue is full.
  ADIOS_NO_SUSPEND bool PostWriteback(const OpId& id);

  Engine* engine_;
  CpuCore* core_;
  MemoryManager* mm_;
  QueuePair* qp_;
  PlacementMap* placement_;
  NodeHealthMonitor* health_;
  Options options_;
  IntegrityLayer* integrity_ = nullptr;
  WaitQueue sleep_queue_;
  WaitQueue cq_wait_;
  bool kicked_ = false;
  uint64_t pages_reclaimed_ = 0;
  uint64_t writebacks_inflight_ = 0;
  struct WbPage {
    uint32_t remaining = 0;  // Replica WQEs still unsettled.
    uint32_t succeeded = 0;  // Replica WQEs that completed OK.
  };
  std::unordered_map<uint64_t, WbPage> wb_pages_;  // By vpage.
  uint64_t writeback_aborts_ = 0;
  bool wb_waiting_ = false;
  std::vector<uint32_t> wb_targets_scratch_;
  // DrainCompletions' poll buffer, reused by every poll: the reclaimer fiber
  // is qp_'s CQ's only poller (the copier's completions reach it through
  // DrainCompletions too), and no completion handler polls again.
  std::vector<Completion> cq_batch_ = std::vector<Completion>(16);
  OpTracker tracker_;  // Every WQE on qp_.
  BackgroundCopier copier_;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_RECLAIMER_H_
