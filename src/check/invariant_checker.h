// Runtime invariant checker (frame-ownership auditor + stack audits +
// poison-on-evict + switch discipline).
//
// One checker instance watches one MdSystem-style assembly of engine,
// memory manager, reclaimer, fabric, and unithread pool. Every dependency
// except the engine is optional, so unit tests can audit a bare memory
// manager without standing up the whole system.
//
// Audited invariants (every audit runs; each skips what its deps leave out):
//   * Frame conservation: resident + fetching + writebacks-in-flight +
//     resilver and scrub bounce frames equals the memory manager's used
//     frames — a
//     leak on any path (fetch abort, eviction, write-back completion,
//     re-silver copy) shifts the balance. The replicated write-back fan-out
//     is additionally audited: pages with a fan-out in flight must equal
//     writebacks_inflight (each holds exactly one frame).
//   * Page-table counter integrity: a full walk of the table must reproduce
//     its own resident/fetching counters.
//   * QP work conservation: per-fabric, posted ops == completions delivered
//     + operations still outstanding (the fault injector's duplicated
//     completions bypass the counter on purpose and do not disturb it).
//   * Stack canaries + high-water marks for engine fibers and universal
//     stacks (delegated to Engine::AuditStacks / UnithreadPool::Audit).
//   * Context-switch discipline (src/check/switch_discipline.h).
//   * Trace grammar: the tracer's stream, fed incrementally through the span
//     builder's SpanFolder (the one grammar, docs/OBSERVABILITY.md §1), and
//     at the end every traced arrival completed or was dropped.
//
// Poison-on-evict XOR-scrambles the remote-region bytes of evicted pages so
// a true use-after-evict reads deterministic garbage; see CheckOptions for
// why it defaults to off.

#ifndef ADIOS_SRC_CHECK_INVARIANT_CHECKER_H_
#define ADIOS_SRC_CHECK_INVARIANT_CHECKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "src/check/check_options.h"
#include "src/check/switch_discipline.h"
#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/mem/reclaimer.h"
#include "src/mem/remote_heap.h"
#include "src/obs/span_builder.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"
#include "src/unithread/universal_stack.h"

namespace adios {

class InvariantChecker {
 public:
  struct Deps {
    Engine* engine = nullptr;       // Required.
    MemoryManager* mm = nullptr;    // Frame/page-table audits + poison hooks.
    RemoteRegion* region = nullptr; // Required for poison_evicted_pages.
    Reclaimer* reclaimer = nullptr; // Write-back half of frame conservation.
    RdmaFabric* fabric = nullptr;   // QP work-conservation audit.
    UnithreadPool* pool = nullptr;  // Universal-stack canary audit.
    Tracer* tracer = Tracer::Off(); // Trace-stream grammar/termination audit.
    // Checksum-ledger audit; `placement` is required whenever `integrity`
    // is set, and is what detections are checked against.
    const IntegrityLayer* integrity = nullptr;
    const PlacementMap* placement = nullptr;
    // Requests dropped at the RX ring (they get kArrive but never kDone);
    // consulted by the final termination audit. Unset means "expect zero".
    std::function<uint64_t()> rx_dropped;
  };

  struct Report {
    uint64_t audits = 0;
    uint64_t violations = 0;
    uint64_t pages_poisoned = 0;      // Currently poisoned.
    uint64_t poison_events = 0;       // Total evict-side poisonings.
    size_t fiber_stack_high_water = 0;
    size_t pool_stack_high_water = 0;
  };

  InvariantChecker(const CheckOptions& options, const Deps& deps);
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Installs the memory-manager poison hooks and the switch-discipline
  // observer. Call once, before the simulation starts.
  void Install();

  // Runs every enabled audit immediately (including the incremental trace
  // ordering audit over records appended since the previous audit).
  void AuditNow();

  // Final trace audit, to be run after the engine drained: every traced
  // kArrive must have reached exactly one kDone, up to Deps::rx_dropped()
  // requests dropped at the RX ring. Skipped (with no violation) when the
  // tracer hit capacity — a truncated stream legitimately misses
  // terminations.
  void AuditTraceTermination();

  // Schedules audits every audit_interval_ns of simulated time, stopping at
  // `horizon` so Engine::Run() (which runs until the queue drains) still
  // terminates. Call AuditNow() once more after the run for the final state.
  void SchedulePeriodicAudits(SimTime horizon);

  // Reverses any outstanding page poison. Must run before results/data are
  // read out of the remote region at the end of a checked run.
  void UnpoisonAll();

  const Report& report() const { return report_; }
  const CheckOptions& options() const { return options_; }
  bool PageIsPoisoned(uint64_t vpage) const { return poisoned_.count(vpage) != 0; }
  const SwitchDisciplineChecker* switch_checker() const { return switch_checker_.get(); }

 private:
  void Violation(const char* what, const std::string& details);
  void AuditFrameConservation();
  void AuditPageTableCounters();
  void AuditQpConservation();
  void AuditStacks();
  // Checksum-ledger audit: detections must be quarantined in the placement
  // map, and (incrementally, kIntegrityAuditWindow pages per call) valid
  // digest memos and the recorded digests of clean in-sync slots must match
  // a fresh hash of the region.
  void AuditChecksumCoverage();
  // Incremental: feeds records()[trace_cursor_..] to the trace folder and
  // advances the cursor, so periodic audits stay O(total records) across a
  // whole run.
  void AuditTraceOrdering();
  void ScheduleNextAudit();

  void OnEvict(uint64_t vpage);
  void OnMap(uint64_t vpage);
  void XorPage(uint64_t vpage);

  CheckOptions options_;
  Deps deps_;
  Report report_;
  SimTime audit_horizon_ = 0;
  std::unordered_set<uint64_t> poisoned_;

  uint64_t integrity_cursor_ = 0;  // Next page the checksum audit inspects.
  // Trace-audit state (persists across incremental audits).
  SpanTimeline trace_spans_;
  SpanFolder trace_folder_{&trace_spans_};
  size_t trace_cursor_ = 0;
  uint64_t trace_problems_reported_ = 0;
  std::unique_ptr<SwitchDisciplineChecker> switch_checker_;
  bool installed_ = false;
};

}  // namespace adios

#endif  // ADIOS_SRC_CHECK_INVARIANT_CHECKER_H_
