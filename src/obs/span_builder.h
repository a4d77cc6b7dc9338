// Span builder: folds the Tracer's flat, time-ordered record stream into
// per-request spans.
//
// A request's lifetime [kArrive, kDone] is partitioned into segments:
//
//   queue        kArrive -> kStart          (RX ring + central queue + mailbox)
//   exec         on-CPU handler time on the owning worker
//   fetch-stall  kStall -> kStallDone       (blocked on a page fetch; equals
//                                            RequestSample::rdma_ns exactly)
//   frame-stall  kFrameStall -> kFrameStallDone (waiting for a free frame)
//   preempted    kPreempt -> kResume        (requeued, quantum expired)
//   tx           kTxWait -> kDone           (synchronous reply transmission;
//                                            equals RequestSample::tx_ns)
//
// Segments tile the lifetime: queue + exec + fetch-stall + frame-stall +
// preempted + tx == kDone.time - kArrive.time == RequestSample::server_ns.
//
// SpanFolder is the one trace grammar (docs/OBSERVABILITY.md §1): each
// event's scope row in kTraceEvents (src/sim/trace.h), plus the lifecycle
// order and the segment nesting it folds. It reports violations in
// SpanTimeline::problems instead of crashing, so property tests can assert
// the list is empty. BuildSpans feeds it a whole stream; the invariant
// checker feeds it incrementally during a run.

#ifndef ADIOS_SRC_OBS_SPAN_BUILDER_H_
#define ADIOS_SRC_OBS_SPAN_BUILDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/sample.h"
#include "src/sim/trace.h"

namespace adios {

enum class SegmentKind : uint8_t {
  kQueue = 0,
  kExec = 1,
  kFetchStall = 2,
  kFrameStall = 3,
  kPreempted = 4,
  kTx = 5,
};

const char* SegmentKindName(SegmentKind kind);

struct SpanSegment {
  static constexpr uint32_t kNoWorker = ~0u;

  SegmentKind kind = SegmentKind::kExec;
  SimTime begin = 0;
  SimTime end = 0;
  // Worker the segment ran on — set for exec segments only (work stealing
  // can move a request across workers, so this is per-segment, not per-span).
  uint32_t worker = kNoWorker;

  SimDuration ns() const { return end - begin; }
};

struct RequestSpan {
  static constexpr uint32_t kNoWorker = ~0u;

  uint64_t request_id = 0;
  uint32_t worker = kNoWorker;  // Worker that ran the unithread (from kStart).

  SimTime arrive_time = 0;
  SimTime dispatch_time = 0;
  SimTime start_time = 0;
  SimTime done_time = 0;
  bool dispatched = false;
  bool started = false;
  bool completed = false;  // Saw kDone; only completed spans reconcile.
  // Saw kAdmit/kShed: rejected by overload control at arrival
  // (docs/OVERLOAD.md). Terminal like completed, but with no service at all.
  bool ctrl_dropped = false;

  // Per-kind totals (ns); exec is the remainder of [start, done].
  uint64_t queue_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t fetch_stall_ns = 0;
  uint64_t frame_stall_ns = 0;
  uint64_t preempted_ns = 0;
  uint64_t tx_ns = 0;

  // Event counters folded out of the stream.
  uint32_t faults = 0;        // Demand faults this request initiated (kFault).
  uint32_t stalls = 0;        // Fetch waits, including coalesced ones (kStall).
  uint32_t preemptions = 0;
  uint32_t retries = 0;       // Fetch reposts attributed to this request.
  uint32_t timeouts = 0;
  uint32_t failovers = 0;
  uint32_t corruptions = 0;   // Verify-on-fetch detections on this request's fetches.
  uint32_t chunks_ready = 0;  // Critical chunks that landed early (kChunkReady).
  uint32_t prefetches = 0;    // Prefetch READs this request's faults triggered.
  uint32_t prefetch_hits = 0;

  // The ordered segment tiling of [arrive, done].
  std::vector<SpanSegment> segments;

  uint64_t TotalNs() const { return done_time - arrive_time; }
  // queue + exec + all stall kinds + tx; equals TotalNs() for valid spans.
  uint64_t ComponentSumNs() const {
    return queue_ns + exec_ns + fetch_stall_ns + frame_stall_ns + preempted_ns + tx_ns;
  }
};

struct SpanTimeline {
  std::vector<RequestSpan> spans;  // In order of first appearance (arrival).
  // Grammar violations found while folding, one line each. Empty for a
  // well-formed trace.
  std::vector<std::string> problems;
  // Copied from Tracer::dropped(): when nonzero the stream is a truncated
  // prefix, so missing terminations are expected and not flagged.
  uint64_t dropped_records = 0;

  const RequestSpan* Find(uint64_t request_id) const;
};

// Folds records, one at a time and in global time order, into `out`'s spans
// and grammar problems. Records with request id 0 belong to no span.
class SpanFolder {
 public:
  explicit SpanFolder(SpanTimeline* out) : out_(out) {}

  void Feed(const TraceRecord& rec);

  // Every problem found so far; out->problems keeps the first kMaxProblems.
  uint64_t problem_count() const { return problem_count_; }

 private:
  static constexpr size_t kMaxProblems = 64;

  // Folding state for one request: its span's index plus the open segment.
  struct FoldState {
    size_t span_index = 0;
    bool open = false;  // A segment is open (always true between arrive and done).
    SegmentKind open_kind = SegmentKind::kQueue;
    SimTime open_begin = 0;
    SimTime last_time = 0;
    // Worker currently running the unithread (updated at kStart/kResume); a
    // worker change always crosses a segment boundary, so this labels whole
    // exec segments.
    uint32_t current_worker = RequestSpan::kNoWorker;
  };

  // The event's own effect on its span: lifecycle order, segments, counters.
  void Fold(const TraceRecord& rec, FoldState& st, RequestSpan& span, bool first);
  void OpenSegment(FoldState& st, SegmentKind kind, SimTime at);
  void CloseSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
                    SegmentKind expect);
  void SwitchSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
                     SegmentKind from, SegmentKind to);
  void Problem(const TraceRecord& rec, const char* what);

  SpanTimeline* out_;
  uint64_t problem_count_ = 0;
  SimTime last_global_time_ = 0;
  std::unordered_map<uint64_t, FoldState> state_;
};

// Folds the tracer's whole record stream (already in global time order).
SpanTimeline BuildSpans(const Tracer& tracer);

// Cross-checks completed spans against the load generator's samples, joined
// by request id: queue/fetch-stall/tx segment totals must equal the sample's
// queue_ns/rdma_ns/tx_ns, and the segment tiling must sum to server_ns.
// Returns one line per discrepancy (empty == fully reconciled). Samples
// without a span (tracer enabled late / saturated) are ignored.
std::vector<std::string> ReconcileSpans(const SpanTimeline& timeline,
                                        const std::vector<RequestSample>& samples);

}  // namespace adios

#endif  // ADIOS_SRC_OBS_SPAN_BUILDER_H_
