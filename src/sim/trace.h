// Per-request event tracing.
//
// When enabled, the scheduler records a timestamped event stream per request
// (arrival, dispatch, handler start, page faults, fetch completions,
// resumes, preemptions, completion). Traces make scheduling behavior
// visible — e.g., a yield-based handler interleaving five requests during
// one fetch — and back the request_timeline example. Disabled tracers cost
// one branch per hook; a component built without a tracer records into
// Tracer::Off(), which is never enabled.
//
// kTraceEvents holds the whole vocabulary, one row per event: its name, the
// label of its arg, where in a request's stream it may appear (the grammar
// the span builder enforces; docs/OBSERVABILITY.md §1), and the track the
// Chrome trace exporter puts it on. Adding an event means adding one
// enumerator and one row (and bumping kNumTraceEvents; the static_asserts
// below catch a missed or misplaced row).

#ifndef ADIOS_SRC_SIM_TRACE_H_
#define ADIOS_SRC_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"

namespace adios {

enum class TraceEvent : uint8_t {
  kArrive = 0,     // Packet entered the RX ring.
  kDispatch = 1,   // Dispatcher assigned the request to a worker (arg = worker).
  kStart = 2,      // Unithread first ran (arg = worker).
  kFault = 3,      // Page fault issued (arg = low bits of the page number).
  kFetchDone = 4,  // The faulted page mapped.
  kResume = 5,     // Unithread resumed after a yield (arg = worker).
  kPreempt = 6,       // Quantum expired; requeued.
  kDone = 7,          // Handler finished; reply posted.
  kFetchTimeout = 8,  // A page fetch missed its deadline (arg = page).
  kRetry = 9,         // The fetch was reposted after backoff (arg = attempt).
  // Node-level fault events (replicated fabric; request_id = 0 for the
  // health-monitor transitions, which are not tied to one request).
  kNodeSuspect = 10,   // Health monitor: node entered kSuspect (arg = node).
  kNodeDead = 11,      // Health monitor: node entered kDead (arg = node).
  kFailover = 12,      // In-flight fetch redirected to a replica (arg = node).
  kResilverDone = 13,  // Node fully re-replicated; back to kHealthy (arg = node).
  // Prefetching (docs/PREFETCH.md).
  kPrefetch = 14,     // Prefetch READ posted alongside a demand fault (arg = page).
  kPrefetchHit = 15,  // Access hit a prefetched page before eviction (arg = page).
  // Span boundaries (docs/OBSERVABILITY.md): the exact instants a request's
  // unithread stops and resumes consuming its own wall clock, recorded so the
  // span builder can partition [arrive, done] into queue/exec/stall/tx
  // segments that reconcile with RequestSample's component latencies.
  kStall = 16,          // Blocked on a page fetch (arg = page); see kStallDone.
  kStallDone = 17,      // The fetch wait ended (handler resumed / spin ended).
  kFrameStall = 18,     // Waiting for a free local frame (arg = page wanted).
  kFrameStallDone = 19, // Frame wait over; the fault proceeds.
  kTxWait = 20,         // Synchronous reply-TX wait began (non-delegated path).
  // Overload control (docs/OVERLOAD.md). Admission/shed drops are terminal:
  // the request got kArrive and nothing else; scale decisions are
  // system-level (request_id = 0, like the node-health transitions).
  kAdmit = 21,  // Admission controller dropped the arrival (arg = tenant).
  kShed = 22,   // Load shedder dropped the arrival (arg = tenant).
  kScale = 23,  // Active worker set resized (arg = new active count).
  // Data integrity (docs/INTEGRITY.md). kCorrupt carries the request whose
  // fetch verified bad (arg = node), or request_id = 0 for scrub / re-silver
  // detections, which are not tied to one request. Scrub passes are
  // system-level like the health transitions.
  kCorrupt = 24,     // Checksum verification failed (arg = node).
  kScrubStart = 25,  // Background scrub pass opened (arg = pass number).
  kScrubDone = 26,   // Scrub pass closed (arg = corruptions found this pass).
  // QoS link scheduling (docs/QOS.md). kChunkReady is per-request (the
  // critical chunk of the faulting page landed; arg = low bits of the page
  // number). kClassDequeue is system-level (request_id = 0): one WDRR grant
  // on a classed link (arg = traffic class).
  kChunkReady = 27,
  kClassDequeue = 28,
};

// One past the highest TraceEvent value.
inline constexpr uint8_t kNumTraceEvents = 29;

// Where an event may appear in its request's stream.
enum class TraceScope : uint8_t {
  kLifecycle,      // kArrive/kDispatch/kStart/kDone: the request's own order.
  kHandler,        // Inside [kStart, kDone]: only a running handler records it.
  kFetchPipeline,  // Any time after kArrive: a fetch can outlive its request.
  kSystem,         // Request id 0 only: not tied to one request.
  kOverloadDrop,   // Terminal, and legal only in [kArrive, kDispatch).
};

// Where the Chrome trace exporter puts a raw record (src/obs/trace_export.h).
// A lane instant is emitted only when the record names a request.
enum class TraceTrack : uint8_t {
  kSpans,        // Not exported raw: the folded span segments carry it.
  kDispatcher,   // Instant on the dispatcher track.
  kNode,         // Instant on the track of node `arg`.
  kLane,         // Async instant on the request's lane.
  kNodeAndLane,  // Both of the above.
};

struct TraceEventInfo {
  TraceEvent event;
  const char* name;
  const char* arg;  // Label of TraceRecord::arg, or nullptr when it is not shown.
  TraceScope scope;
  TraceTrack track;
};

inline constexpr TraceEventInfo kTraceEvents[] = {
    {TraceEvent::kArrive, "arrive", nullptr, TraceScope::kLifecycle, TraceTrack::kDispatcher},
    {TraceEvent::kDispatch, "dispatch", "worker", TraceScope::kLifecycle,
     TraceTrack::kDispatcher},
    {TraceEvent::kStart, "start", "worker", TraceScope::kLifecycle, TraceTrack::kSpans},
    {TraceEvent::kFault, "fault", "page", TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kFetchDone, "fetch-done", nullptr, TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kResume, "resume", "worker", TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kPreempt, "preempt", nullptr, TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kDone, "done", nullptr, TraceScope::kLifecycle, TraceTrack::kSpans},
    {TraceEvent::kFetchTimeout, "fetch-timeout", "page", TraceScope::kFetchPipeline,
     TraceTrack::kLane},
    {TraceEvent::kRetry, "retry", "attempt", TraceScope::kFetchPipeline, TraceTrack::kLane},
    {TraceEvent::kNodeSuspect, "node-suspect", "node", TraceScope::kSystem, TraceTrack::kNode},
    {TraceEvent::kNodeDead, "node-dead", "node", TraceScope::kSystem, TraceTrack::kNode},
    {TraceEvent::kFailover, "failover", "node", TraceScope::kFetchPipeline,
     TraceTrack::kNodeAndLane},
    {TraceEvent::kResilverDone, "resilver-done", "node", TraceScope::kSystem,
     TraceTrack::kNode},
    {TraceEvent::kPrefetch, "prefetch", "page", TraceScope::kHandler, TraceTrack::kLane},
    {TraceEvent::kPrefetchHit, "prefetch-hit", "page", TraceScope::kHandler, TraceTrack::kLane},
    {TraceEvent::kStall, "stall", "page", TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kStallDone, "stall-done", nullptr, TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kFrameStall, "frame-stall", "page", TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kFrameStallDone, "frame-stall-done", nullptr, TraceScope::kHandler,
     TraceTrack::kSpans},
    {TraceEvent::kTxWait, "tx-wait", nullptr, TraceScope::kHandler, TraceTrack::kSpans},
    {TraceEvent::kAdmit, "admit-drop", "tenant", TraceScope::kOverloadDrop,
     TraceTrack::kDispatcher},
    {TraceEvent::kShed, "shed-drop", "tenant", TraceScope::kOverloadDrop,
     TraceTrack::kDispatcher},
    {TraceEvent::kScale, "scale", "workers", TraceScope::kSystem, TraceTrack::kDispatcher},
    // A demand-path detection carries its request; scrub and re-silver
    // detections carry request id 0.
    {TraceEvent::kCorrupt, "corrupt", "node", TraceScope::kFetchPipeline,
     TraceTrack::kNodeAndLane},
    {TraceEvent::kScrubStart, "scrub-start", "pass", TraceScope::kSystem,
     TraceTrack::kDispatcher},
    {TraceEvent::kScrubDone, "scrub-done", "finds", TraceScope::kSystem,
     TraceTrack::kDispatcher},
    {TraceEvent::kChunkReady, "chunk-ready", "page", TraceScope::kFetchPipeline,
     TraceTrack::kLane},
    {TraceEvent::kClassDequeue, "class-dequeue", "class", TraceScope::kSystem,
     TraceTrack::kDispatcher},
};

constexpr bool TraceEventRowsInOrder() {
  for (uint8_t e = 0; e < kNumTraceEvents; ++e) {
    if (kTraceEvents[e].event != static_cast<TraceEvent>(e)) {
      return false;
    }
  }
  return true;
}
static_assert(std::size(kTraceEvents) == kNumTraceEvents, "one row per TraceEvent");
static_assert(TraceEventRowsInOrder(), "kTraceEvents rows are in enumerator order");

inline const TraceEventInfo& TraceEventInfoOf(TraceEvent ev) {
  ADIOS_DCHECK(static_cast<uint8_t>(ev) < kNumTraceEvents);
  return kTraceEvents[static_cast<uint8_t>(ev)];
}

// The event's name, or "?" for a value outside the enumeration.
const char* TraceEventName(TraceEvent ev);

struct TraceRecord {
  SimTime time = 0;
  uint64_t request_id = 0;
  TraceEvent event = TraceEvent::kArrive;
  uint32_t arg = 0;

  friend bool operator==(const TraceRecord& a, const TraceRecord& b) {
    return a.time == b.time && a.request_id == b.request_id && a.event == b.event &&
           a.arg == b.arg;
  }
  friend bool operator!=(const TraceRecord& a, const TraceRecord& b) { return !(a == b); }
};

class Tracer {
 public:
  // Starts recording up to `capacity` events (further events are dropped
  // and counted in dropped()).
  void Enable(size_t capacity) {
    ADIOS_CHECK(this != Off());  // The shared tracer of untraced components stays off.
    enabled_ = true;
    records_.clear();
    records_.reserve(capacity);
    capacity_ = capacity;
    dropped_ = 0;
  }

  bool enabled() const { return enabled_; }

  // A tracer that is never enabled: the default of every component built
  // without one, so recording sites need no null test.
  static Tracer* Off();

  void Record(SimTime time, uint64_t request_id, TraceEvent event, uint32_t arg = 0) {
    if (!enabled_) {
      return;
    }
    if (records_.size() >= capacity_) {
      ++dropped_;  // At capacity: the event is lost, but visibly so.
      return;
    }
    records_.push_back(TraceRecord{time, request_id, event, arg});
  }

  const std::vector<TraceRecord>& records() const { return records_; }

  // Events discarded because the capacity given to Enable() was reached.
  // Timelines printed from a saturated tracer are incomplete.
  uint64_t dropped() const { return dropped_; }

  // All events of one request, in time order (records are appended in
  // global time order already).
  std::vector<TraceRecord> ForRequest(uint64_t request_id) const;

  // Prints a human-readable timeline of one request's events, with deltas.
  void PrintTimeline(uint64_t request_id, std::FILE* out = stdout) const;

 private:
  bool enabled_ = false;
  size_t capacity_ = 0;
  uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_TRACE_H_
