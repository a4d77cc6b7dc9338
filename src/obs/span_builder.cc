#include "src/obs/span_builder.h"

#include <cstdio>

#include "src/base/table_printer.h"

namespace adios {

const char* SegmentKindName(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kQueue:
      return "queue";
    case SegmentKind::kExec:
      return "exec";
    case SegmentKind::kFetchStall:
      return "fetch-stall";
    case SegmentKind::kFrameStall:
      return "frame-stall";
    case SegmentKind::kPreempted:
      return "preempted";
    case SegmentKind::kTx:
      return "tx";
  }
  return "?";
}

namespace {

// Folding state for one request: the span being built plus the currently
// open segment.
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

class Folder {
 public:
  explicit Folder(SpanTimeline* out) : out_(out) {}

  void Feed(const TraceRecord& rec) {
    if (rec.request_id == 0) {
      return;  // Node-level health events are not request spans.
    }
    if (rec.time < last_global_time_) {
      Problem(rec, "stream time went backwards");
    }
    last_global_time_ = rec.time;

    auto [it, inserted] = state_.try_emplace(rec.request_id);
    FoldState& st = it->second;
    if (inserted) {
      st.span_index = out_->spans.size();
      RequestSpan span;
      span.request_id = rec.request_id;
      out_->spans.push_back(span);
      if (rec.event != TraceEvent::kArrive) {
        Problem(rec, "first event is not arrive");
        // Fold from here anyway so later grammar still gets checked.
        out_->spans[st.span_index].arrive_time = rec.time;
      }
    }
    RequestSpan& span = out_->spans[st.span_index];
    if (rec.time < st.last_time) {
      Problem(rec, "request time went backwards");
    }
    st.last_time = rec.time;

    switch (rec.event) {
      case TraceEvent::kArrive:
        if (!inserted) {
          Problem(rec, "duplicate arrive");
          break;
        }
        span.arrive_time = rec.time;
        st.open = true;
        st.open_kind = SegmentKind::kQueue;
        st.open_begin = rec.time;
        break;

      case TraceEvent::kDispatch:
        if (span.dispatched || span.started) {
          Problem(rec, "duplicate dispatch");
        }
        span.dispatched = true;
        span.dispatch_time = rec.time;
        break;

      case TraceEvent::kStart:
        if (span.started) {
          Problem(rec, "duplicate start");
          break;
        }
        if (!span.dispatched) {
          Problem(rec, "start before dispatch");
        }
        span.started = true;
        span.start_time = rec.time;
        span.worker = rec.arg;
        st.current_worker = rec.arg;
        CloseSegment(st, span, rec, SegmentKind::kQueue);
        OpenSegment(st, SegmentKind::kExec, rec.time);
        break;

      case TraceEvent::kStall:
        ++span.stalls;
        if (!SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kFetchStall)) {
          break;
        }
        break;

      case TraceEvent::kStallDone:
        SwitchSegment(st, span, rec, SegmentKind::kFetchStall, SegmentKind::kExec);
        break;

      case TraceEvent::kFrameStall:
        SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kFrameStall);
        break;

      case TraceEvent::kFrameStallDone:
        SwitchSegment(st, span, rec, SegmentKind::kFrameStall, SegmentKind::kExec);
        break;

      case TraceEvent::kPreempt:
        ++span.preemptions;
        SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kPreempted);
        break;

      case TraceEvent::kResume:
        if (!span.started || span.completed) {
          Problem(rec, "resume outside [start, done]");
          break;
        }
        st.current_worker = rec.arg;
        // A resume closes a preempted gap. Inside a fetch/frame stall it is
        // the worker waking the unithread to re-check (the stall closes at
        // kStallDone / kFrameStallDone, recorded by the unithread itself),
        // so it does not end the open segment.
        if (st.open && st.open_kind == SegmentKind::kPreempted) {
          SwitchSegment(st, span, rec, SegmentKind::kPreempted, SegmentKind::kExec);
        } else if (st.open && st.open_kind == SegmentKind::kExec) {
          Problem(rec, "resume while executing");
        }
        break;

      case TraceEvent::kTxWait:
        SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kTx);
        break;

      case TraceEvent::kDone:
        if (span.completed) {
          Problem(rec, "duplicate done");
          break;
        }
        if (!span.started) {
          Problem(rec, "done before start");
        }
        if (st.open &&
            (st.open_kind == SegmentKind::kExec || st.open_kind == SegmentKind::kTx)) {
          CloseSegment(st, span, rec, st.open_kind);
        } else {
          Problem(rec, "done while stalled");
          if (st.open) {
            CloseSegment(st, span, rec, st.open_kind);
          }
        }
        st.open = false;
        span.completed = true;
        span.done_time = rec.time;
        break;

      case TraceEvent::kFault:
        ++span.faults;
        if (!span.started || span.completed) {
          Problem(rec, "fault outside [start, done]");
        }
        break;

      case TraceEvent::kFetchDone:
        if (!span.started || span.completed) {
          Problem(rec, "fetch-done outside [start, done]");
        }
        break;

      case TraceEvent::kPrefetch:
        ++span.prefetches;
        break;
      case TraceEvent::kPrefetchHit:
        ++span.prefetch_hits;
        break;

      // Fetch-pipeline events attributed to the initiating request. A
      // prefetch posted on behalf of a request can time out and retry long
      // after the request completed, so these are legal at any point after
      // dispatch.
      case TraceEvent::kFetchTimeout:
        ++span.timeouts;
        break;
      case TraceEvent::kRetry:
        ++span.retries;
        break;
      case TraceEvent::kFailover:
        ++span.failovers;
        break;
      case TraceEvent::kCorrupt:
        ++span.corruptions;
        break;
      case TraceEvent::kChunkReady:
        ++span.chunks_ready;
        break;

      case TraceEvent::kNodeSuspect:
      case TraceEvent::kNodeDead:
      case TraceEvent::kResilverDone:
      case TraceEvent::kScale:
      case TraceEvent::kScrubStart:
      case TraceEvent::kScrubDone:
      case TraceEvent::kFrameRefill:
      case TraceEvent::kClassDequeue:
        Problem(rec, "system event with nonzero request id");
        break;

      // Overload-control rejection at arrival (docs/OVERLOAD.md): terminal.
      // The span ends here with only its (zero-service) queue segment.
      case TraceEvent::kAdmit:
      case TraceEvent::kShed:
        if (span.started || span.completed || span.ctrl_dropped) {
          Problem(rec, "overload drop after start");
          break;
        }
        if (st.open && st.open_kind == SegmentKind::kQueue) {
          CloseSegment(st, span, rec, SegmentKind::kQueue);
        }
        st.open = false;
        span.ctrl_dropped = true;
        span.done_time = rec.time;
        break;
    }
  }

 private:
  void OpenSegment(FoldState& st, SegmentKind kind, SimTime at) {
    st.open = true;
    st.open_kind = kind;
    st.open_begin = at;
  }

  // Closes the open segment (must be `expect`) at rec.time, accumulating its
  // duration into the span's per-kind total.
  void CloseSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
                    SegmentKind expect) {
    if (!st.open || st.open_kind != expect) {
      Problem(rec, "segment close does not match open segment");
      if (!st.open) {
        return;
      }
    }
    const SegmentKind kind = st.open_kind;
    const SimTime begin = st.open_begin;
    const SimTime end = rec.time;
    st.open = false;
    const uint64_t ns = end - begin;
    switch (kind) {
      case SegmentKind::kQueue:
        span.queue_ns += ns;
        break;
      case SegmentKind::kExec:
        span.exec_ns += ns;
        break;
      case SegmentKind::kFetchStall:
        span.fetch_stall_ns += ns;
        break;
      case SegmentKind::kFrameStall:
        span.frame_stall_ns += ns;
        break;
      case SegmentKind::kPreempted:
        span.preempted_ns += ns;
        break;
      case SegmentKind::kTx:
        span.tx_ns += ns;
        break;
    }
    if (ns > 0) {
      span.segments.push_back(SpanSegment{
          kind, begin, end,
          kind == SegmentKind::kExec ? st.current_worker : SpanSegment::kNoWorker});
    }
  }

  // Close `from` and open `to` at the same instant, so segments tile the
  // request lifetime with no gaps. Returns false when the grammar was
  // violated (the problem is recorded and the fold resynchronizes on `to`).
  bool SwitchSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
                     SegmentKind from, SegmentKind to) {
    const bool ok = st.open && st.open_kind == from;
    CloseSegment(st, span, rec, from);
    OpenSegment(st, to, rec.time);
    return ok;
  }

  void Problem(const TraceRecord& rec, const char* what) {
    if (out_->problems.size() >= kMaxProblems) {
      return;
    }
    out_->problems.push_back(StrFormat("req %llu @%llu %s: %s",
                                       static_cast<unsigned long long>(rec.request_id),
                                       static_cast<unsigned long long>(rec.time),
                                       TraceEventName(rec.event), what));
  }

  static constexpr size_t kMaxProblems = 64;
  SpanTimeline* out_;
  SimTime last_global_time_ = 0;
  std::unordered_map<uint64_t, FoldState> state_;
};

}  // namespace

const RequestSpan* SpanTimeline::Find(uint64_t request_id) const {
  for (const RequestSpan& s : spans) {
    if (s.request_id == request_id) {
      return &s;
    }
  }
  return nullptr;
}

SpanTimeline BuildSpans(const Tracer& tracer) {
  SpanTimeline out;
  out.dropped_records = tracer.dropped();
  Folder folder(&out);
  for (const TraceRecord& rec : tracer.records()) {
    folder.Feed(rec);
  }
  return out;
}

std::vector<std::string> ReconcileSpans(const SpanTimeline& timeline,
                                        const std::vector<RequestSample>& samples) {
  std::vector<std::string> problems;
  constexpr size_t kMaxProblems = 64;
  std::unordered_map<uint64_t, const RequestSpan*> by_id;
  by_id.reserve(timeline.spans.size());
  for (const RequestSpan& s : timeline.spans) {
    by_id.emplace(s.request_id, &s);
  }
  auto mismatch = [&problems](uint64_t id, const char* what, uint64_t span_v,
                              uint64_t sample_v) {
    if (problems.size() >= kMaxProblems) {
      return;
    }
    problems.push_back(StrFormat("req %llu: span %s %llu != sample %llu",
                                 static_cast<unsigned long long>(id), what,
                                 static_cast<unsigned long long>(span_v),
                                 static_cast<unsigned long long>(sample_v)));
  };
  for (const RequestSample& sample : samples) {
    auto it = by_id.find(sample.id);
    if (it == by_id.end()) {
      continue;  // Tracer enabled late or saturated: no span for this sample.
    }
    const RequestSpan& span = *it->second;
    if (!span.completed) {
      continue;  // Truncated mid-flight (tracer hit capacity).
    }
    if (span.TotalNs() != sample.server_ns) {
      mismatch(sample.id, "total", span.TotalNs(), sample.server_ns);
    }
    if (span.ComponentSumNs() != span.TotalNs()) {
      mismatch(sample.id, "component-sum-vs-total", span.ComponentSumNs(), span.TotalNs());
    }
    if (span.queue_ns != sample.queue_ns) {
      mismatch(sample.id, "queue", span.queue_ns, sample.queue_ns);
    }
    if (span.fetch_stall_ns != sample.rdma_ns) {
      mismatch(sample.id, "fetch-stall", span.fetch_stall_ns, sample.rdma_ns);
    }
    if (span.tx_ns != sample.tx_ns) {
      mismatch(sample.id, "tx", span.tx_ns, sample.tx_ns);
    }
    if (span.stalls != sample.faults) {
      mismatch(sample.id, "stall-count", span.stalls, sample.faults);
    }
  }
  return problems;
}

void PrintSpan(const RequestSpan& span, std::FILE* out) {
  std::fprintf(out, "request %llu span (worker %d, %s):\n",
               static_cast<unsigned long long>(span.request_id),
               span.worker == RequestSpan::kNoWorker ? -1 : static_cast<int>(span.worker),
               span.completed ? "completed" : "incomplete");
  for (const SpanSegment& seg : span.segments) {
    std::fprintf(out, "  +%8.2f us  %-11s %8.2f us\n",
                 static_cast<double>(seg.begin - span.arrive_time) / 1000.0,
                 SegmentKindName(seg.kind), static_cast<double>(seg.ns()) / 1000.0);
  }
  std::fprintf(out,
               "  total %.2f us = queue %.2f + exec %.2f + fetch-stall %.2f + "
               "frame-stall %.2f + preempted %.2f + tx %.2f\n",
               static_cast<double>(span.TotalNs()) / 1000.0,
               static_cast<double>(span.queue_ns) / 1000.0,
               static_cast<double>(span.exec_ns) / 1000.0,
               static_cast<double>(span.fetch_stall_ns) / 1000.0,
               static_cast<double>(span.frame_stall_ns) / 1000.0,
               static_cast<double>(span.preempted_ns) / 1000.0,
               static_cast<double>(span.tx_ns) / 1000.0);
}

}  // namespace adios
