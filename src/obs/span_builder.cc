#include "src/obs/span_builder.h"

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

void SpanFolder::Feed(const TraceRecord& rec) {
  if (rec.time < last_global_time_) {
    Problem(rec, "stream time went backwards");
  }
  last_global_time_ = rec.time;
  const TraceScope scope = TraceEventInfoOf(rec.event).scope;
  if (rec.request_id == 0) {
    return;  // System events, and scrub-side detections, belong to no span.
  }
  if (scope == TraceScope::kSystem) {
    Problem(rec, "system event with nonzero request id");
    return;
  }

  auto [it, first] = state_.try_emplace(rec.request_id);
  FoldState& st = it->second;
  if (first) {
    st.span_index = out_->spans.size();
    RequestSpan span;
    span.request_id = rec.request_id;
    out_->spans.push_back(span);
    // Every event follows kArrive. For fetch-pipeline events, which may
    // also follow kDone, that is the whole scope rule.
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

  if (scope == TraceScope::kHandler && (!span.started || span.completed)) {
    Problem(rec, "handler event outside [start, done]");
    return;
  }
  if (scope == TraceScope::kOverloadDrop) {
    if (span.dispatched || span.started || span.completed || span.ctrl_dropped) {
      Problem(rec, "overload drop outside [arrive, dispatch)");
      return;
    }
    // Rejected at arrival (docs/OVERLOAD.md): terminal, and the span ends
    // with only its (zero-service) queue segment.
    if (st.open && st.open_kind == SegmentKind::kQueue) {
      CloseSegment(st, span, rec, SegmentKind::kQueue);
    }
    st.open = false;
    span.ctrl_dropped = true;
    span.done_time = rec.time;
    return;
  }
  Fold(rec, st, span, first);
}

void SpanFolder::Fold(const TraceRecord& rec, FoldState& st, RequestSpan& span, bool first) {
  switch (rec.event) {
    case TraceEvent::kArrive:
      if (!first) {
        Problem(rec, "duplicate arrive");
        break;
      }
      span.arrive_time = rec.time;
      OpenSegment(st, SegmentKind::kQueue, rec.time);
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

    case TraceEvent::kStall:
      ++span.stalls;
      SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kFetchStall);
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
    case TraceEvent::kTxWait:
      SwitchSegment(st, span, rec, SegmentKind::kExec, SegmentKind::kTx);
      break;

    case TraceEvent::kResume:
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

    // Counters. Fetch-pipeline events are attributed to the initiating
    // request; a prefetch posted on its behalf can time out, retry, fail
    // over, verify bad or land its critical chunk after it completed.
    case TraceEvent::kFault:
      ++span.faults;
      break;
    case TraceEvent::kPrefetch:
      ++span.prefetches;
      break;
    case TraceEvent::kPrefetchHit:
      ++span.prefetch_hits;
      break;
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

    default:
      break;  // Nothing to fold beyond the scope check (kFetchDone).
  }
}

void SpanFolder::OpenSegment(FoldState& st, SegmentKind kind, SimTime at) {
  st.open = true;
  st.open_kind = kind;
  st.open_begin = at;
}

// Closes the open segment (must be `expect`) at rec.time, accumulating its
// duration into the span's per-kind total.
void SpanFolder::CloseSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
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
// request lifetime with no gaps. On a mismatch the problem is recorded and
// the fold resynchronizes on `to`.
void SpanFolder::SwitchSegment(FoldState& st, RequestSpan& span, const TraceRecord& rec,
                               SegmentKind from, SegmentKind to) {
  CloseSegment(st, span, rec, from);
  OpenSegment(st, to, rec.time);
}

void SpanFolder::Problem(const TraceRecord& rec, const char* what) {
  ++problem_count_;
  if (out_->problems.size() >= kMaxProblems) {
    return;
  }
  out_->problems.push_back(StrFormat("req %llu @%llu %s: %s",
                                     static_cast<unsigned long long>(rec.request_id),
                                     static_cast<unsigned long long>(rec.time),
                                     TraceEventName(rec.event), what));
}

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
  SpanFolder folder(&out);
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

}  // namespace adios
