#include "src/obs/trace_export.h"

#include <cstdio>

namespace adios {
namespace {

constexpr int kPid = 1;
constexpr uint32_t kDispatcherTid = 0;
constexpr uint32_t kWorkerTidBase = 1;
constexpr uint32_t kNodeTidBase = 1000;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Streams the traceEvents array, inserting commas between events.
class Emitter {
 public:
  explicit Emitter(std::FILE* out) : out_(out) {}

  void Begin() { std::fprintf(out_, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); }
  void End() { std::fprintf(out_, "\n]}\n"); }

  void Meta(uint32_t tid, const char* what, const std::string& name) {
    Sep();
    std::fprintf(out_, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%u,\"name\":\"%s\","
                       "\"args\":{\"name\":\"%s\"}}",
                 kPid, tid, what, JsonEscape(name).c_str());
  }

  void ProcessName(const std::string& name) {
    Sep();
    std::fprintf(out_, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                       "\"args\":{\"name\":\"%s\"}}",
                 kPid, JsonEscape(name).c_str());
  }

  // Thread-scoped instant event.
  void Instant(uint32_t tid, SimTime t, const char* name, uint64_t req, uint32_t arg,
               const char* arg_name) {
    Sep();
    std::fprintf(out_, "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%u,\"ts\":%s,"
                       "\"name\":\"%s\",\"args\":{\"req\":%llu,\"%s\":%u}}",
                 kPid, tid, Us(t), name, static_cast<unsigned long long>(req), arg_name,
                 arg);
  }

  // Complete (X) event: an exec slice on a worker track.
  void Complete(uint32_t tid, SimTime begin, SimTime end, const char* name, uint64_t req) {
    Sep();
    std::fprintf(out_, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%s,", kPid, tid,
                 Us(begin));
    std::fprintf(out_, "\"dur\":%s,\"name\":\"%s\",\"args\":{\"req\":%llu}}", Us(end - begin),
                 name, static_cast<unsigned long long>(req));
  }

  // Nestable async begin/end/instant on a request lane.
  void Async(char phase, uint64_t id, SimTime t, const char* name) {
    Sep();
    std::fprintf(out_, "{\"ph\":\"%c\",\"cat\":\"request\",\"id\":%llu,\"pid\":%d,"
                       "\"tid\":%u,\"ts\":%s,\"name\":\"%s\"}",
                 phase, static_cast<unsigned long long>(id), kPid, kDispatcherTid, Us(t),
                 name);
  }

 private:
  // ts/dur in microseconds; three decimals keep full nanosecond precision.
  // Returns a pointer to a static buffer (single-threaded exporter).
  const char* Us(SimTime t) {
    std::snprintf(us_buf_, sizeof(us_buf_), "%.3f", static_cast<double>(t) / 1000.0);
    return us_buf_;
  }

  void Sep() {
    if (!first_) {
      std::fprintf(out_, ",\n");
    }
    first_ = false;
  }

  std::FILE* out_;
  bool first_ = true;
  char us_buf_[40];
};

}  // namespace

bool ExportChromeTrace(const Tracer& tracer, const SpanTimeline& timeline,
                       const TraceExportOptions& opts, const std::string& path) {
  std::FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }

  Emitter e(out);
  e.Begin();
  e.ProcessName(opts.system_name);
  e.Meta(kDispatcherTid, "thread_name", "dispatcher");
  for (uint32_t i = 0; i < opts.num_workers; ++i) {
    e.Meta(kWorkerTidBase + i, "thread_name", "worker-" + std::to_string(i));
  }
  for (uint32_t n = 0; n < opts.num_nodes; ++n) {
    e.Meta(kNodeTidBase + n, "thread_name", "node-" + std::to_string(n));
  }

  // Raw-record events go where their row's track says (kTraceEvents); span
  // boundaries are exported from the folded segments below.
  for (const TraceRecord& rec : tracer.records()) {
    const TraceEventInfo& info = TraceEventInfoOf(rec.event);
    const char* arg = info.arg != nullptr ? info.arg : "arg";
    if (info.track == TraceTrack::kDispatcher) {
      e.Instant(kDispatcherTid, rec.time, info.name, rec.request_id, rec.arg, arg);
    }
    if (info.track == TraceTrack::kNode || info.track == TraceTrack::kNodeAndLane) {
      e.Instant(kNodeTidBase + rec.arg, rec.time, info.name, rec.request_id, rec.arg, arg);
    }
    if ((info.track == TraceTrack::kLane || info.track == TraceTrack::kNodeAndLane) &&
        rec.request_id != 0) {
      e.Async('n', rec.request_id, rec.time, info.name);
    }
  }

  // Span events: request lanes (nestable async) + worker exec slices.
  for (const RequestSpan& span : timeline.spans) {
    for (const SpanSegment& seg : span.segments) {
      e.Async('b', span.request_id, seg.begin, SegmentKindName(seg.kind));
      e.Async('e', span.request_id, seg.end, SegmentKindName(seg.kind));
      if (seg.kind == SegmentKind::kExec && seg.worker != SpanSegment::kNoWorker) {
        e.Complete(kWorkerTidBase + seg.worker, seg.begin, seg.end, "exec",
                   span.request_id);
      }
    }
  }

  e.End();
  const bool ok = std::ferror(out) == 0;
  if (out != stdout) {
    std::fclose(out);
  }
  return ok;
}

bool ExportChromeTrace(const Tracer& tracer, const TraceExportOptions& opts,
                       const std::string& path) {
  const SpanTimeline timeline = BuildSpans(tracer);
  return ExportChromeTrace(tracer, timeline, opts, path);
}

}  // namespace adios
