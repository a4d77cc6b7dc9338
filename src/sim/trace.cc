#include "src/sim/trace.h"

namespace adios {

const char* TraceEventName(TraceEvent ev) {
  return static_cast<uint8_t>(ev) < kNumTraceEvents ? TraceEventInfoOf(ev).name : "?";
}

Tracer* Tracer::Off() {
  static Tracer off;
  return &off;
}

std::vector<TraceRecord> Tracer::ForRequest(uint64_t request_id) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_) {
    if (r.request_id == request_id) {
      out.push_back(r);
    }
  }
  return out;
}

void Tracer::PrintTimeline(uint64_t request_id, std::FILE* out) const {
  const auto events = ForRequest(request_id);
  if (events.empty()) {
    std::fprintf(out, "request %llu: no trace records", static_cast<unsigned long long>(request_id));
    if (dropped_ > 0) {
      std::fprintf(out, " (%llu events dropped at capacity — its records may be among them)",
                   static_cast<unsigned long long>(dropped_));
    }
    std::fprintf(out, "\n");
    return;
  }
  const SimTime t0 = events.front().time;
  std::fprintf(out, "request %llu timeline:\n", static_cast<unsigned long long>(request_id));
  SimTime prev = t0;
  for (const auto& e : events) {
    std::fprintf(out, "  +%8.2f us (%+7.2f)  %-13s", static_cast<double>(e.time - t0) / 1000.0,
                 static_cast<double>(e.time - prev) / 1000.0, TraceEventName(e.event));
    if (const char* label = TraceEventInfoOf(e.event).arg) {
      std::fprintf(out, " %s=%u", label, e.arg);
    }
    std::fprintf(out, "\n");
    prev = e.time;
  }
  if (dropped_ > 0) {
    std::fprintf(out, "  (tracer dropped %llu events at capacity; timeline may be incomplete)\n",
                 static_cast<unsigned long long>(dropped_));
  }
}

}  // namespace adios
