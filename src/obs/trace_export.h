// Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
//
// Track layout (one process, pid 1, named after the system under test):
//
//   tid 0            dispatcher — instant events per arrival and dispatch,
//                                 overload decision and background pass
//   tid 1..W         worker i   — complete (X) events for exec segments; at
//                                 most one unithread runs per worker at a
//                                 time, so they never overlap
//   tid 1000+n       node n     — instant events for health transitions and
//                                 for failovers and detections on the node
//
// Every request additionally gets an async lane (cat "request", id = request
// id) carrying its segment tiling (queue/exec/fetch-stall/...) as nestable
// b/e pairs plus async instants for its fetch pipeline (timeouts, retries,
// failovers, prefetches, ...). Each event's track is its row's `track` in
// kTraceEvents (src/sim/trace.h). Timestamps are microseconds (simulated
// time).

#ifndef ADIOS_SRC_OBS_TRACE_EXPORT_H_
#define ADIOS_SRC_OBS_TRACE_EXPORT_H_

#include <string>

#include "src/obs/span_builder.h"
#include "src/sim/trace.h"

namespace adios {

struct TraceExportOptions {
  std::string system_name = "adios";
  uint32_t num_workers = 0;  // Tracks to pre-declare (exec events can only
  uint32_t num_nodes = 0;    // reference declared workers/nodes anyway).
};

// Writes the tracer's stream as Chrome trace-event JSON to `path` (stdout
// when path == "-"). Returns false when the file cannot be written.
bool ExportChromeTrace(const Tracer& tracer, const SpanTimeline& timeline,
                       const TraceExportOptions& opts, const std::string& path);

// Convenience overload that builds the span timeline itself.
bool ExportChromeTrace(const Tracer& tracer, const TraceExportOptions& opts,
                       const std::string& path);

}  // namespace adios

#endif  // ADIOS_SRC_OBS_TRACE_EXPORT_H_
