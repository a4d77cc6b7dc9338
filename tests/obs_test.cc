// Unit tests for the observability layer (src/obs/): metric registry, span
// builder, windowed time series, and the Chrome trace exporter — plus the
// golden-span regression: a fixed-seed run whose folded span summary must
// match the committed expectation exactly (the simulator is deterministic,
// so any drift means the event stream or the folding changed).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/array_app.h"
#include "src/base/table_printer.h"
#include "src/core/md_system.h"
#include "src/obs/metric_registry.h"
#include "src/obs/span_builder.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_export.h"

namespace adios {
namespace {

// --- Metric registry ---

TEST(MetricLabels, CanonicalizesSortedByKey) {
  MetricLabels l({{"worker", "3"}, {"op", "GET"}});
  EXPECT_EQ(l.str(), "op=GET,worker=3");
  MetricLabels same({{"op", "GET"}, {"worker", "3"}});
  EXPECT_EQ(same.str(), l.str());
  EXPECT_TRUE(MetricLabels().empty());
  EXPECT_EQ(MetricLabels::Worker(7).str(), "worker=7");
  EXPECT_EQ(MetricLabels::Node(2).str(), "node=2");
}

TEST(MetricRegistry, CounterHandlesAreStableAndIdempotent) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("reqs", MetricLabels::Worker(0));
  Counter* b = reg.GetCounter("reqs", MetricLabels::Worker(1));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.GetCounter("reqs", MetricLabels::Worker(0)));
  a->Inc();
  a->Inc(4);
  b->Inc(2);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("reqs", "worker=0"), 5.0);
  EXPECT_EQ(snap.Value("reqs", "worker=1"), 2.0);
  EXPECT_EQ(snap.Sum("reqs"), 7.0);
  EXPECT_EQ(snap.Value("missing", "", -1.0), -1.0);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(MetricRegistry, GaugeAndHistogram) {
  MetricRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  g->Set(3.0);
  g->Add(1.5);
  HistogramMetric* h = reg.GetHistogram("lat", MetricLabels::Op("GET"));
  for (uint64_t v = 1; v <= 100; ++v) {
    h->Observe(v);
  }
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("depth"), 4.5);
  const MetricSample* s = snap.Find("lat", "op=GET");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kHistogram);
  EXPECT_EQ(s->value, 100.0);  // Count.
  EXPECT_EQ(s->max, 100u);
  EXPECT_GE(s->p99, 98u);
}

TEST(MetricRegistry, ProbesSampleAtSnapshotTime) {
  MetricRegistry reg;
  uint64_t source = 10;
  reg.RegisterProbe("probe", {}, [&source] { return static_cast<double>(source); });
  EXPECT_EQ(reg.Snapshot().Value("probe"), 10.0);
  source = 42;  // No double bookkeeping: the snapshot reads the live value.
  EXPECT_EQ(reg.Snapshot().Value("probe"), 42.0);
}

TEST(MetricRegistry, SnapshotIsSortedByNameThenLabels) {
  MetricRegistry reg;
  reg.GetCounter("zz");
  reg.GetCounter("aa", MetricLabels::Worker(1));
  reg.GetCounter("aa", MetricLabels::Worker(0));
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "aa");
  EXPECT_EQ(snap.samples[0].labels, "worker=0");
  EXPECT_EQ(snap.samples[1].labels, "worker=1");
  EXPECT_EQ(snap.samples[2].name, "zz");
}

// --- Span builder: synthetic streams ---

TEST(SpanBuilder, FoldsALegalStreamIntoATiledSpan) {
  Tracer t;
  t.Enable(64);
  t.Record(100, 1, TraceEvent::kArrive);
  t.Record(110, 1, TraceEvent::kDispatch, 2);
  t.Record(120, 1, TraceEvent::kStart, 2);
  t.Record(125, 1, TraceEvent::kFault, 77);
  t.Record(130, 1, TraceEvent::kStall, 77);
  t.Record(150, 1, TraceEvent::kFetchDone, 77);
  t.Record(150, 1, TraceEvent::kStallDone);
  t.Record(160, 1, TraceEvent::kTxWait);
  t.Record(170, 1, TraceEvent::kDone);

  SpanTimeline tl = BuildSpans(t);
  ASSERT_TRUE(tl.problems.empty()) << tl.problems[0];
  ASSERT_EQ(tl.spans.size(), 1u);
  const RequestSpan& s = tl.spans[0];
  EXPECT_TRUE(s.completed);
  EXPECT_EQ(s.worker, 2u);
  EXPECT_EQ(s.queue_ns, 20u);
  EXPECT_EQ(s.exec_ns, 20u);  // 120-130 and 150-160.
  EXPECT_EQ(s.fetch_stall_ns, 20u);
  EXPECT_EQ(s.tx_ns, 10u);
  EXPECT_EQ(s.faults, 1u);
  EXPECT_EQ(s.stalls, 1u);
  EXPECT_EQ(s.TotalNs(), 70u);
  EXPECT_EQ(s.ComponentSumNs(), s.TotalNs());
  // Segment tiling: queue, exec, fetch-stall, exec, tx — contiguous.
  ASSERT_EQ(s.segments.size(), 5u);
  EXPECT_EQ(s.segments[0].kind, SegmentKind::kQueue);
  EXPECT_EQ(s.segments[2].kind, SegmentKind::kFetchStall);
  EXPECT_EQ(s.segments[4].kind, SegmentKind::kTx);
  for (size_t i = 1; i < s.segments.size(); ++i) {
    EXPECT_EQ(s.segments[i].begin, s.segments[i - 1].end);
  }
  // Exec segments carry the worker; stalls don't.
  EXPECT_EQ(s.segments[1].worker, 2u);
  EXPECT_EQ(s.segments[2].worker, SpanSegment::kNoWorker);
  EXPECT_NE(tl.Find(1), nullptr);
  EXPECT_EQ(tl.Find(99), nullptr);
}

TEST(SpanBuilder, FrameStallAndPreemptionSegments) {
  Tracer t;
  t.Enable(64);
  t.Record(0, 5, TraceEvent::kArrive);
  t.Record(10, 5, TraceEvent::kDispatch, 0);
  t.Record(10, 5, TraceEvent::kStart, 0);
  t.Record(20, 5, TraceEvent::kFrameStall, 9);
  t.Record(35, 5, TraceEvent::kFrameStallDone);
  t.Record(40, 5, TraceEvent::kPreempt);
  t.Record(60, 5, TraceEvent::kResume, 1);  // Work-stealing moved it to w1.
  t.Record(80, 5, TraceEvent::kDone);

  SpanTimeline tl = BuildSpans(t);
  ASSERT_TRUE(tl.problems.empty()) << tl.problems[0];
  const RequestSpan& s = tl.spans[0];
  EXPECT_EQ(s.frame_stall_ns, 15u);
  EXPECT_EQ(s.preempted_ns, 20u);
  EXPECT_EQ(s.preemptions, 1u);
  EXPECT_EQ(s.ComponentSumNs(), s.TotalNs());
  // The post-resume exec segment ran on the stealing worker.
  const SpanSegment& last = s.segments.back();
  EXPECT_EQ(last.kind, SegmentKind::kExec);
  EXPECT_EQ(last.worker, 1u);
}

TEST(SpanBuilder, FlagsDoneWhileStalled) {
  Tracer t;
  t.Enable(64);
  t.Record(0, 1, TraceEvent::kArrive);
  t.Record(1, 1, TraceEvent::kDispatch, 0);
  t.Record(2, 1, TraceEvent::kStart, 0);
  t.Record(3, 1, TraceEvent::kStall, 4);
  t.Record(9, 1, TraceEvent::kDone);  // Stall never closed.
  SpanTimeline tl = BuildSpans(t);
  EXPECT_FALSE(tl.problems.empty());
}

TEST(SpanBuilder, PostDoneFetchPipelineEventsAreLegal) {
  // A prefetch READ issued by this request can time out, retry, and fail
  // over after the request itself completed: not a grammar violation.
  Tracer t;
  t.Enable(64);
  t.Record(0, 1, TraceEvent::kArrive);
  t.Record(1, 1, TraceEvent::kDispatch, 0);
  t.Record(2, 1, TraceEvent::kStart, 0);
  t.Record(8, 1, TraceEvent::kDone);
  t.Record(20, 1, TraceEvent::kFetchTimeout, 7);
  t.Record(25, 1, TraceEvent::kRetry, 1);
  t.Record(30, 1, TraceEvent::kFailover, 1);
  SpanTimeline tl = BuildSpans(t);
  EXPECT_TRUE(tl.problems.empty()) << tl.problems[0];
  EXPECT_EQ(tl.spans[0].timeouts, 1u);
  EXPECT_EQ(tl.spans[0].retries, 1u);
  EXPECT_EQ(tl.spans[0].failovers, 1u);
}

TEST(SpanBuilder, ShedAfterDispatchIsAProblem) {
  // Overload drops are legal only in [kArrive, kDispatch): once dispatched,
  // the request is past admission.
  Tracer t;
  t.Enable(64);
  t.Record(0, 1, TraceEvent::kArrive);
  t.Record(1, 1, TraceEvent::kDispatch, 0);
  t.Record(2, 1, TraceEvent::kShed, 0);
  SpanTimeline tl = BuildSpans(t);
  EXPECT_FALSE(tl.problems.empty());
}

TEST(SpanBuilder, PrefetchAfterDoneIsAProblem) {
  // A prefetch is posted by the faulting handler, so it lies in
  // [kStart, kDone]; only its fetch pipeline may outlive the request.
  Tracer t;
  t.Enable(64);
  t.Record(0, 1, TraceEvent::kArrive);
  t.Record(1, 1, TraceEvent::kDispatch, 0);
  t.Record(2, 1, TraceEvent::kStart, 0);
  t.Record(8, 1, TraceEvent::kDone);
  t.Record(9, 1, TraceEvent::kPrefetch, 3);
  SpanTimeline tl = BuildSpans(t);
  EXPECT_FALSE(tl.problems.empty());
}

TEST(SpanBuilder, NodeEventsAreSkippedNotFolded) {
  Tracer t;
  t.Enable(64);
  t.Record(5, 0, TraceEvent::kNodeSuspect, 1);  // request_id 0: health monitor.
  t.Record(6, 0, TraceEvent::kNodeDead, 1);
  SpanTimeline tl = BuildSpans(t);
  EXPECT_TRUE(tl.spans.empty());
  EXPECT_TRUE(tl.problems.empty());
}

TEST(SpanBuilder, ReconcileFlagsMismatchedSamples) {
  Tracer t;
  t.Enable(64);
  t.Record(100, 1, TraceEvent::kArrive);
  t.Record(110, 1, TraceEvent::kDispatch, 0);
  t.Record(120, 1, TraceEvent::kStart, 0);
  t.Record(170, 1, TraceEvent::kDone);
  SpanTimeline tl = BuildSpans(t);
  ASSERT_TRUE(tl.problems.empty());

  RequestSample good;
  good.id = 1;
  good.server_ns = 70;
  good.queue_ns = 20;
  good.rdma_ns = 0;
  good.tx_ns = 0;
  EXPECT_TRUE(ReconcileSpans(tl, {good}).empty());

  RequestSample bad = good;
  bad.rdma_ns = 999;  // Sample claims a stall the span never saw.
  EXPECT_FALSE(ReconcileSpans(tl, {bad}).empty());

  RequestSample unmatched = good;
  unmatched.id = 42;  // No span (tracer enabled late): ignored, not an error.
  EXPECT_TRUE(ReconcileSpans(tl, {unmatched}).empty());
}

// --- Windowed time series ---

RequestSample SampleAt(uint64_t id, uint64_t finish_ns, uint64_t e2e_ns) {
  RequestSample s;
  s.id = id;
  s.finish_ns = finish_ns;
  s.e2e_ns = e2e_ns;
  return s;
}

TEST(TimeSeries, BinsByReplyLandingTime) {
  std::vector<RequestSample> samples;
  samples.push_back(SampleAt(1, 500, 10));    // Before warmup: skipped.
  samples.push_back(SampleAt(2, 1100, 10));   // Window 0.
  samples.push_back(SampleAt(3, 1900, 30));   // Window 0.
  samples.push_back(SampleAt(4, 2500, 20));   // Window 1.
  samples.push_back(SampleAt(5, 99999, 20));  // Past the last window: skipped.
  std::vector<PfPoint> pf = {{1200, 2.0}, {1800, 4.0}, {2100, 1.0}};
  TimeSeries ts = BuildTimeSeries(samples, pf, /*warmup_ns=*/1000,
                                  /*measure_ns=*/3000, /*window_ns=*/1000);
  ASSERT_EQ(ts.windows.size(), 3u);
  EXPECT_EQ(ts.origin, 1000u);
  EXPECT_EQ(ts.windows[0].completed, 2u);
  EXPECT_EQ(ts.windows[1].completed, 1u);
  EXPECT_EQ(ts.windows[2].completed, 0u);
  // Nearest-rank (the Breakdown() rule): idx = p/100*(n-1)+0.5, so the P50
  // of two samples is the upper one.
  EXPECT_EQ(ts.windows[0].p50_ns, 30u);
  EXPECT_EQ(ts.windows[0].p99_ns, 30u);
  EXPECT_EQ(ts.windows[0].max_ns, 30u);
  EXPECT_EQ(ts.windows[2].p50_ns, 0u);  // Empty window.
  EXPECT_DOUBLE_EQ(ts.windows[0].mean_outstanding_pf, 3.0);
  EXPECT_EQ(ts.windows[0].pf_samples, 2u);
  EXPECT_DOUBLE_EQ(ts.windows[1].mean_outstanding_pf, 1.0);
  // 2 completions in a 1 us window = 2 M/s = 2000 K/s.
  EXPECT_DOUBLE_EQ(ts.GoodputKrps(0), 2000.0);
  EXPECT_DOUBLE_EQ(ts.GoodputKrps(2), 0.0);
}

TEST(TimeSeries, RunResultCarriesAPopulatedTimeline) {
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(300000, Milliseconds(1), Milliseconds(2));
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_EQ(r.timeline.window_ns, Microseconds(100));
  EXPECT_EQ(r.timeline.windows.size(), 20u);  // 2 ms / 100 us.
  uint64_t binned = 0;
  bool saw_pf_sample = false;
  for (const TimeWindow& w : r.timeline.windows) {
    binned += w.completed;
    saw_pf_sample |= w.pf_samples > 0;
  }
  EXPECT_GT(binned, 0u);
  EXPECT_LE(binned, r.completed);
  EXPECT_TRUE(saw_pf_sample);  // The 50 us sampler feeds every 100 us window.
}

TEST(Metrics, RunResultSnapshotAgreesWithHeadlineCounters) {
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(300000, Milliseconds(1), Milliseconds(2));
  ASSERT_FALSE(r.metrics.samples.empty());
  // Per-worker completion counters sum to the workers' total.
  EXPECT_GT(r.metrics.Sum("worker.completed"), 0.0);
  // Per-op completion counters track the measured window (the same replies
  // the per-op histograms aggregate), not warmup or drain.
  EXPECT_EQ(r.metrics.Sum("loadgen.completed"), static_cast<double>(r.measured));
  EXPECT_EQ(r.metrics.Value("dispatcher.dropped"), static_cast<double>(r.dispatcher_drops));
  EXPECT_EQ(r.metrics.Sum("mem.faults"), static_cast<double>(r.mem.faults));
  // The per-op latency histogram saw every completed request.
  const MetricSample* lat = r.metrics.Find("loadgen.e2e_ns", "op=op");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricKind::kHistogram);
}

// --- Chrome trace exporter ---

TEST(TraceExport, WritesWellFormedJsonWithWorkerAndNodeTracks) {
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  sys.tracer().Enable(1 << 20);
  sys.Run(300000, Milliseconds(1), Milliseconds(2));

  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  TraceExportOptions opts;
  opts.system_name = "Adios";
  opts.num_workers = sys.config().num_workers;
  opts.num_nodes = 1;
  ASSERT_TRUE(ExportChromeTrace(sys.tracer(), opts, path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(content.find("\"dispatcher\""), std::string::npos);
  EXPECT_NE(content.find("\"node-0\""), std::string::npos);
  // Braces and brackets balance (python3 -m json.tool does the full
  // validation in CI's obs-smoke step).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, RefusesUnwritablePath) {
  Tracer t;
  t.Enable(4);
  TraceExportOptions opts;
  EXPECT_FALSE(ExportChromeTrace(t, opts, "/nonexistent-dir/trace.json"));
}

// Pins the raw-record half of the export: one record of every event, with
// an empty span timeline so no segment events follow. System events carry
// request id 0; kFailover and kCorrupt appear with and without a request.
TEST(TraceExport, RawRecordEventsGolden) {
  Tracer t;
  t.Enable(64);
  SimTime now = 1000;
  for (uint8_t e = 0; e < kNumTraceEvents; ++e) {
    const auto ev = static_cast<TraceEvent>(e);
    const bool system = ev == TraceEvent::kNodeSuspect || ev == TraceEvent::kNodeDead ||
                        ev == TraceEvent::kResilverDone || ev == TraceEvent::kScale ||
                        ev == TraceEvent::kScrubStart || ev == TraceEvent::kScrubDone ||
                        ev == TraceEvent::kFrameRefill || ev == TraceEvent::kClassDequeue;
    t.Record(now, system ? 0 : 7, ev, e % 2);
    now += 250;
    if (ev == TraceEvent::kFailover || ev == TraceEvent::kCorrupt) {
      t.Record(now, 0, ev, 1);
      now += 250;
    }
  }
  const std::string path = testing::TempDir() + "/obs_test_raw_records.json";
  TraceExportOptions opts;
  opts.system_name = "golden";
  opts.num_workers = 1;
  opts.num_nodes = 2;
  ASSERT_TRUE(ExportChromeTrace(t, SpanTimeline{}, opts, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string actual;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    actual.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  const std::string expected = R"json({"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"golden"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"dispatcher"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker-0"}},
{"ph":"M","pid":1,"tid":1000,"name":"thread_name","args":{"name":"node-0"}},
{"ph":"M","pid":1,"tid":1001,"name":"thread_name","args":{"name":"node-1"}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":1.000,"name":"arrive","args":{"req":7,"arg":0}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":1.250,"name":"dispatch","args":{"req":7,"worker":1}},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":3.000,"name":"fetch-timeout"},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":3.250,"name":"retry"},
{"ph":"i","s":"t","pid":1,"tid":1000,"ts":3.500,"name":"node-suspect","args":{"req":0,"node":0}},
{"ph":"i","s":"t","pid":1,"tid":1001,"ts":3.750,"name":"node-dead","args":{"req":0,"node":1}},
{"ph":"i","s":"t","pid":1,"tid":1000,"ts":4.000,"name":"failover","args":{"req":7,"node":0}},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":4.000,"name":"failover"},
{"ph":"i","s":"t","pid":1,"tid":1001,"ts":4.250,"name":"failover","args":{"req":0,"node":1}},
{"ph":"i","s":"t","pid":1,"tid":1001,"ts":4.500,"name":"resilver-done","args":{"req":0,"node":1}},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":4.750,"name":"prefetch"},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":5.000,"name":"prefetch-hit"},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":6.500,"name":"admit-drop","args":{"req":7,"tenant":1}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":6.750,"name":"shed-drop","args":{"req":7,"tenant":0}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":7.000,"name":"scale","args":{"req":0,"workers":1}},
{"ph":"i","s":"t","pid":1,"tid":1000,"ts":7.250,"name":"corrupt","args":{"req":7,"node":0}},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":7.250,"name":"corrupt"},
{"ph":"i","s":"t","pid":1,"tid":1001,"ts":7.500,"name":"corrupt","args":{"req":0,"node":1}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":7.750,"name":"scrub-start","args":{"req":0,"pass":1}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":8.000,"name":"scrub-done","args":{"req":0,"finds":0}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":8.250,"name":"frame-refill","args":{"req":0,"credits":1}},
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":8.500,"name":"chunk-ready"},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":8.750,"name":"class-dequeue","args":{"req":0,"class":1}}
]}
)json";
  EXPECT_EQ(actual, expected) << actual;
}

// --- Golden span regression (fixed seed) ---
//
// The simulator is deterministic: same seed, same binary, same event stream.
// This pins the folded span summary of one short fixed-seed run. If it
// drifts, either the scheduler's event emission or the span folding changed —
// both are worth a deliberate update of the constants below (the failure
// message prints the new values).

TEST(GoldenSpan, FixedSeedRunMatchesCommittedSummary) {
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  SystemConfig cfg = SystemConfig::Adios();
  cfg.seed = 7;
  MdSystem sys(cfg, &app);
  sys.tracer().Enable(1 << 20);
  RunResult r = sys.Run(200000, Milliseconds(1), Milliseconds(2));
  ASSERT_EQ(sys.tracer().dropped(), 0u);

  SpanTimeline tl = BuildSpans(sys.tracer());
  ASSERT_TRUE(tl.problems.empty()) << tl.problems[0];
  ASSERT_TRUE(ReconcileSpans(tl, r.samples).empty());

  uint64_t completed_spans = 0;
  uint64_t total_stalls = 0;
  uint64_t queue_ns = 0, exec_ns = 0, fetch_ns = 0, tx_ns = 0;
  for (const RequestSpan& s : tl.spans) {
    if (!s.completed) {
      continue;
    }
    ++completed_spans;
    total_stalls += s.stalls;
    queue_ns += s.queue_ns;
    exec_ns += s.exec_ns;
    fetch_ns += s.fetch_stall_ns;
    tx_ns += s.tx_ns;
  }
  const std::string actual = StrFormat(
      "spans=%llu stalls=%llu queue=%llu exec=%llu fetch=%llu tx=%llu",
      static_cast<unsigned long long>(completed_spans),
      static_cast<unsigned long long>(total_stalls),
      static_cast<unsigned long long>(queue_ns), static_cast<unsigned long long>(exec_ns),
      static_cast<unsigned long long>(fetch_ns), static_cast<unsigned long long>(tx_ns));
  // Committed summary of this exact run (update deliberately when the event
  // stream changes; the message below prints the replacement line).
  const std::string kGolden =
      "spans=568 stalls=493 queue=113833 exec=501880 fetch=1470265 tx=0";
  EXPECT_EQ(actual, kGolden) << "golden span summary drifted; new summary:\n  " << actual;
}

}  // namespace
}  // namespace adios
