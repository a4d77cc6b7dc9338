// Unit tests for the observability layer (src/obs/): metric registry, span
// builder, windowed time series, and the Chrome trace exporter — plus the
// golden-span table: short fixed-seed runs whose folded span summaries and
// run counters must match the committed expectations exactly (the simulator
// is deterministic, so any drift means the event stream or the folding
// changed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/array_app.h"
#include "src/apps/faiss_app.h"
#include "src/apps/memcached_app.h"
#include "src/apps/pattern_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/apps/silo_app.h"
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

TEST(MetricRegistry, HistogramHandlesAreStableAndIdempotent) {
  MetricRegistry reg;
  HistogramMetric* a = reg.GetHistogram("lat", MetricLabels::Op("GET"));
  HistogramMetric* b = reg.GetHistogram("lat", MetricLabels::Op("SET"));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.GetHistogram("lat", MetricLabels::Op("GET")));
  for (uint64_t v = 1; v <= 100; ++v) {
    a->Observe(v);
  }
  b->Observe(7);
  MetricsSnapshot snap = reg.Snapshot();
  const MetricSample* s = snap.Find("lat", "op=GET");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kHistogram);
  EXPECT_EQ(s->value, 100.0);  // Count.
  EXPECT_EQ(s->max, 100u);
  EXPECT_GE(s->p99, 98u);
  EXPECT_EQ(snap.Value("lat", "op=SET"), 1.0);
}

TEST(MetricRegistry, ProbesSampleAtSnapshotTime) {
  MetricRegistry reg;
  uint64_t source = 10;
  reg.RegisterProbe("probe", {}, [&source] { return static_cast<double>(source); });
  EXPECT_EQ(reg.Snapshot().Value("probe"), 10.0);
  source = 42;  // No double bookkeeping: the snapshot reads the live value.
  EXPECT_EQ(reg.Snapshot().Value("probe"), 42.0);
  EXPECT_EQ(reg.Snapshot().Find("probe")->kind, MetricKind::kGauge);
}

TEST(MetricRegistry, SnapshotLooksUpByNameAndLabels) {
  MetricRegistry reg;
  reg.RegisterProbe("reqs", MetricLabels::Worker(0), [] { return 5.0; });
  reg.RegisterProbe("reqs", MetricLabels::Worker(1), [] { return 2.0; });
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("reqs", "worker=0"), 5.0);
  EXPECT_EQ(snap.Value("reqs", "worker=1"), 2.0);
  EXPECT_EQ(snap.Sum("reqs"), 7.0);
  EXPECT_EQ(snap.Value("missing", "", -1.0), -1.0);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(MetricRegistry, SnapshotIsSortedByNameThenLabels) {
  MetricRegistry reg;
  reg.RegisterProbe("zz", {}, [] { return 0.0; });
  reg.GetHistogram("aa", MetricLabels::Worker(1));
  reg.RegisterProbe("aa", MetricLabels::Worker(0), [] { return 0.0; });
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
  std::vector<PfPoint> active = {{900, 1.0}, {1500, 8.0}, {1600, 6.0}, {2200, 4.0}};
  TimeSeries ts = BuildTimeSeries(samples, pf, active, /*warmup_ns=*/1000,
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
  // Active-worker points bin the same way; the one before warmup is skipped.
  EXPECT_DOUBLE_EQ(ts.windows[0].mean_active_workers, 7.0);
  EXPECT_EQ(ts.windows[0].active_samples, 2u);
  EXPECT_DOUBLE_EQ(ts.windows[1].mean_active_workers, 4.0);
  EXPECT_EQ(ts.windows[2].active_samples, 0u);
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
  // Per-op completion counts track the measured window (the same replies
  // the per-op histograms aggregate), not warmup or drain.
  EXPECT_EQ(r.metrics.Count("loadgen.completed"), r.measured);
  EXPECT_EQ(r.e2e.count(), r.measured);
  EXPECT_EQ(r.metrics.Count("dispatcher.dropped"), r.dropped);
  // Every counter field RunResult keeps is a copy of its registry name.
  for (const RunCounterField& f : r.CounterFields(/*integrity_on=*/false)) {
    EXPECT_EQ(*f.field, r.metrics.Count(f.name)) << f.name;
  }
  EXPECT_GT(r.mem.faults, 0u);
  EXPECT_GT(r.worker_yields, 0u);
  // The per-op latency histogram saw every completed request.
  const MetricSample* lat = r.metrics.Find("loadgen.e2e_ns", "op=op");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricKind::kHistogram);
  ASSERT_EQ(r.ops.size(), 1u);
  EXPECT_EQ(r.ops[0].e2e.count(), static_cast<uint64_t>(lat->value));
}

TEST(MetricsDeathTest, FillingACounterNothingRegisteredAborts) {
  MetricRegistry registry;
  registry.RegisterProbe("worker.yields", MetricLabels::Worker(0), [] { return 3.0; });
  RunResult r;
  r.metrics = registry.Snapshot();
  EXPECT_EQ(r.metrics.Count("worker.yields"), 3u);
  EXPECT_DEATH(r.FillCounters(/*integrity_on=*/false),
               "nothing registered a metric named worker.qp_full_stalls");
  EXPECT_DEATH(r.metrics.Count("worker.yeilds"), "nothing registered a metric named worker.yeilds");
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
                        ev == TraceEvent::kClassDequeue;
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
{"ph":"n","cat":"request","id":7,"pid":1,"tid":0,"ts":8.250,"name":"chunk-ready"},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":8.500,"name":"class-dequeue","args":{"req":0,"class":0}}
]}
)json";
  EXPECT_EQ(actual, expected) << actual;
}

// --- Golden span regression (fixed seed) ---
//
// The simulator is deterministic: same seed, same binary, same event stream.
// Each cell pins the folded span summary and the run counters of one short
// fixed-seed run: the five system presets on the array microbenchmark, the
// other five applications on Adios (the pattern scans with prefetching and
// link classes on), and a replicated run through a node blackout on a lossy
// fabric. Between them they charge the calibrated costs: switches, the fault
// path and its batched posts, every policy's kernel costs, preemption, the
// fabric stages and class weights, each app's compute, the health detector,
// retry backoff, the transport timeouts and eviction. (Work stealing and the
// dispatcher's queue limits are charged only by the ablation and overload
// benches.) If a cell drifts, either the event stream or the span folding
// changed; both deserve a deliberate update of its line (the failure message
// prints the replacement).

struct GoldenCell {
  const char* name;
  SystemConfig (*config)();
  std::unique_ptr<Application> (*app)();
  const char* golden;
  // The cell drives a node dead and back, or it pins none of the health,
  // backoff and transport-timeout path.
  bool expects_node_dead = false;
};

std::unique_ptr<Application> GoldenArray() {
  ArrayApp::Options o;
  o.entries = 1 << 14;
  return std::make_unique<ArrayApp>(o);
}

std::unique_ptr<Application> GoldenMemcached() {
  MemcachedApp::Options o;
  o.num_keys = 4096;
  o.set_fraction = 0.3;
  return std::make_unique<MemcachedApp>(o);
}

std::unique_ptr<Application> GoldenRocksDb() {
  RocksDbApp::Options o;
  o.num_keys = 2048;
  o.value_bytes = 256;
  return std::make_unique<RocksDbApp>(o);
}

std::unique_ptr<Application> GoldenSilo() {
  SiloApp::Options o;
  o.warehouses = 1;
  o.customers_per_district = 100;
  o.items = 1000;
  o.stock_per_warehouse = 1000;
  o.max_orders_per_district = 256;
  return std::make_unique<SiloApp>(o);
}

std::unique_ptr<Application> GoldenFaiss() {
  FaissApp::Options o;
  o.num_vectors = 2000;
  o.nlist = 32;
  o.nprobe = 4;
  return std::make_unique<FaissApp>(o);
}

std::unique_ptr<Application> GoldenPattern() {
  PatternApp::Options o;
  o.pages = 1 << 10;
  o.pattern = PatternApp::Pattern::kStride;
  return std::make_unique<PatternApp>(o);
}

// Strided scans with the prefetcher batching READs behind each demand fault
// and the links split into weighted demand/prefetch/background classes.
SystemConfig GoldenPrefetchQos() {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.sched.prefetch_window = 8;
  cfg.fabric.link_classes = kNumTrafficClasses;
  return cfg;
}

// Two replicas on a lossy, corrupting fabric whose node 1 goes dark mid-run,
// under a write mix: drops and NAKs flush after the transport timeouts,
// fetch and write-back retries back off (write-backs to the dark node up to
// the cap), verified corruption flaps the nodes suspect and back, the health
// monitor walks node 1 to dead and probes it back, and failovers carry the
// fetches meanwhile.
SystemConfig GoldenBlackout() {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.fault.read_loss_rate = 0.005;
  cfg.fault.nack_rate = 0.005;
  cfg.fault.corrupt_rate = 0.03;
  cfg.integrity.verify = true;
  cfg.fault.blackout_start_ns = Milliseconds(1) + Microseconds(500);
  cfg.fault.blackout_duration_ns = Microseconds(500);
  cfg.fault.blackout_node = 1;
  return cfg;
}

std::string GoldenRun(const GoldenCell& cell, RunResult* result) {
  std::unique_ptr<Application> app = cell.app();
  SystemConfig cfg = cell.config();
  cfg.seed = 7;
  MdSystem sys(cfg, app.get());
  sys.tracer().Enable(1 << 20);
  RunResult& r = *result;
  r = sys.Run(200000, Milliseconds(1), Milliseconds(2));
  EXPECT_EQ(sys.tracer().dropped(), 0u);

  SpanTimeline tl = BuildSpans(sys.tracer());
  EXPECT_TRUE(tl.problems.empty()) << tl.problems[0];
  EXPECT_TRUE(ReconcileSpans(tl, r.samples).empty());

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
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  return StrFormat(
      "spans=%llu stalls=%llu queue=%llu exec=%llu fetch=%llu tx=%llu | done=%llu failed=%llu "
      "retries=%llu wb_retries=%llu failovers=%llu suspect=%llu dead=%llu recovered=%llu "
      "corrupt=%llu p999=%llu",
      u(completed_spans), u(total_stalls), u(queue_ns), u(exec_ns), u(fetch_ns), u(tx_ns),
      u(r.completed), u(r.requests_failed), u(r.fetch_retries), u(r.writeback_retries),
      u(r.failovers), u(r.node_suspect_events), u(r.metrics.Count("node.dead_events")),
      u(r.metrics.Count("node.recoveries")),
      u(r.integrity.detected), u(r.e2e.Percentile(99.9)));
}

// Committed summaries of these exact runs (update a line deliberately when
// the event stream changes; the failure message prints its replacement).
const GoldenCell kGoldenCells[] = {
    {"adios-array", SystemConfig::Adios, GoldenArray,
     "spans=568 stalls=493 queue=113833 exec=501880 fetch=1470265 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=7020"},
    {"dilos-array", SystemConfig::DiLOS, GoldenArray,
     "spans=568 stalls=493 queue=113766 exec=501880 fetch=1454400 tx=987505"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=6987"},
    {"dilosp-array", SystemConfig::DiLOSP, GoldenArray,
     "spans=568 stalls=493 queue=113766 exec=505288 fetch=1454272 tx=987711"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=6993"},
    {"hermit-array", SystemConfig::Hermit, GoldenArray,
     "spans=568 stalls=493 queue=113766 exec=2505980 fetch=1454111 tx=987287"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=10687"},
    {"infiniswap-array", SystemConfig::Infiniswap, GoldenArray,
     "spans=568 stalls=485 queue=2802426 exec=5251455 fetch=20155980 tx=988671"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=73026"},
    {"adios-memcached", SystemConfig::Adios, GoldenMemcached,
     "spans=568 stalls=914 queue=113771 exec=502863 fetch=2722957 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=19705"},
    {"adios-rocksdb", SystemConfig::Adios, GoldenRocksDb,
     "spans=568 stalls=719 queue=118598 exec=734830 fetch=2135015 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=52905"},
    {"adios-silo", SystemConfig::Adios, GoldenSilo,
     "spans=568 stalls=1747 queue=116178 exec=1118270 fetch=5116693 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=53540"},
    {"adios-faiss", SystemConfig::Adios, GoldenFaiss,
     "spans=568 stalls=5536 queue=216897 exec=5288981 fetch=16753199 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=91114"},
    {"adios-pattern-prefetch-qos", GoldenPrefetchQos, GoldenPattern,
     "spans=568 stalls=3563 queue=113918 exec=1212900 fetch=4999480 tx=0"
     " | done=568 failed=0 retries=0 wb_retries=0 failovers=0"
     " suspect=0 dead=0 recovered=0 corrupt=0 p999=45194"},
    {"adios-blackout-r2", GoldenBlackout, GoldenMemcached,
     "spans=568 stalls=928 queue=113947 exec=505138 fetch=4009024 tx=0"
     " | done=568 failed=4 retries=23 wb_retries=14 failovers=27"
     " suspect=4 dead=1 recovered=4 corrupt=25 p999=54723", true},
};

TEST(GoldenSpan, FixedSeedRunMatchesCommittedSummary) {
  for (const GoldenCell& cell : kGoldenCells) {
    SCOPED_TRACE(cell.name);
    RunResult r;
    const std::string actual = GoldenRun(cell, &r);
    EXPECT_EQ(actual, cell.golden) << "golden summary of " << cell.name
                                   << " drifted; new line:\n  {\"" << cell.name << "\", ..., \""
                                   << actual << "\"},";
    if (cell.expects_node_dead) {
      EXPECT_GT(r.metrics.Count("node.dead_events"), 0u);
      EXPECT_GT(r.metrics.Count("node.recoveries"), 0u);
      EXPECT_GT(r.failovers, 0u);
      EXPECT_GT(r.writeback_retries, 0u);
      EXPECT_GT(r.integrity.detected, 0u);
    }
  }
}

// Every number a bench prints traces back to one registry name: the
// counter fields RunResult still fills, the names that replaced its deleted
// fields (docs/OBSERVABILITY.md §2), and the integrity extras JsonRowOf
// writes. The two-replica blackout run exercises the fault, failover and
// integrity layers at once, so every one of them is registered there.
TEST(Metrics, EveryRunCounterHasOneRegistryName) {
  const GoldenCell& blackout = kGoldenCells[std::size(kGoldenCells) - 1];
  ASSERT_TRUE(blackout.expects_node_dead);
  RunResult r;
  GoldenRun(blackout, &r);
  const auto registered = [&r](const std::string& name) {
    return std::any_of(r.metrics.samples.begin(), r.metrics.samples.end(),
                       [&name](const MetricSample& s) { return s.name == name; });
  };
  for (const RunCounterField& f : r.CounterFields(/*integrity_on=*/true)) {
    EXPECT_TRUE(registered(f.name)) << f.name;
    EXPECT_EQ(*f.field, r.metrics.Count(f.name)) << f.name;
  }
  for (const auto& [key, name] : kIntegrityJsonExtras) {
    EXPECT_TRUE(registered(name)) << key << " <- " << name;
  }
  for (const char* name :
       {"worker.preempt_fires", "dispatcher.dropped", "reclaimer.writeback_timeouts",
        "reclaimer.writeback_aborts", "fault.degraded_ns", "node.dead_events", "node.recoveries",
        "copier.pages_resilvered", "copier.resilver_failures", "placement.divergent_slots",
        "placement.divergence_events", "trace.dropped", "ctrl.admit_drops", "ctrl.shed_drops",
        "ctrl.shed_engagements", "ctrl.scale_ups", "ctrl.scale_downs"}) {
    EXPECT_TRUE(registered(name)) << name;
  }
  EXPECT_GT(r.metrics.Count("reclaimer.writeback_aborts") +
                r.metrics.Count("reclaimer.writeback_retries"),
            0u);
  EXPECT_GT(r.metrics.Count("copier.pages_resilvered"), 0u);
  EXPECT_GT(r.metrics.Count("node.dead_events"), 0u);
  EXPECT_GT(r.metrics.Count("fault.degraded_ns"), 0u);  // Node 1's blackout.
}

}  // namespace
}  // namespace adios
