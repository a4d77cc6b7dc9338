// Failover — blackout-recovery timeline with replicated memory nodes
// (docs/FAILOVER.md).
//
// One memory node goes completely dark mid-measurement (link flap / node
// reboot), then comes back and is re-silvered. The question is what the
// client sees across the outage:
//
//   Adios-R2 — replicas=2: in-flight fetches fail over to the surviving
//     replica, write-backs fan out around the dead node, and the recovered
//     node is repaired in the background. Goodput dips during failure
//     detection, then recovers; zero requests fail.
//   Adios-R1 — no replica: retry exhaustion has nowhere to go, so the
//     blackout is an abort cliff (failed requests, lost goodput).
//   DiLOS-R2 — same replication, busy-waiting fault policy: every worker
//     burns its core through the 20 us loss-detection + backoff window of
//     every dropped fetch, so the outage costs capacity, not just latency.
//
// Output: per-bin goodput timeline across the window (blackout marked), a
// summary table (failed requests, failovers, health transitions, re-silver
// work), and a recovery check: post-blackout goodput must come back to
// >= 90% of the pre-blackout average for the replicated Adios.
//
// Workload: memcached-style GET/SET (20% SETs so write-backs diverge and the
// re-silver pass has real work), 10% local memory, 8 workers, 800 K req/s.

#include <algorithm>

#include "bench/bench_util.h"
#include "src/apps/memcached_app.h"
#include "src/obs/time_series.h"

namespace adios {
namespace {

constexpr uint64_t kNumKeys = 1ull << 17;
constexpr double kLocalRatio = 0.1;
constexpr double kLoad = 8e5;

struct Point {
  std::string label;
  RunResult result;
  SimDuration warmup = 0;
};

MemcachedApp::Options Workload() {
  MemcachedApp::Options o;
  o.num_keys = kNumKeys;
  o.set_fraction = 0.2;
  return o;
}

RunResult RunPoint(const std::string& system, uint32_t replicas, SimDuration blackout_start,
                   SimDuration blackout_duration, const BenchTiming& timing,
                   const BenchTraceArgs* trace = nullptr) {
  SystemConfig cfg = system == "DiLOS" ? SystemConfig::DiLOS() : SystemConfig::Adios();
  cfg.name = StrFormat("%s-R%u", system.c_str(), replicas);
  cfg.replication.num_nodes = std::max(2u, replicas);  // R1 still has 2 nodes...
  cfg.replication.replicas = replicas;                 // ...but only 1 copy per page.
  if (replicas == 1) {
    cfg.replication.num_nodes = 1;  // True single-node baseline: no fabric change.
  }
  cfg.local_memory_ratio = kLocalRatio;
  cfg.fault.blackout_start_ns = blackout_start;
  cfg.fault.blackout_duration_ns = blackout_duration;
  cfg.fault.blackout_node = 0;
  MemcachedApp app(Workload());
  MdSystem sys(cfg, &app);
  if (trace != nullptr) {
    sys.tracer().Enable(1u << 20);
  }
  RunResult r = sys.Run(kLoad, timing.warmup, timing.measure);
  if (trace != nullptr) {
    ExportBenchTrace(sys, *trace);
  }
  return r;
}

// Dedicated traced Adios-R2 blackout run: the health transitions and
// failovers land as instants on the node tracks of the exported JSON.
void TracedRun(const BenchTraceArgs& args) {
  const BenchTiming timing = DefaultTiming();
  const SimDuration blackout_start = timing.warmup + timing.measure * 3 / 10;
  RunPoint("Adios", 2, blackout_start, timing.measure / 10, timing, &args);
}

bool Run() {
  const BenchTiming timing = DefaultTiming();
  // Blackout: 30% into the measurement window, 10% of it long (1 ms in the
  // quick smoke, 2.5 ms in the full run) — long enough that detection,
  // failover, recovery probing, and re-silvering all land inside the window.
  const SimDuration blackout_start = timing.warmup + timing.measure * 3 / 10;
  const SimDuration blackout_duration = timing.measure / 10;
  const SimDuration bin_ns = timing.measure / 20;

  PrintHeader("Failover", "goodput across a full memory-node blackout");
  std::printf("blackout: node 0 dark for %.2f ms starting %.2f ms into the window\n",
              static_cast<double>(blackout_duration) / 1e6,
              static_cast<double>(blackout_start - timing.warmup) / 1e6);

  std::vector<Point> points;
  points.push_back({"Adios-R2",
                    RunPoint("Adios", 2, blackout_start, blackout_duration, timing),
                    timing.warmup});
  points.push_back({"Adios-R1",
                    RunPoint("Adios", 1, blackout_start, blackout_duration, timing),
                    timing.warmup});
  points.push_back({"DiLOS-R2",
                    RunPoint("DiLOS", 2, blackout_start, blackout_duration, timing),
                    timing.warmup});

  // --- Timeline: the RunResult's windowed snapshots, rebuilt at this bench's
  // coarser bin so the table stays readable (docs/OBSERVABILITY.md) ---
  std::vector<TimeSeries> lines;
  for (const Point& p : points) {
    lines.push_back(
        BuildTimeSeries(p.result.samples, {}, {}, p.warmup, timing.measure, bin_ns));
  }
  std::printf("\ngoodput timeline (K completions/s per %.2f ms bin; * = blackout):\n",
              static_cast<double>(bin_ns) / 1e6);
  TablePrinter tl({"t(ms)", points[0].label, points[1].label, points[2].label, ""});
  for (size_t b = 0; b < lines[0].windows.size(); ++b) {
    const SimTime bin_start = timing.warmup + static_cast<SimTime>(b) * bin_ns;
    const bool dark = bin_start < blackout_start + blackout_duration &&
                      bin_start + bin_ns > blackout_start;
    tl.AddRow({StrFormat("%.2f", static_cast<double>(bin_start - timing.warmup) / 1e6),
               StrFormat("%.0f", lines[0].GoodputKrps(b)), StrFormat("%.0f", lines[1].GoodputKrps(b)),
               StrFormat("%.0f", lines[2].GoodputKrps(b)), dark ? "*" : ""});
  }
  tl.Print();

  // --- Summary ---
  TablePrinter summary({"system", "goodput(K)", "P99.9(us)", "failed", "failovers",
                        "suspect", "dead", "resilvered", "diverged", "wasted"});
  for (const Point& p : points) {
    const RunResult& r = p.result;
    summary.AddRow({p.label, Krps(r.goodput_rps), Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.requests_failed)),
                    StrFormat("%llu", static_cast<unsigned long long>(r.failovers)),
                    StrFormat("%llu", static_cast<unsigned long long>(r.node_suspect_events)),
                    StrFormat("%llu", Count(r, "node.dead_events")),
                    StrFormat("%llu", Count(r, "copier.pages_resilvered")),
                    StrFormat("%llu", Count(r, "placement.divergence_events")),
                    Pct(r.busy_wait_fraction)});
  }
  std::printf("\n");
  summary.Print();
  std::vector<BenchJsonRow> json;
  for (const Point& p : points) {
    WarnTraceDrops(p.result);
    BenchJsonRow row = JsonRowOf(p.label, p.result);
    row.extra.emplace_back("requests_failed", static_cast<double>(p.result.requests_failed));
    row.extra.emplace_back("failovers", static_cast<double>(p.result.failovers));
    json.push_back(std::move(row));
  }
  WriteBenchJson("failover", json);

  // --- Recovery check: Adios-R2 goodput returns to >= 90% of pre-blackout ---
  const TimeSeries& adios = lines[0];
  const size_t first_dark = static_cast<size_t>((blackout_start - timing.warmup) / bin_ns);
  const size_t first_clear =
      static_cast<size_t>((blackout_start + blackout_duration - timing.warmup) / bin_ns) + 1;
  double pre = 0.0;
  for (size_t b = 0; b < first_dark; ++b) {
    pre += adios.GoodputKrps(b);
  }
  pre /= static_cast<double>(first_dark == 0 ? 1 : first_dark);
  double post_peak = 0.0;
  for (size_t b = first_clear; b < adios.windows.size(); ++b) {
    post_peak = std::max(post_peak, adios.GoodputKrps(b));
  }
  const RunResult& r2 = points[0].result;
  std::printf("\nAdios-R2: pre-blackout %.0f K/s, post-blackout peak %.0f K/s (%.0f%%), "
              "%llu failed requests\n",
              pre, post_peak, 100.0 * post_peak / (pre > 0.0 ? pre : 1.0),
              static_cast<unsigned long long>(r2.requests_failed));
  const bool recovered = post_peak >= 0.9 * pre && r2.requests_failed == 0;
  std::printf("recovery check (>=90%% of pre-blackout goodput, zero failed): %s\n",
              recovered ? "PASS" : "FAIL");
  std::printf("Adios-R1 aborts during the outage: %llu failed requests (the cliff "
              "replication removes)\n",
              static_cast<unsigned long long>(points[1].result.requests_failed));
  return recovered;
}

}  // namespace
}  // namespace adios

int main(int argc, char** argv) {
  const adios::BenchTraceArgs trace_args = adios::ParseBenchTraceArgs(argc, argv);
  bool ok = true;
  if (!trace_args.trace_only) {
    ok = adios::Run();
  }
  if (trace_args.enabled()) {
    adios::TracedRun(trace_args);
  }
  return ok ? 0 : 1;
}
