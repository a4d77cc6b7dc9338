// Overload — SLO goodput under 1x-10x offered load, with and without the
// overload controller (docs/OVERLOAD.md).
//
// The paper's premise is that yielding instead of busy-waiting keeps worker
// cycles productive during us-scale fetches — but an open-loop client that
// offers 10x capacity still collapses the *queues*: every admitted request
// waits behind a near-full central queue, so raw throughput stays flat while
// the SLO-goodput (completions inside the latency SLO) cliff-drops to zero.
// The controller turns that cliff into a plateau:
//
//   ctrl-off — every arrival that fits the RX ring is queued; queueing delay
//     alone exceeds the SLO at saturation, so SLO-goodput collapses even
//     though workers stay busy.
//   ctrl-on  — per-tenant token-bucket admission drops the doomed surplus at
//     the front door, PF-aware shedding guards the fetch knee, and elastic
//     scaling sizes the active worker set to the surviving load. Admitted
//     requests keep a bounded P99; SLO-goodput holds near peak.
//
// Output: the 1x-10x sweep for both modes (goodput, SLO-goodput, admitted
// P99, drop breakdown), a diurnal + flash-crowd timeline driven by the load
// generator's rate schedule (per-bin goodput, P99, outstanding PFs, active
// workers), BENCH_overload.json, and two acceptance checks from the issue:
// at 10x the admitted P99 must stay within 3x the 1x P99 and SLO-goodput
// must hold >= 70% of the sweep peak with the controller on.
//
// Workload: memcached-style GET/SET, 20% local memory, 8 workers; 1x offered
// load is kBaseRps and the SLO is kSloNs.

#include <algorithm>

#include "bench/bench_util.h"
#include "src/apps/memcached_app.h"
#include "src/obs/time_series.h"

namespace adios {
namespace {

constexpr uint64_t kNumKeys = 1ull << 16;
constexpr double kBaseRps = 6e5;
constexpr uint64_t kSloNs = 150'000;  // About 10x the unloaded P99.
constexpr double kShedPfKnee = 12.0;

struct Point {
  std::string label;
  double multiplier = 1.0;
  bool ctrl_on = false;
  RunResult result;
  double slo_goodput_rps = 0.0;
};

MemcachedApp::Options Workload() {
  MemcachedApp::Options o;
  o.num_keys = kNumKeys;
  o.set_fraction = 0.1;
  return o;
}

// Controller settings for the "on" runs: admission pinned to the 1x rate
// (the sweep's sustainable level), shedding at the PF knee, scaling across
// the full worker set.
CtrlConfig ControllerOn() {
  CtrlConfig c;
  c.admission_enabled = true;
  c.admit_rate_rps = kBaseRps;
  c.admit_burst = 256.0;
  c.shed_enabled = true;
  c.shed_pf_knee = kShedPfKnee;
  c.scale_enabled = true;
  c.min_workers = 2;
  c.scale_up_queue = 24.0;
  c.scale_down_queue = 1.0;
  c.scale_dwell_ns = Microseconds(250);
  return c;
}

// Completions inside the SLO per second of the measurement window — the
// quantity overload control defends (throughput alone hides the collapse:
// a saturated queue still completes requests, just uselessly late).
double SloGoodputRps(const RunResult& r, uint64_t slo_ns, SimDuration measure_ns) {
  uint64_t within = 0;
  for (const RequestSample& s : r.samples) {
    if (s.e2e_ns <= slo_ns) {
      ++within;
    }
  }
  return static_cast<double>(within) / (static_cast<double>(measure_ns) * 1e-9);
}

// The common row, plus the controller's decisions when it was on, so plots
// of an overload sweep can correlate goodput with the drops that protected
// it.
BenchJsonRow OverloadRow(const std::string& label, const RunResult& r, bool ctrl_on) {
  BenchJsonRow row = JsonRowOf(label, r);
  if (ctrl_on) {
    for (const char* name : {"admit_drops", "shed_drops", "scale_ups", "scale_downs"}) {
      const uint64_t count = r.metrics.Count(std::string("ctrl.") + name);
      row.extra.emplace_back(name, static_cast<double>(count));
    }
    row.extra.emplace_back("mean_active_workers", r.mean_active_workers);
  }
  return row;
}

RunResult RunPoint(double offered_rps, bool ctrl_on, const BenchTiming& timing,
                   const LoadGenerator::Options* loadgen_opts = nullptr,
                   const BenchTraceArgs* trace = nullptr) {
  SystemConfig cfg = SystemConfig::Adios();
  if (ctrl_on) {
    cfg.ctrl = ControllerOn();
  }
  MemcachedApp app(Workload());
  MdSystem sys(cfg, &app);
  if (trace != nullptr) {
    sys.tracer().Enable(1u << 20);
  }
  RunResult r = sys.Run(offered_rps, timing.warmup, timing.measure, loadgen_opts);
  if (trace != nullptr) {
    ExportBenchTrace(sys, *trace);
  }
  return r;
}

// Dedicated traced run: a ctrl-on point at 4x, so admit/shed instants and
// scale steps land on the dispatcher track of the exported JSON.
void TracedRun(const BenchTraceArgs& args) {
  const BenchTiming timing = DefaultTiming();
  RunPoint(4.0 * kBaseRps, /*ctrl_on=*/true, timing, nullptr, &args);
}

void PrintSweep(const std::vector<Point>& points) {
  TablePrinter t({"mode", "offered(K)", "tput(K)", "SLO-good(K)", "P50(us)", "P99(us)",
                  "rx-drop", "admit-drop", "shed-drop", "workers"});
  for (const Point& p : points) {
    const RunResult& r = p.result;
    t.AddRow({p.label, Krps(r.offered_rps), Krps(r.throughput_rps), Krps(p.slo_goodput_rps),
              Us(r.e2e.P50()), Us(r.e2e.P99()),
              StrFormat("%llu", Count(r, "dispatcher.dropped") - Count(r, "ctrl.admit_drops") -
                                    Count(r, "ctrl.shed_drops")),
              StrFormat("%llu", Count(r, "ctrl.admit_drops")),
              StrFormat("%llu", Count(r, "ctrl.shed_drops")),
              p.ctrl_on ? StrFormat("%.1f", r.mean_active_workers) : "8.0"});
  }
  t.Print();
}

// Diurnal + flash-crowd trace: a quiet trough, a return to the plateau, then
// a 4x spike (measured against the 1x base), shaped by the load generator's
// piecewise rate schedule. One ctrl-on run; the timeline shows admission and
// scaling following the phases.
void FlashCrowd(const BenchTiming& timing, std::vector<BenchJsonRow>* json) {
  LoadGenerator::Options lg;
  const SimDuration phase = (timing.warmup + timing.measure) / 8;
  lg.rate_schedule = {
      {2 * phase, 1.0},   // Plateau (covers warmup).
      {2 * phase, 0.35},  // Diurnal trough.
      {2 * phase, 1.0},   // Back to plateau.
      {phase, 4.0},       // Flash crowd.
      {phase, 1.0},       // Aftermath.
  };
  RunResult r = RunPoint(kBaseRps, /*ctrl_on=*/true, timing, &lg);

  const SimDuration bin_ns = timing.measure / 20;
  TimeSeries line = BuildTimeSeries(r.samples, {}, {}, timing.warmup, timing.measure, bin_ns);
  // Rebin the controller's active-worker level from the 100 us timeline the
  // run already carries (its sampler points are not re-exposed).
  std::printf("\ndiurnal + flash-crowd timeline (ctrl-on, %.2f ms bins):\n",
              static_cast<double>(bin_ns) / 1e6);
  TablePrinter t({"t(ms)", "offered", "good(K)", "P99(us)", "PF/worker", "workers"});
  for (size_t b = 0; b < line.windows.size(); ++b) {
    const SimTime bin_start = timing.warmup + static_cast<SimTime>(b) * bin_ns;
    // Mean the fine-grained windows of the run timeline that fall in this bin.
    double pf = 0.0;
    double workers = 0.0;
    uint32_t n = 0;
    for (const TimeWindow& w : r.timeline.windows) {
      if (w.start >= bin_start && w.start < bin_start + bin_ns) {
        pf += w.mean_outstanding_pf;
        workers += w.mean_active_workers;
        ++n;
      }
    }
    double offered_mult = 0.0;
    {
      SimDuration total = 0;
      for (const auto& ph : lg.rate_schedule) {
        total += ph.duration_ns;
      }
      SimDuration off = bin_start % total;
      for (const auto& ph : lg.rate_schedule) {
        if (off < ph.duration_ns) {
          offered_mult = ph.multiplier;
          break;
        }
        off -= ph.duration_ns;
      }
    }
    t.AddRow({StrFormat("%.2f", static_cast<double>(bin_start - timing.warmup) / 1e6),
              StrFormat("%.2fx", offered_mult), StrFormat("%.0f", line.GoodputKrps(b)),
              Us(line.windows[b].p99_ns), n > 0 ? StrFormat("%.1f", pf / n) : "-",
              n > 0 ? StrFormat("%.1f", workers / n) : "-"});
  }
  t.Print();
  std::printf("flash-crowd run: %llu admit drops, %llu shed drops, %llu scale-ups, "
              "%llu scale-downs\n",
              Count(r, "ctrl.admit_drops"), Count(r, "ctrl.shed_drops"), Count(r, "ctrl.scale_ups"),
              Count(r, "ctrl.scale_downs"));
  WarnTraceDrops(r);
  BenchJsonRow row = OverloadRow("flash-crowd/ctrl-on", r, /*ctrl_on=*/true);
  row.extra.emplace_back("slo_goodput_rps", SloGoodputRps(r, kSloNs, timing.measure));
  json->push_back(std::move(row));
}

bool Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<double> multipliers = MaybeThin({1, 2, 4, 6, 8, 10});

  PrintHeader("Overload", "SLO goodput under 1x-10x offered load, ctrl off vs on");
  std::printf("base (1x) load %.0f KRPS, SLO %.0f us, 8 workers, 20%% local memory\n",
              kBaseRps / 1000.0, static_cast<double>(kSloNs) / 1000.0);

  std::vector<Point> points;
  for (const bool ctrl_on : {false, true}) {
    for (const double m : multipliers) {
      Point p;
      p.multiplier = m;
      p.ctrl_on = ctrl_on;
      p.label = StrFormat("%s/%gx", ctrl_on ? "ctrl-on" : "ctrl-off", m);
      p.result = RunPoint(m * kBaseRps, ctrl_on, timing);
      p.slo_goodput_rps = SloGoodputRps(p.result, kSloNs, timing.measure);
      points.push_back(std::move(p));
    }
  }
  std::printf("\n");
  PrintSweep(points);

  std::vector<BenchJsonRow> json;
  for (const Point& p : points) {
    BenchJsonRow row = OverloadRow(p.label, p.result, p.ctrl_on);
    row.extra.emplace_back("slo_goodput_rps", p.slo_goodput_rps);
    row.extra.emplace_back("offered_rps", p.result.offered_rps);
    json.push_back(std::move(row));
  }
  FlashCrowd(timing, &json);
  WriteBenchJson("overload", json);

  // --- Acceptance checks (the issue's graceful-degradation criteria) ---
  auto find = [&points](bool ctrl_on, double m) -> const Point* {
    for (const Point& p : points) {
      if (p.ctrl_on == ctrl_on && p.multiplier == m) {
        return &p;
      }
    }
    return nullptr;
  };
  const Point* on1 = find(true, 1.0);
  const Point* on10 = find(true, 10.0);
  const Point* off1 = find(false, 1.0);
  const Point* off10 = find(false, 10.0);
  double on_peak = 0.0;
  for (const Point& p : points) {
    if (p.ctrl_on) {
      on_peak = std::max(on_peak, p.slo_goodput_rps);
    }
  }
  if (on1 == nullptr || on10 == nullptr || off1 == nullptr || off10 == nullptr) {
    std::printf("\noverload acceptance: FAIL (a sweep lacks its 1x or 10x row)\n");
    return false;
  }
  const double p99_ratio = static_cast<double>(on10->result.e2e.P99()) /
                           static_cast<double>(std::max<uint64_t>(1, on1->result.e2e.P99()));
  const double hold = on10->slo_goodput_rps / (on_peak > 0.0 ? on_peak : 1.0);
  const double cliff = off10->slo_goodput_rps /
                       (off1->slo_goodput_rps > 0.0 ? off1->slo_goodput_rps : 1.0);
  std::printf("\nctrl-on @10x: admitted P99 %.1f us = %.2fx the 1x P99 (limit 3x)\n",
              static_cast<double>(on10->result.e2e.P99()) / 1000.0, p99_ratio);
  std::printf("ctrl-on @10x: SLO-goodput %.0f K = %.0f%% of sweep peak (floor 70%%)\n",
              on10->slo_goodput_rps / 1000.0, 100.0 * hold);
  std::printf("ctrl-off @10x: SLO-goodput %.0f K = %.0f%% of its 1x level (the cliff)\n",
              off10->slo_goodput_rps / 1000.0, 100.0 * cliff);
  const bool pass = p99_ratio <= 3.0 && hold >= 0.7 && cliff < 0.5;
  std::printf("overload acceptance (P99 within 3x, goodput >= 70%% of peak, "
              "ctrl-off cliff visible): %s\n",
              pass ? "PASS" : "FAIL");
  return pass;
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
